"""One robot, two obstacles, one crossing.

The robot starts left of the first obstacle's projection and must end past
it.  The planner classifies the query, discovers the single inversion between
the start and goal orderings, and routes the robot around the obstacle on a
clearance half-circle.  We print the exact segment list, as the plan JSON
writes the path's table, and drop an SVG next to this script.
"""

import json
import pathlib

import numpy as np

from parammp import (
    ConfigurationQuery,
    certify_separation,
    plan,
    render_svg,
    serialize_plan,
)

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)


def main():
    query = ConfigurationQuery(
        starts=[[0.0, 1.0]],
        goals=[[4.0, -0.5]],
        obstacles=[[1.5, 0.0], [3.0, 2.5]],
    )
    result = plan(query, mode="fixed")

    print(f"region label: j={result.region.j}, t={result.region.t}")
    print(f"continuity domain index c = {result.domain_index} (of 2n+m = 4)")
    print(f"elementary swaps used: {result.swap_count}")
    print()
    print("robot 0 segment list:")
    text = serialize_plan(result)
    for segment in json.loads(text)["robots"][0]["segments"]:
        print(f"  [{segment['t0']}, {segment['t1']}] {segment['kind']}")

    certificate = certify_separation(result.path)
    print()
    print(f"separation certificate: {'PASS' if certificate.passed else 'FAIL'}")
    for pair in certificate.pairs:
        print(
            f"  {pair.kind} ({pair.first},{pair.second}): "
            f"sampled min {pair.sampled_min:.4f}, certified > {pair.certified_lower_bound:.4f}"
        )

    # the motion really ends where it should
    assert np.allclose(result.path.configuration(1.0), query.goals, atol=1e-9)

    (OUT / "crossing.json").write_text(text)
    (OUT / "crossing.svg").write_text(render_svg(result))
    print()
    print(f"wrote {OUT / 'crossing.json'} and {OUT / 'crossing.svg'}")


if __name__ == "__main__":
    main()
