"""Obstacle-pair frames in even dimensions: one domain fewer.

In even dimensions the projection line can follow the obstacles themselves:
it points from obstacle 0 to obstacle 1, and a quarter-turn isometry supplies
a perpendicular direction that varies continuously with the line.  Those two
obstacles then never share a projection value, so the degenerate t = 1 cell
disappears and the planner runs on 2n+m-1 domains instead of 2n+m.

We rotate an obstacle pair around a circle and watch the frame track it, then
verify the domain range reached on random queries.
"""

import pathlib

import numpy as np

from parammp import (
    ConfigurationQuery,
    certify_separation,
    check_partition,
    make_frame,
    plan,
    render_svg,
)

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)


def main():
    print("frame direction tracks the obstacle pair continuously:")
    for angle in np.linspace(0, np.pi, 5):
        o2 = [2.0 * np.cos(angle), 2.0 * np.sin(angle)]
        query = ConfigurationQuery(
            starts=[[5.0, 5.0]], goals=[[-5.0, -5.0]], obstacles=[[0.0, 0.0], o2]
        )
        frame = make_frame(query, "obstacle_pair")
        print(
            f"  obstacle 1 at angle {angle:5.2f}: e = ({frame.e[0]:+.3f}, {frame.e[1]:+.3f}),"
            f" e_perp = ({frame.e_perp[0]:+.3f}, {frame.e_perp[1]:+.3f})"
        )

    print()
    report = check_partition(1, 2, 2, mode="obstacle_pair", trials=2000, seed=3)
    print("2000 random planar queries, obstacle-pair mode:")
    for c in sorted(report.histogram):
        print(f"  c = {c}: {report.histogram[c]}")
    print("indices never drop below 2: the t = 1 cell cannot occur.")

    query = ConfigurationQuery(
        starts=[[-1.0, 0.5]], goals=[[2.0, 0.7]], obstacles=[[0.0, 0.0], [1.0, 0.0]]
    )
    result = plan(query)  # auto-selects obstacle-pair mode in even dimension
    certificate = certify_separation(result.path)
    print()
    print(
        f"sample planar plan: mode={result.mode.value}, c={result.domain_index}, "
        f"swaps={result.swap_count}, certified={'yes' if certificate.passed else 'no'}"
    )
    (OUT / "even_dimension.svg").write_text(render_svg(result))
    print(f"wrote {OUT / 'even_dimension.svg'}")


if __name__ == "__main__":
    main()
