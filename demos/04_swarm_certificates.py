"""Certified separation for a small swarm.

Plan a batch of random two-robot queries among two obstacles, certify every
pairwise distance along every path, and show what the certificate looks like
when a motion is genuinely unsafe (a hand-built straight line through an
obstacle).
"""


import numpy as np

from parammp import (
    ConfigurationQuery,
    PiecewisePath,
    certify_separation,
    line_row,
    plan,
    random_query,
)


def main():
    rng = np.random.default_rng(123)
    print("20 random (n=2, m=2, d=3) queries:")
    worst = np.inf
    for k in range(20):
        query = random_query(rng, 2, 2, 3)
        result = plan(query, mode="fixed")
        certificate = certify_separation(result.path)
        worst = min(worst, certificate.min_certified)
        print(
            f"  #{k:02d}: c={result.domain_index}, swaps={result.swap_count}, "
            f"certified min separation > {certificate.min_certified:.4f}"
        )
        assert certificate.passed
    print(f"weakest certified bound in the batch: {worst:.4f}")

    print()
    print("a hand-built motion straight through an obstacle fails loudly:")
    query = ConfigurationQuery(
        starts=[[-1.0, 0.0]], goals=[[1.0, 0.0]], obstacles=[[0.0, 0.0]]
    )
    # one robot, one segment: ticks 0 to 1 over the denominator 1
    reckless = PiecewisePath.from_rows(
        query, 1, [[(0, 1, line_row([-1.0, 0.0], [1.0, 0.0]))]]
    )
    certificate = certify_separation(reckless)
    pair = certificate.pair("robot-obstacle", 0, 0)
    print(
        f"  certificate pass = {certificate.passed}; sampled min {pair.sampled_min:.3f},"
        f" certified lower bound {pair.certified_lower_bound:.3f}"
    )
    print("the planner's own route for the same query:")
    result = plan(query, mode="fixed")
    certificate = certify_separation(result.path)
    print(
        f"  certificate pass = {certificate.passed}; "
        f"min certified separation {certificate.min_certified:.4f}"
    )


if __name__ == "__main__":
    main()
