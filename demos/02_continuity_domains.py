"""The continuity-domain census.

The planner is a single rule assembled from 2n+m continuous pieces: queries
whose projections show j robot-only values and t obstacle values share the
piece c = j + t.  Here we construct one query for every reachable (j, t) cell
with one robot and two obstacles, plan it, and tabulate the domain
indices; random queries then land in the full-measure top cell c = 2n+m.
"""

import numpy as np

from parammp import (
    FrameMode,
    check_partition,
    classify,
    degenerate_query,
    make_frame,
    plan,
)

N, M, D = 1, 2, 3


def main():
    print(f"n={N} robot(s), m={M} obstacle(s), d={D}")
    print()
    print(" j  t  ->  c   swaps")
    reached = set()
    for j in range(0, 2 * N + 1):
        for t in range(1, M + 1):
            query = degenerate_query(N, M, D, j, t)
            result = plan(query, mode="fixed")
            reached.add(result.domain_index)
            print(f" {j}  {t}  ->  {result.domain_index}   {result.swap_count}")
    print()
    print(f"domain indices reached: {sorted(reached)} (expected 1..{2 * N + M})")

    report = check_partition(N, M, D, mode="fixed", trials=2000, seed=42)
    print()
    print("2000 random queries classify as:")
    for c in sorted(report.histogram):
        print(f"  c = {c}: {report.histogram[c]} queries")
    print("(random projections are almost surely pairwise distinct,")
    print(" so everything lands in the generic top cell)")

    # sanity: classification is what plan() reports
    query = degenerate_query(N, M, D, 1, 2)
    frame = make_frame(query, FrameMode.FIXED)
    assert classify(query, frame).c == plan(query, mode="fixed").domain_index


if __name__ == "__main__":
    main()
