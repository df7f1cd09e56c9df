"""Seeded corpus of problem-JSON texts for the benchmark workloads.

The generator uses numpy only, never ``parammp.random_query`` or any other
library code, so a change to the library cannot shift the inputs.  Every
workload lays its queries out in a fixed interleaved cycle of *variants*
(size, dimension, frame mode, coordinate kind), so any prefix of a corpus
has the same mix whatever the seed.

On the verify workloads the cost of an op is set mostly by the order of the
points' projections on the frame line, which fixes the swap sequence.  That
order is drawn once per corpus position from a stream that does not depend
on the seed; the seed draws the geometry that realizes it: the projection
values, the perpendicular coordinates and, in obstacle-pair mode, the
direction of the frame line.  Every seed thus asks for the same swaps on
different inputs, which keeps run-to-run figures steady.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

FLOAT = "float"  # uniform floats: generic, no projection coincidences
GRID = "grid"  # projections on half-units in [-3, 3]: coincidences are common
NEAR = "near"  # floats with several starts on the hyperplane through
# obstacle 0 perpendicular to o1 - o0: near-degenerate, not on any grid

GRID_HALF_UNITS = 6  # grid values are k / 2 for k in [-6, 6]
FLOAT_SPAN = 10.0
ORDER_STREAM = 7  # keeps the seed-independent order stream apart


@dataclass(frozen=True)
class Variant:
    n: int
    m: int
    d: int
    mode: str  # "fixed" or "obstacle-pair", as written in the problem JSON
    kind: str


def _mode(d: int, m: int) -> str:
    return "obstacle-pair" if d % 2 == 0 and m >= 2 else "fixed"


def _verify_small_cycle() -> list[Variant]:
    # n, m in 1..4 and d in {2, 3, 4}; float and grid alternate.
    return [
        Variant(n, m, d, _mode(d, m), kind)
        for n in range(1, 5)
        for m in range(1, 5)
        for d in (2, 3, 4)
        for kind in (FLOAT, GRID)
    ]


def _verify_swaps_cycle() -> list[Variant]:
    # n = m in 5..8; d = 3 fixed alternates with d = 4 obstacle-pair; three
    # float queries to every grid query.  Each of the 32 combinations occurs
    # once per cycle, and every 8 consecutive queries hold all (n, d) pairs.
    kinds = (FLOAT, FLOAT, GRID, FLOAT)
    out = []
    for i in range(32):
        d = (3, 4)[i % 2]
        n = 5 + (i // 2) % 4
        out.append(Variant(n, n, d, _mode(d, n), kinds[(i + i // 8) % 4]))
    return out


def _classify_large_cycle() -> list[Variant]:
    # n = m in {50, 100, 200}; d = 3 fixed; d = 2 and d = 4 obstacle-pair,
    # half of those near-degenerate.  The size changes every query, and each
    # (size, shape) pair occurs once per cycle of 18.
    sizes = (50, 100, 200)
    shapes = [(3, FLOAT), (4, NEAR), (2, FLOAT), (3, FLOAT), (2, NEAR), (4, FLOAT)]
    out = []
    for i in range(len(sizes) * len(shapes)):
        n = sizes[i % len(sizes)]
        d, kind = shapes[(i % len(sizes) + i // len(sizes)) % len(shapes)]
        out.append(Variant(n, n, d, _mode(d, n), kind))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    op: str  # "verify" or "classify"
    cycle: tuple[Variant, ...]
    cycles: int  # corpus length is cycles * len(cycle)
    block: int  # every run of this many consecutive ops has the same mix
    salt: int  # keeps the workloads' random streams apart

    @property
    def size(self) -> int:
        return self.cycles * len(self.cycle)

    def variant(self, index: int) -> Variant:
        return self.cycle[index % len(self.cycle)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-small", "verify", tuple(_verify_small_cycle()), 6, 96, 1),
        Workload("verify-swaps", "verify", tuple(_verify_swaps_cycle()), 8, 8, 2),
        Workload("classify-large", "classify", tuple(_classify_large_cycle()), 8, 3, 3),
    )
}


def _distinct_rows(points: np.ndarray) -> bool:
    return len(np.unique(points, axis=0)) == len(points)


def _valid(starts, goals, obstacles) -> bool:
    """The structural rules of a query: distinct starts, distinct goals,
    distinct obstacles, and no robot position on an obstacle."""
    return (
        _distinct_rows(starts)
        and _distinct_rows(goals)
        and _distinct_rows(np.concatenate([starts, obstacles]))
        and _distinct_rows(np.concatenate([goals, obstacles]))
    )


def _near_starts(rng, starts, obstacles) -> np.ndarray:
    """Move every tenth start (at least four) onto the hyperplane through
    obstacle 0 perpendicular to o1 - o0.  The float result sits within
    rounding of the plane, which is the near-degenerate case."""
    o0, w = obstacles[0], obstacles[1] - obstacles[0]
    starts = starts.copy()
    count = max(4, len(starts) // 10)
    for i in rng.choice(len(starts), size=count, replace=False):
        v = starts[i] - o0
        starts[i] = o0 + (v - (v @ w) / (w @ w) * w)
    return starts


def _grid(rng, shape) -> np.ndarray:
    return rng.integers(-GRID_HALF_UNITS, GRID_HALF_UNITS + 1, size=shape) / 2.0


def _floats(rng, shape) -> np.ndarray:
    return rng.uniform(-FLOAT_SPAN, FLOAT_SPAN, size=shape)


def _random_points(rng, variant: Variant):
    """Uniform float points, with near-degenerate starts for NEAR variants."""
    while True:
        starts = _floats(rng, (variant.n, variant.d))
        goals = _floats(rng, (variant.n, variant.d))
        obstacles = _floats(rng, (variant.m, variant.d))
        if variant.kind == NEAR:
            starts = _near_starts(rng, starts, obstacles)
        if _valid(starts, goals, obstacles):
            return starts, goals, obstacles


def _levels(workload: "Workload", index: int) -> np.ndarray:
    """Seed-independent projection order of the 2n + m points (starts, then
    goals, then obstacles): distinct ranks for FLOAT variants, half-unit
    values with ties for GRID ones.  Orders repeat with the variant cycle,
    so every cycle of a corpus asks for the same swaps.  In obstacle-pair
    mode obstacle 0 gets the lowest obstacle level and obstacle 1 the
    highest, because the frame line points from obstacle 0 to obstacle 1."""
    variant = workload.variant(index)
    position = index % len(workload.cycle)
    rng = np.random.default_rng([workload.salt, ORDER_STREAM, position])
    n, m = variant.n, variant.m
    while True:
        if variant.kind == GRID:
            levels = _grid(rng, 2 * n + m)
        else:
            levels = rng.permutation(2 * n + m)
        if variant.mode == "fixed":
            return levels
        obstacle_levels = levels[2 * n:]
        low, high = int(np.argmin(obstacle_levels)), int(np.argmax(obstacle_levels))
        if obstacle_levels[low] == obstacle_levels[high]:
            continue
        rest = [k for k in range(m) if k not in (low, high)]
        levels[2 * n:] = obstacle_levels[[low, high] + rest]
        return levels


def _orthogonal(u: np.ndarray) -> np.ndarray:
    """Rows spanning the complement of u (d = 2 or 4), integer when u is."""
    if len(u) == 2:
        a, b = u
        return np.array([[-b, a]])
    a, b, c, d = u  # u times the quaternion units i, j, k
    return np.array([[-b, a, d, -c], [-c, -d, a, b], [-d, c, -b, a]])


def _ordered_points(rng, variant: Variant, levels: np.ndarray):
    """Points whose projections on the frame line follow ``levels``.

    GRID points keep every coordinate a half-unit multiple, so float
    projections are exact and ties stay ties in the obstacle-pair frame too.
    """
    n, d = variant.n, variant.d
    count = len(levels)
    while True:
        if variant.kind == GRID:
            along, draw = levels, _grid
        else:
            along, draw = np.sort(_floats(rng, count))[levels], _floats
        if variant.mode == "fixed":
            points = np.column_stack([along, draw(rng, (count, d - 1))])
        else:
            if variant.kind == GRID:
                u = rng.integers(-2, 3, size=d).astype(float)
            else:
                u = rng.normal(size=d)
                u /= np.linalg.norm(u)
            if not u.any():
                continue
            offsets = draw(rng, (count, d - 1))
            offsets[2 * n + 1] = offsets[2 * n]  # obstacle 1 on the frame line
            points = draw(rng, d) + along[:, None] * u + offsets @ _orthogonal(u)
        starts, goals, obstacles = points[:n], points[n:2 * n], points[2 * n:]
        if _valid(starts, goals, obstacles):
            return starts, goals, obstacles


def problem_text(variant: Variant, starts, goals, obstacles) -> str:
    return json.dumps(
        {
            "version": "1",
            "dim": variant.d,
            "mode": variant.mode,
            "starts": starts.tolist(),
            "goals": goals.tolist(),
            "obstacles": obstacles.tolist(),
            "options": {"snap_tolerance": 0.0, "samples_per_segment": 64},
        }
    )


def generate(workload: Workload, seed: int) -> list[str]:
    """The workload's corpus for ``seed``: the same seed gives byte-identical
    texts."""
    rng = np.random.default_rng([workload.salt, seed])
    texts = []
    for i in range(workload.size):
        variant = workload.variant(i)
        if workload.op == "verify":  # the swaps are fixed, see above
            points = _ordered_points(rng, variant, _levels(workload, i))
        else:
            points = _random_points(rng, variant)
        texts.append(problem_text(variant, *points))
    return texts


# The query every fresh interpreter runs when set-up time is measured.
SETUP_PROBLEM = json.dumps(
    {
        "version": "1",
        "dim": 3,
        "mode": "fixed",
        "starts": [[0.0, 1.0, 0.0]],
        "goals": [[2.0, 0.0, 1.0]],
        "obstacles": [[1.0, 0.0, 0.0]],
        "options": {"snap_tolerance": 0.0, "samples_per_segment": 64},
    }
)


def properties(workload: Workload, texts: list[str]) -> dict:
    """Input properties of a corpus, as recorded for each workload.

    Degeneracy is judged by ``classify_oracle`` (exact arithmetic), so this
    one function imports the library; generation above does not.
    """
    from parammp import formats, geometry, planner, verification

    sizes: dict[str, int] = {}
    degenerate = 0
    for text in texts:
        document = formats.parse_problem(text)
        query = document.to_query()
        mode = document.frame_mode() or planner.default_mode(query)
        label = verification.classify_oracle(query, geometry.make_frame(query, mode))
        degenerate += label.j < 2 * query.robot_count
        key = f"n={query.robot_count},m={query.obstacle_count},d={query.dim}"
        sizes[key] = sizes.get(key, 0) + 1
    variants = [workload.variant(i) for i in range(len(texts))]
    total = len(texts)
    return {
        "problems": total,
        "sizes": dict(sorted(sizes.items())),
        "degenerate_share": degenerate / total,
        "obstacle_pair_share": sum(v.mode == "obstacle-pair" for v in variants) / total,
        "near_degenerate_share": sum(v.kind == NEAR for v in variants) / total,
        "grid_share": sum(v.kind == GRID for v in variants) / total,
    }
