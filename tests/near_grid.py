"""The near-grid scoreboard: how the planner and the certifier fare on small
queries whose points lie within a rounding error of a half-unit grid.

Such queries are where the planner still makes separations below an ulp of
the coordinates.  Each draw, from ``rng = default_rng(seed)``, takes
``n = rng.integers(1, 4)`` robots and ``m = rng.integers(2, 4)`` obstacles in
the plane, then ``pts = rng.integers(-6, 7, (2n + m, 2)) / 2 +
rng.choice(jitters, (2n + m, 2))``: starts, goals and obstacles are the rows
``[:n]``, ``[n:2n]`` and ``[2n:]``.  Two recipes (:data:`RECIPES`):

- ``seed-5``: jitters (0, 1e-12, -1e-12, 3e-13), the default frame mode,
  40,000 draws, every tenth draw certified at 64 samples per segment;
- ``seed-11``: jitters (0, 1e-12, -1e-12, 3e-13, 1e-15), the obstacle-pair
  frame, 30,000 draws, every draw certified at 16 samples per segment.

Each draw has one outcome: ``invalid`` (the query is rejected), ``refused``
(``plan`` raises), ``pass``, ``false failure`` (the certificate fails, but
every sampled distance is positive), ``zero distance`` (the certificate
fails and some sampled distance is 0.0), or ``planned`` (a draw that is not
certified).  The script prints one line per draw that is not a pass or
planned: the draw, n, m, its outcome, its smallest ``sampled_min`` and
certified bound (or the error), and whether the query is well separated,
that is whether its starts, goals and obstacles are all at least 0.1 apart
(start-start, goal-goal, start-obstacle and goal-obstacle).  A summary of
the counts by outcome closes the output:

    PYTHONPATH=src python tests/near_grid.py seed-11

The counts at the commit that added this script:

- ``seed-5``: 3,970 pass and 6 false failures (draws 3350, 11720, 19010,
  22400, 25370 and 29010), 40 refused, 207 invalid.
- ``seed-11``: 29,565 pass, 246 false failures, 9 zero distance, 58
  refused and 122 invalid.

``tests/test_near_grid.py`` runs the first draws of ``seed-11`` on every
test run, with their non-passing draws pinned.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import NamedTuple

import numpy as np

from parammp import ConfigurationQuery, FrameMode, ParammpError, QueryValidationError
from parammp import certify_separation, plan


class Recipe(NamedTuple):
    seed: int
    jitters: tuple[float, ...]
    mode: FrameMode | None  # None: the default mode of each query
    draws: int
    every: int  # certify every draw whose index is a multiple of this
    samples: int


RECIPES = {
    "seed-5": Recipe(5, (0.0, 1e-12, -1e-12, 3e-13), None, 40_000, 10, 64),
    "seed-11": Recipe(
        11, (0.0, 1e-12, -1e-12, 3e-13, 1e-15), FrameMode.OBSTACLE_PAIR, 30_000, 1, 16
    ),
}

OUTCOMES = ("pass", "false failure", "zero distance", "refused", "invalid", "planned")


class Draw(NamedTuple):
    index: int
    n: int
    m: int
    outcome: str
    detail: str
    separated: bool


def queries(recipe: Recipe, draws: int | None = None):
    """(index, n, m, points) of each draw of ``recipe``: starts, goals and
    obstacles are the rows [:n], [n:2n] and [2n:] of points."""
    rng = np.random.default_rng(recipe.seed)
    jitters = np.array(recipe.jitters)
    for index in range(recipe.draws if draws is None else draws):
        n, m = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        shape = (2 * n + m, 2)
        yield index, n, m, rng.integers(-6, 7, shape) / 2 + rng.choice(jitters, shape)


def _well_separated(points: np.ndarray, n: int) -> bool:
    """Whether starts, goals and obstacles keep 0.1 apart: start-start,
    goal-goal, start-obstacle and goal-obstacle."""
    starts, goals, obstacles = points[:n], points[n : 2 * n], points[2 * n :]
    apart = [
        np.linalg.norm(x[:, None] - y[None], axis=-1)
        for x, y in ((starts, obstacles), (goals, obstacles))
    ]
    for group in (starts, goals):
        gaps = np.linalg.norm(group[:, None] - group[None], axis=-1)
        apart.append(gaps[np.triu_indices(n, 1)])
    return all(gap.min(initial=np.inf) >= 0.1 for gap in apart)


def run_draw(recipe: Recipe, index: int, n: int, m: int, points: np.ndarray) -> Draw:
    """The outcome of one draw, as the module docstring defines it."""
    separated = _well_separated(points, n)
    try:
        query = ConfigurationQuery(
            starts=points[:n], goals=points[n : 2 * n], obstacles=points[2 * n :]
        )
    except QueryValidationError as exc:
        return Draw(index, n, m, "invalid", str(exc), separated)
    try:
        result = plan(query, mode=recipe.mode)
    except ParammpError as exc:
        return Draw(index, n, m, "refused", f"{type(exc).__name__}: {exc}", separated)
    if index % recipe.every:
        return Draw(index, n, m, "planned", "", separated)
    pairs = certify_separation(result.path, recipe.samples).pairs
    low = min(p.sampled_min for p in pairs)
    bound = min(p.certified_lower_bound for p in pairs)
    if bound > 0.0:
        outcome = "pass"
    else:
        outcome = "zero distance" if low == 0.0 else "false failure"
    return Draw(index, n, m, outcome, f"sampled_min {low:.3g} bound {bound:.3g}", separated)


def main(argv: list[str]) -> None:
    if len(argv) != 1 or argv[0] not in RECIPES:
        raise SystemExit(f"usage: near_grid.py {{{','.join(RECIPES)}}}")
    recipe = RECIPES[argv[0]]
    counts: Counter[str] = Counter()
    separated: Counter[str] = Counter()
    for index, n, m, points in queries(recipe):
        draw = run_draw(recipe, index, n, m, points)
        counts[draw.outcome] += 1
        separated[draw.outcome] += draw.separated
        if draw.outcome not in ("pass", "planned"):
            well = "well separated" if draw.separated else "close"
            print(f"{draw.index} n={draw.n} m={draw.m} {draw.outcome}: {draw.detail} ({well})")
    for outcome in OUTCOMES:
        print(f"{outcome}: {counts[outcome]} ({separated[outcome]} well separated)")


if __name__ == "__main__":
    main(sys.argv[1:])
