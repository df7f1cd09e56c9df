"""The first draws of the near-grid scoreboard's ``seed-11`` recipe
(``tests/near_grid.py``): every draw passes or is invalid, except the draws
pinned below, each a strict xfail that names the ROADMAP item that should
mend it.  A pinned draw that starts to pass fails here, and loses its pin in
the change that mends it."""

from __future__ import annotations

from functools import lru_cache

import pytest

from near_grid import RECIPES, queries, run_draw

PREFIX = 300
RECIPE = RECIPES["seed-11"]

# draw: why it does not pass.  Each query is well separated: its points are
# at least 0.1 apart, so the tiny distances come from the plan.
PINNED = {
    12: "items 13 and 15: a false failure, sampled minimum 2.8e-16",
    70: "items 13 and 15: a false failure, sampled minimum 2.7e-15",
    120: "item 15: refused, InternalConsistencyError at swap 6",
    286: "items 13 and 15: a false failure, sampled minimum 4.4e-16",
}


@lru_cache(maxsize=1)
def _draws():
    return {index: run_draw(RECIPE, index, *rest) for index, *rest in queries(RECIPE, PREFIX)}


def test_unpinned_draws_pass_or_are_invalid():
    outcomes = {index: draw.outcome for index, draw in _draws().items() if index not in PINNED}
    assert len(outcomes) == PREFIX - len(PINNED)
    assert {i: o for i, o in outcomes.items() if o not in ("pass", "invalid")} == {}


@pytest.mark.parametrize(
    "index",
    [
        pytest.param(index, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=why))
        for index, why in sorted(PINNED.items())
    ],
)
def test_pinned_draw_passes(index):
    assert _draws()[index].outcome == "pass"
