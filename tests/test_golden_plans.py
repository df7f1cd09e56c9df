"""Golden digests of serialized plans.

A refactor that must not change any emitted plan keeps every sha256 below.
A change that alters plans on purpose re-records them and says so; running
this module as a script prints the current digests:

    PYTHONPATH=src python tests/test_golden_plans.py
"""

from __future__ import annotations

import hashlib

import pytest

from parammp import (
    CaseASwap,
    CaseBSwap,
    ConfigurationQuery,
    FrameMode,
    degenerate_query,
    plan,
    serialize_plan,
)

FIXED, PAIR = FrameMode.FIXED, FrameMode.OBSTACLE_PAIR


def _numbers(seed: int, grid: bool):
    """Deterministic coordinates from a linear congruential generator:
    multiples of 1/2 in [-3, 3] on the grid, else multiples of 1/100 in
    [-10, 10]."""
    state = seed
    while True:
        state = (1103515245 * state + 12345) % 2**31
        k = state >> 8
        yield (k % 13 - 6) / 2 if grid else (k % 2001 - 1000) / 100


def _query(seed: int, n: int, m: int, d: int, grid: bool) -> ConfigurationQuery:
    numbers = _numbers(seed, grid)
    rows = [[next(numbers) for _ in range(d)] for _ in range(2 * n + m)]
    return ConfigurationQuery(starts=rows[:n], goals=rows[n : 2 * n], obstacles=rows[2 * n :])


# name: (query, mode, degenerate, both swap kinds)
CASES = {
    "float-d2-fixed": (_query(1, 2, 2, 2, False), FIXED, False, False),
    "float-d2-pair": (_query(2, 2, 3, 2, False), PAIR, False, False),
    "float-d3-fixed": (_query(3, 3, 3, 3, False), FIXED, False, False),
    "float-d4-fixed": (_query(4, 2, 3, 4, False), FIXED, False, False),
    "float-d4-pair": (_query(5, 3, 2, 4, False), PAIR, False, False),
    "float-d3-both-kinds": (_query(6, 5, 4, 3, False), FIXED, False, True),
    "grid-d2-fixed": (_query(7, 3, 2, 2, True), FIXED, True, False),
    "grid-d2-pair": (_query(101, 3, 2, 2, True), PAIR, True, False),
    "grid-d3-fixed": (_query(9, 3, 3, 3, True), FIXED, True, False),
    "grid-d4-pair": (_query(106, 2, 3, 4, True), PAIR, True, False),
    "grid-d3-both-kinds": (_query(11, 5, 4, 3, True), FIXED, True, True),
    "degenerate-d4-pair": (degenerate_query(3, 3, 4, 2, 2, PAIR), PAIR, True, True),
    "grid-n8-d3-fixed": (_query(12, 8, 8, 3, True), FIXED, True, True),
}

# Recorded at the commit before desingularization moved onto the flat
# schedule; that change left every plan byte-identical.
DIGESTS = {
    "degenerate-d4-pair": "2bec55e8bda69e77affd8218e30f6c22fce40d2b66a72cae1f5fb9e1a7860f21",
    "float-d2-fixed": "f6c22caf5704361f703f227641b971493eb3fb429071c5e5c09a8a1bb67369a3",
    "float-d2-pair": "9faa6908a4e4c252a121e15ea2f6bfdfbe7152f4b9803f42c5b3b80a4e432270",
    "float-d3-both-kinds": "f5e8c5cd16069ff045358184ea573d48de9a79b4ab615cc16f37ee3827049ec3",
    "float-d3-fixed": "c997b1c3737107604e79ace95e3c334e90e7e1ca005fb78aa347f71229ec4e8d",
    "float-d4-fixed": "ed4d10d5c6b8eb1a7eeddd68fdf6f471cc53c0c392bcae79c3c1e0009ffee1c1",
    "float-d4-pair": "b9eab4c45cdf4d3aea2d157fec1a9df7927c9abaf98a7ca849c41b2e8e3074ba",
    "grid-d2-fixed": "7a339edb6ab36cbfe5d39693ae4e6d791814eb4b695f8b77aa5a2ed55de3e5f4",
    "grid-d2-pair": "17f3c59c8ed70f053d3abce7374cbd6c851df9c6c93ec542957444e8b5e23ea4",
    "grid-d3-both-kinds": "65fd821b3373ed099d682eb893f509501132360e03307c6d136ba11ef3f1cbf9",
    "grid-d3-fixed": "4bfdc6cf9af0901bc49445751f3bbea87da27f47d2d310f662b91ac9264b885d",
    "grid-d4-pair": "3357014f2453b9a3f67c8f3094814bf9f5adea30c74b31b33ff604731b8c3163",
    "grid-n8-d3-fixed": "986a9abe555c612dd67f1b09fee3af223e2cdd06a06a0b51bf6c567e5128f162",
}


def _digest(query, mode) -> str:
    return hashlib.sha256(serialize_plan(plan(query, mode)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_plan_digest_is_unchanged(name):
    query, mode, degenerate, both_kinds = CASES[name]
    result = plan(query, mode)
    assert (result.region.j < 2 * query.robot_count) == degenerate
    if both_kinds:
        assert {type(s) for s in result.swaps} == {CaseASwap, CaseBSwap}
    assert _digest(query, mode) == DIGESTS[name]


if __name__ == "__main__":
    for name in sorted(CASES):
        query, mode, _, _ = CASES[name]
        print(f'    "{name}": "{_digest(query, mode)}",')
