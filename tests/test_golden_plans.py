"""Golden digests of serialized plans and of their separation certificates.

A refactor that must not change any emitted plan or certificate keeps every
sha256 below.  A change that alters them on purpose re-records them and says
so; running this module as a script prints the current digests:

    PYTHONPATH=src python tests/test_golden_plans.py

With ``--corpus`` it prints one line per document of a wider corpus instead
(:func:`corpus_lines`), so that a diff of two checkouts' outputs shows every
plan or certificate float a change moved:

    PYTHONPATH=src python tests/test_golden_plans.py --corpus > after.txt
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from parammp import (
    CaseASwap,
    CaseBSwap,
    ConfigurationQuery,
    FrameMode,
    certify_separation,
    degenerate_query,
    parse_problem,
    plan,
    random_query,
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
# schedule; that change left every plan byte-identical.  The obstacle-pair
# digests float-d2-pair, float-d4-pair and grid-d4-pair were re-recorded when
# the swaps began placing robots along e by the sweep's comparison values over
# |axis| instead of projecting on e: their floats moved at rounding level.
DIGESTS = {
    "degenerate-d4-pair": "2bec55e8bda69e77affd8218e30f6c22fce40d2b66a72cae1f5fb9e1a7860f21",
    "float-d2-fixed": "f6c22caf5704361f703f227641b971493eb3fb429071c5e5c09a8a1bb67369a3",
    "float-d2-pair": "40956d267a01177004e75fd46ec89e16f3da5e814d0e1fc72698268dbe573310",
    "float-d3-both-kinds": "f5e8c5cd16069ff045358184ea573d48de9a79b4ab615cc16f37ee3827049ec3",
    "float-d3-fixed": "c997b1c3737107604e79ace95e3c334e90e7e1ca005fb78aa347f71229ec4e8d",
    "float-d4-fixed": "ed4d10d5c6b8eb1a7eeddd68fdf6f471cc53c0c392bcae79c3c1e0009ffee1c1",
    "float-d4-pair": "5e23282123d26f0d7dd4cfbffc85c0627e9d3e077f494ed16d5a0c01edb199d0",
    "grid-d2-fixed": "7a339edb6ab36cbfe5d39693ae4e6d791814eb4b695f8b77aa5a2ed55de3e5f4",
    "grid-d2-pair": "17f3c59c8ed70f053d3abce7374cbd6c851df9c6c93ec542957444e8b5e23ea4",
    "grid-d3-both-kinds": "65fd821b3373ed099d682eb893f509501132360e03307c6d136ba11ef3f1cbf9",
    "grid-d3-fixed": "4bfdc6cf9af0901bc49445751f3bbea87da27f47d2d310f662b91ac9264b885d",
    "grid-d4-pair": "756e7a7a72b5ae4f9c0a0a0a7439ca0162ac1feda268e45c52b81fa33b4f5f40",
    "grid-n8-d3-fixed": "986a9abe555c612dd67f1b09fee3af223e2cdd06a06a0b51bf6c567e5128f162",
}


# The plan cases, and one whose certificate spans many blocks of work.
CERTIFICATE_CASES = {
    **{name: case[:2] for name, case in CASES.items()},
    "float-n20-d3-fixed": (_query(13, 20, 20, 3, False), FIXED),
}

# Recorded at the commit before certification evaluated each segment once per
# window bound; float-d2-pair and float-d4-pair re-recorded with the plans.
CERTIFICATE_DIGESTS = {
    "degenerate-d4-pair": "b9a45ca057c84f89b0134163fcad81b86725d5a79ba9a3d61d3d2ca31e303b36",
    "float-d2-fixed": "8216abb9fe74cc6ebd6f3376740d1cc7b01a6692a8014436f1467c5cfc3a9e1d",
    "float-d2-pair": "7977c1dd0cbecaed91687fb18e40207eb3edd0f3a01376c8e5fc274377806c92",
    "float-d3-both-kinds": "00846871193a283f9f51b71617b40d08bafcf42fdcdf98faaa5b415c535e0e63",
    "float-d3-fixed": "7ae64d5471f83e638ea17fe92bd33e9d9b94259ac512fcba5410480d94e44bf0",
    "float-d4-fixed": "c1c114683d0288a1cfc0a7e0c7b2c4c8a1c21bb3aa5ff03427505197896f95e3",
    "float-d4-pair": "2794a53a327791d58465a09d2ec9a47a6d005abbfd56ea780e663898b7e763fb",
    "float-n20-d3-fixed": "c9f518e58baf7ee989c39650687b85126bcc67761da726c5d9cfa95314debe98",
    "grid-d2-fixed": "2e9bc97748372f56fcedced5ba6f49c8686f76f7bb8e9d6f7df4c31619c4a951",
    "grid-d2-pair": "89614a0f09a3a3af41968e9b71fee619235d40aa6c471b39b6e12337c7f999da",
    "grid-d3-both-kinds": "768f57a06c7423e6622486a19e6e6658847d5c291e7f574946e195f9864a8048",
    "grid-d3-fixed": "fe0961df3e9cf2611a5c606b7642ea4e32b8205f6386429c841d66f9e1eeb2d9",
    "grid-d4-pair": "45a326a3532a8a63936ee9d1422d123c6ca4b4bb7cc66f9674a7d3601cae102f",
    "grid-n8-d3-fixed": "45b4b8b988dbc49679f50b0812301539bd2ce98e093db48decc851bafc1c39c9",
}


def _digest(query, mode) -> str:
    return hashlib.sha256(serialize_plan(plan(query, mode)).encode()).hexdigest()


def _certificate_digest(query, mode) -> str:
    """Over every pair's kind, indices and both floats, exactly (hex), at
    64 samples per segment."""
    pairs = certify_separation(plan(query, mode).path, samples_per_segment=64).pairs
    text = "".join(
        f"{p.kind} {p.first} {p.second} {p.sampled_min.hex()} {p.certified_lower_bound.hex()}\n"
        for p in pairs
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_plan_digest_is_unchanged(name):
    query, mode, degenerate, both_kinds = CASES[name]
    result = plan(query, mode)
    assert (result.region.j < 2 * query.robot_count) == degenerate
    if both_kinds:
        assert {type(s) for s in result.swaps} == {CaseASwap, CaseBSwap}
    assert _digest(query, mode) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CERTIFICATE_CASES))
def test_certificate_digest_is_unchanged(name):
    assert _certificate_digest(*CERTIFICATE_CASES[name]) == CERTIFICATE_DIGESTS[name]


def _corpus_line(name: str, query, mode) -> str:
    """The sha256 of the plan's ``serialize_plan`` text, then every pair's
    sampled_min and certified_lower_bound in float hex, at 64 samples; or
    the exception, for a query that does not plan."""
    try:
        result = plan(query, mode)
    except Exception as exc:
        return f"{name} {type(exc).__name__}: {exc}"
    digest = hashlib.sha256(serialize_plan(result).encode()).hexdigest()
    pairs = certify_separation(result.path, samples_per_segment=64).pairs
    floats = " ".join(f"{p.sampled_min.hex()}/{p.certified_lower_bound.hex()}" for p in pairs)
    return f"{name} {digest} {floats}"


def corpus_lines():
    """One line per document: the benchmark's verify-small and verify-swaps
    corpora at seeds 1-3 (bench/corpus.py), then random_query(default_rng(0),
    n, n, 3) at n = 20 and 50, in fixed mode."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import corpus

    for workload in ("verify-small", "verify-swaps"):
        for seed in (1, 2, 3):
            texts = corpus.generate(corpus.WORKLOADS[workload], seed)
            for index, text in enumerate(texts):
                document = parse_problem(text)
                name = f"{workload}/{seed}/{index}"
                yield _corpus_line(name, document.to_query(), document.frame_mode())
    for n in (20, 50):
        query = random_query(np.random.default_rng(0), n, n, 3)
        yield _corpus_line(f"random/{n}", query, FIXED)


if __name__ == "__main__" and sys.argv[1:] == ["--corpus"]:
    for line in corpus_lines():
        print(line)
elif __name__ == "__main__":
    for name in sorted(CASES):
        query, mode, _, _ = CASES[name]
        print(f'    "{name}": "{_digest(query, mode)}",')
    print()
    for name in sorted(CERTIFICATE_CASES):
        print(f'    "{name}": "{_certificate_digest(*CERTIFICATE_CASES[name])}",')
