"""Golden digests of serialized plans and of their separation certificates.

A refactor that must not change any emitted plan or certificate keeps every
sha256 below.  A change that alters them on purpose re-records them and says
so; running this module as a script prints the current digests:

    PYTHONPATH=src python tests/test_golden_plans.py

With ``--corpus`` it prints one line per document of a wider corpus instead
(:func:`corpus_lines`), so that a diff of two checkouts' outputs shows every
plan or certificate float, and every region label or tie table of the
classify corpus, that a change moved:

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
    classify,
    default_mode,
    degenerate_query,
    geometry,
    make_frame,
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

# Re-recorded, all of them, when every entry with no arc took the segment
# bound alone: only certified_lower_bound moved, no sampled_min and no plan.
CERTIFICATE_DIGESTS = {
    "degenerate-d4-pair": "83502941bca78ab9b4b5dfe2a764a75756bb7648bd022623c5faac328d5130c7",
    "float-d2-fixed": "3c3481acdf11b44cb785ecd63991186fa974989560b63dbb8cc7b72940485f62",
    "float-d2-pair": "b8598f018e902b18424ddc6d4cd2901c9abd378882a5be26bdb952d0bbcbce7b",
    "float-d3-both-kinds": "bfe06527c8285b5e077c7b69abb16e96721c6a823b819053be345eda68078551",
    "float-d3-fixed": "1f38f1683949e53ee52c9bfb7c6fb5d36c2429fb47faf35ab26700ef5d44c4e2",
    "float-d4-fixed": "c9664d571510aa3d5fbb2fafe7ac469bd30cd3f954f297f85cb7a0011d944f28",
    "float-d4-pair": "4df5da049b542662e1d05e7f41c9341e717706adb447be89edfe24bbd180a76e",
    "float-n20-d3-fixed": "3214136069f040e173cdaccc140f31f9ee1b5ba45cf1155e2d74ad0520308189",
    "grid-d2-fixed": "c6d9633a6c190c90b3724615845a0bd2d942b227612354099e102fa65ad6ebbc",
    "grid-d2-pair": "d0ed7f556d8530a2e557657146c18b1f05ee7e08443035581cf4704f007c441d",
    "grid-d3-both-kinds": "3aa062b715ac73513109713fdb090e3bf7f8bb7f1a88331ad212df6f73d7c72f",
    "grid-d3-fixed": "05ca2b1059b4ddb0c1c590554f4dfff0d3c9f7a8e93feaf09aa6c9585cb49dbf",
    "grid-d4-pair": "3a017341ce039f5d6ac78d0d94186e3456e4bc4d2738bc44a88f216ba6c74050",
    "grid-n8-d3-fixed": "693d8d7aafd5a034a58a1e7e5c180d4323461e489e8f8470e0aba73fbb757633",
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


def _classify_line(name: str, document) -> str:
    """The frame mode, the region label (j, t, c) and the sha256 of the tie
    table's values and ranks, as ``parammp classify`` works them out; or the
    exception, for a document that does not classify."""
    try:
        query = document.to_query()
        frame = make_frame(query, document.frame_mode() or default_mode(query))
        label = classify(query, frame, document.options.snap_tolerance)
        values, rank = geometry._ties(query, frame, document.options.snap_tolerance)
    except Exception as exc:
        return f"{name} {type(exc).__name__}: {exc}"
    digest = hashlib.sha256(values.tobytes() + rank.tobytes()).hexdigest()
    return f"{name} {frame.mode.value} {label.j} {label.t} {label.c} {digest}"


def corpus_lines():
    """One line per document: the benchmark's verify-small and verify-swaps
    corpora at seeds 1-3 (bench/corpus.py), then random_query(default_rng(0),
    n, n, 3) at n = 20 and 50, in fixed mode, then the classify-large corpus
    at seeds 1-3 (:func:`_classify_line`), after the plan lines so that those
    keep their places in a diff against a checkout without it."""
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
    for seed in (1, 2, 3):
        texts = corpus.generate(corpus.WORKLOADS["classify-large"], seed)
        for index, text in enumerate(texts):
            yield _classify_line(f"classify-large/{seed}/{index}", parse_problem(text))


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
