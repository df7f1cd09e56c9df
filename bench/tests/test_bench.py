"""Tests of the benchmark itself: corpus determinism, self-time arithmetic,
trace transparency and the output contract of ``run.py``.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import corpus  # noqa: E402
import ops  # noqa: E402
import tracing  # noqa: E402
from parammp import planner  # noqa: E402
from tracing import Span  # noqa: E402

@pytest.mark.parametrize("name", sorted(corpus.WORKLOADS))
def test_same_seed_gives_byte_identical_corpus(name):
    workload = corpus.WORKLOADS[name]
    assert corpus.generate(workload, 7) == corpus.generate(workload, 7)


@pytest.mark.parametrize("name", sorted(corpus.WORKLOADS))
def test_different_seeds_give_different_corpora_with_same_properties(name):
    workload = corpus.WORKLOADS[name]
    first, second = corpus.generate(workload, 1), corpus.generate(workload, 2)
    assert all(a != b for a, b in zip(first, second))
    # One variant cycle holds every variant once; validating large queries
    # is slow at the seed, so the properties are compared on one cycle.
    cycle = len(workload.cycle)
    assert corpus.properties(workload, first[:cycle]) == corpus.properties(
        workload, second[:cycle]
    )


def test_only_the_seeds_known_defects_are_soft():
    small, swaps, large = (
        corpus.WORKLOADS[name] for name in ("verify-small", "verify-swaps", "classify-large")
    )
    assert ops.known_defects(small, small.variant(0)) == frozenset()
    assert all(
        ops.known_defects(swaps, variant) == {ops.CERTIFICATE} for variant in swaps.cycle
    )
    for variant in large.cycle:
        expected = {ops.ORACLE} if variant.kind == corpus.NEAR else set()
        assert ops.known_defects(large, variant) == expected


def _nested_tree():
    # op [0, 16] > plan [1, 15] > compose [2, 14] > compose [3, 12] > compose [4, 6];
    # a validate span [7, 8] also sits in the middle compose, and a
    # segment_at span [13, 13.5] in the outer one.
    return [
        Span(0, "op", 0.0, 16.0, None, 0),
        Span(1, "planner.plan", 1.0, 15.0, 0, 0),
        Span(2, "deformations.compose", 2.0, 14.0, 1, 0),
        Span(3, "deformations.compose", 3.0, 12.0, 2, 0),
        Span(4, "deformations.compose", 4.0, 6.0, 3, 0),
        Span(5, "geometry.validate", 7.0, 8.0, 3, 0),
        Span(6, "paths.segment_at", 13.0, 13.5, 2, 0),
    ]


def test_self_times_subtract_children_including_recursive_spans():
    assert tracing.self_times(_nested_tree()) == {
        0: 2.0,  # 16 - plan 14
        1: 2.0,  # 14 - compose 12
        2: 2.5,  # 12 - inner compose 9 - segment_at 0.5
        3: 6.0,  # 9 - inner compose 2 - validate 1
        4: 2.0,
        5: 1.0,
        6: 0.5,
    }


def test_self_times_sum_to_the_root_duration():
    spans = _nested_tree()
    assert sum(tracing.self_times(spans).values()) == spans[0].duration


def test_op_trace_folds_recursive_spans_by_name():
    totals = tracing.OpTrace()
    totals.add(_nested_tree())
    assert totals.self_s["deformations.compose"] == 10.5
    assert totals.calls["deformations.compose"] == 3
    assert totals.nested_depth_max == 3
    assert totals.inclusive_s["planner.plan"] == [14.0]


def test_traced_op_gives_identical_output_and_restores_the_library():
    # Two robots that must swap past each other and an obstacle: several
    # nested compositions.
    text = corpus.problem_text(
        corpus.Variant(2, 2, 3, "fixed", corpus.FLOAT),
        np.array([[0.0, 1.0, 0.0], [1.5, -1.0, 0.5]]),
        np.array([[3.0, 0.5, 1.0], [-1.0, 0.0, 2.0]]),
        np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 1.0]]),
    )
    original = planner.swap_case_a
    plain = ops.verify_op(text)
    tracer = tracing.Tracer()
    with tracer.op(0):
        traced = ops.verify_op(text)
    assert plain.error is None and traced.error is None
    assert plain.output == traced.output
    assert planner.swap_case_a is original
    names = {span.name for span in tracer.spans}
    assert {"formats.parse", "planner.plan", "verification.certify"} <= names
    assert tracing.max_depth(tracer.spans, "deformations.compose") >= 2
    # Every parent is a recorded span of the same op.
    ids = {span.id for span in tracer.spans}
    assert all(span.parent in ids for span in tracer.spans if span.parent is not None)


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace),
        ],
        capture_output=True, text=True, timeout=180, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_declared_metric(trace):
    done = _run(ROOT, "verify-small", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = config["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "verify-small", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
