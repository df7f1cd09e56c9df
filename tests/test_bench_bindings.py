"""The benchmark (``bench/``) reaches the library by name: its tracer
(``bench/tracing.py``) wraps library functions and methods, and its ops
(``bench/ops.py``) call the public functions with the keywords the
``parammp`` command passes.  A rename or a dropped parameter in the library
must fail here, not only in a benchmark run."""

from __future__ import annotations

import importlib.util
import inspect
import sys
from pathlib import Path

from parammp import ConfigurationQuery, FrameMode, plan
from parammp import deformations, geometry, planner, verification

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name, monkeypatch):
    """Run ``bench/<name>.py`` as module ``name``, registered in sys.modules
    for the test's duration: dataclasses look their module up there while
    the module runs, and ``ops`` imports ``corpus`` by name."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves(monkeypatch):
    tracing = _load("tracing", monkeypatch)
    missing = [
        f"{name}: {getattr(owner, '__name__', owner)}.{attr}"
        for name, owner, attr in tracing.TARGETS
        if attr not in owner.__dict__
    ]
    assert not missing


def test_traced_verify_op_builds_one_path_per_plan(monkeypatch):
    # paths.path_build_s and paths.path_builds read the span of
    # PiecewisePath.__post_init__, and deformations.compose_self_s and
    # deformations.compose_calls the span of compose_with_section, the one
    # path assembler: each plan must pass through each once.
    tracing = _load("tracing", monkeypatch)
    corpus = _load("corpus", monkeypatch)
    ops = _load("ops", monkeypatch)
    tracer = tracing.Tracer()
    for name in ("verify-small", "verify-swaps"):
        for op_id, text in enumerate(corpus.generate(corpus.WORKLOADS[name], 1)[:8]):
            with tracer.op(op_id):
                outcome = ops.verify_op(text)
            assert outcome.error is None, (name, op_id, outcome.error)
            names = [span.name for span in tracer.spans]
            assert names.count("planner.plan") == names.count("paths.path_build") == 1
            assert names.count("deformations.compose") == 1


def test_traced_swap_names_are_on_the_plan_path(monkeypatch):
    # The per-swap spans wrap these bindings; a planner that went round them
    # would leave the spans at 0.
    calls = {}
    for owner, attr in (
        (planner, "swap_case_a"), (planner, "swap_case_b"), (deformations, "clearance_eta")
    ):
        def counted(*args, _function=getattr(owner, attr), _attr=attr):
            calls[_attr] = calls.get(_attr, 0) + 1
            return _function(*args)

        monkeypatch.setattr(owner, attr, counted)
    # Robot 0 crosses obstacle 0, trades places with robot 1, then crosses
    # obstacle 1.
    query = ConfigurationQuery(
        starts=[[0.0, 0.0], [2.0, 3.0]],
        goals=[[5.0, 6.0], [1.5, 7.0]],
        obstacles=[[1.0, 5.0], [3.0, 5.0]],
    )
    swaps = plan(query, FrameMode.FIXED).swaps
    case_b = sum(isinstance(swap, planner.CaseBSwap) for swap in swaps)
    assert 0 < case_b < len(swaps)  # both kinds
    case_a = len(swaps) - case_b
    assert calls == {"swap_case_a": case_a, "swap_case_b": case_b, "clearance_eta": case_b}


def test_bench_ops_run_on_one_document_per_workload(monkeypatch):
    corpus = _load("corpus", monkeypatch)
    ops = _load("ops", monkeypatch)
    for workload in corpus.WORKLOADS.values():
        text = corpus.generate(workload, 1)[0]
        for op in sorted({workload.op, "classify"}):
            outcome = ops.OPS[op](text)
            assert outcome.error is None, (workload.name, op, outcome.error)


def test_bench_plan_shape_and_checks_read_a_verify_outcome(monkeypatch):
    # _plan_shape reads the path's segments view (t0, duration) and
    # ops.failures its position at 0 and 1: both must keep working on what
    # verify_op returns, as the benchmark's own tests do not run here
    corpus = _load("corpus", monkeypatch)
    ops = _load("ops", monkeypatch)
    run = _load("run", monkeypatch)
    keys = {"segments", "min_duration", "swaps", "intervals", "passed", "json_bytes"}
    for name in ("verify-small", "verify-swaps"):
        outcome = ops.verify_op(corpus.generate(corpus.WORKLOADS[name], 1)[0])
        assert outcome.error is None, (name, outcome.error)
        assert ops.failures(outcome) == [], name
        shape = run._plan_shape(outcome)
        assert shape.keys() == keys, name
        path = outcome.result.path
        assert shape["segments"] == len(path._columns.arc)
        assert shape["min_duration"] > 0 and shape["passed"]


def test_only_classify_and_plan_take_a_snap_tolerance():
    # classify reports with it; plan accepts the problem option only as 0.
    takers = {
        f"{module.__name__}.{name}"
        for module in (geometry, deformations, planner, verification)
        for name, function in inspect.getmembers(module, inspect.isfunction)
        if not name.startswith("_")
        and function.__module__ == module.__name__
        and "snap_tol" in inspect.signature(function).parameters
    }
    assert takers == {"parammp.geometry.classify", "parammp.planner.plan"}
