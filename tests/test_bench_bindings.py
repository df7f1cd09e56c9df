"""The benchmark's tracer (``bench/tracing.py``) wraps library functions and
methods by name.  A rename in the library must fail here, not only in a
traced benchmark run."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_binding_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the module runs
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = [
        f"{name}: {getattr(owner, '__name__', owner)}.{attr}"
        for name, owner, attr in tracing.TARGETS
        if attr not in owner.__dict__
    ]
    assert not missing
