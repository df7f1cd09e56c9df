"""Span tracing around the library's layer boundaries, from outside the library.

The tracer wraps public functions where their callers bind them (for example
``parammp.planner.swap_case_a``, the name ``_swap_deformation`` looks up) and
a few methods on their classes.  Each call records a span: name, start, end,
parent span and op id.  Wrappers are installed only around traced ops and
removed afterwards, so untraced ops run the library unchanged.

Spans are kept in memory for the current op only; ``OpTrace`` folds them
into per-name totals when the op ends, so a long run does not keep millions
of spans alive.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional

from parammp import deformations, formats, geometry, paths, planner, verification

# (span name, owner, attribute): every binding through which the op reaches
# the layer.  A name may be bound in several modules.
TARGETS = (
    ("formats.parse", formats, "parse_problem"),
    ("formats.serialize", formats, "serialize_plan"),
    ("geometry.validate", geometry.ConfigurationQuery, "__post_init__"),
    ("geometry.classify", geometry, "classify"),
    ("geometry.classify", planner, "classify"),
    ("geometry.orderings", geometry, "orderings"),
    ("geometry.orderings", planner, "orderings"),
    ("geometry.orderings", deformations, "orderings"),
    ("geometry.clearance", deformations, "clearance_eta"),
    ("geometry.gap", deformations, "desingularization_gap"),
    ("deformations.compose", planner, "compose_with_section"),
    ("deformations.swap_a", planner, "swap_case_a"),
    ("deformations.swap_b", planner, "swap_case_b"),
    ("deformations.desingularize", planner, "desingularize"),
    ("paths.path_build", paths.PiecewisePath, "__post_init__"),
    ("paths.segment_at", paths.PiecewisePath, "segment_at"),
    ("planner.plan", planner, "plan"),
    ("planner.transposition", planner, "transposition_sequence"),
    ("verification.certify", verification, "certify_separation"),
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover."""
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children[span.id], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out


def max_depth(spans: Iterable[Span], name: str) -> int:
    """Deepest nesting of spans called ``name`` (1 for an unnested one)."""
    spans = list(spans)
    by_id = {span.id: span for span in spans}
    deepest = 0
    for span in spans:
        if span.name != name:
            continue
        depth, parent = 1, span.parent
        while parent is not None:
            depth += by_id[parent].name == name
            parent = by_id[parent].parent
        deepest = max(deepest, depth)
    return deepest


# Spans whose inclusive duration per call is reported as a median, and the
# span whose nesting depth is reported.
INCLUSIVE = ("planner.plan", "verification.certify")
NESTED = "deformations.compose"


@dataclass
class OpTrace:
    """Per-name totals over all traced ops of a run."""

    ops: int = 0
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    inclusive_s: dict = field(default_factory=lambda: defaultdict(list))
    nested_depth_max: int = 0

    def add(self, spans: list[Span], scale: float = 1.0):
        """Fold one op's spans in, their times multiplied by ``scale``."""
        self.ops += 1
        selfs = self_times(spans)
        for span in spans:
            self.self_s[span.name] += selfs[span.id] * scale
            self.calls[span.name] += 1
            if span.name in INCLUSIVE:
                self.inclusive_s[span.name].append(span.duration * scale)
        self.nested_depth_max = max(self.nested_depth_max, max_depth(spans, NESTED))

    def self_per_op(self, *names: str) -> float:
        return sum(self.self_s[name] for name in names) / max(self.ops, 1)

    def calls_per_op(self, *names: str) -> float:
        return sum(self.calls[name] for name in names) / max(self.ops, 1)


class Tracer:
    """Records spans while installed; one op at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = 0
        self._next_id = 0

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(Span(span_id, name, start, end, parent, tracer._op))

        return traced

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Trace one op: install the wrappers, yield, remove them again.
        The op's spans are in ``self.spans`` afterwards."""
        self.spans = []
        self._stack = []
        self._op = op_id
        originals = []
        for name, owner, attr in TARGETS:
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)
