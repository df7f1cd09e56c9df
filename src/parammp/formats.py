"""Wire formats: JSON problem documents, JSON plan serialization, sampled CSV
export and a minimal SVG renderer for visual inspection.

One versioned JSON schema carries problems in; plan JSON carries the exact
segment algebra out (time bounds as ``"num/den"`` strings so no precision is
lost across implementations).  A plan's text has the layout
``json.dumps(indent=2)`` gives, with each segment filled into a template for
its kind and dimension; every float in it is finite.  The SVG paints
trajectories in the frame plane with obstacles, starts and goals marked.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from numbers import Integral
from typing import Optional

import numpy as np

from .errors import QueryValidationError
from .geometry import ConfigurationQuery, Frame, FrameMode
from .paths import LinearMove, PathSegment
from .planner import PlanResult
from .verification import MAX_SAMPLES_PER_SEGMENT

__all__ = [
    "FORMAT_VERSION",
    "ProblemDocument",
    "ProblemOptions",
    "parse_problem",
    "render_svg",
    "sample_csv",
    "serialize_plan",
]

FORMAT_VERSION = "1"

_TOP_LEVEL_FIELDS = {"version", "dim", "mode", "starts", "goals", "obstacles", "options"}
_OPTION_FIELDS = {"snap_tolerance", "samples_per_segment"}
_MODES = {"fixed", "obstacle_pair", "obstacle-pair"}


@dataclass(frozen=True)
class ProblemOptions:
    snap_tolerance: float = 0.0
    samples_per_segment: int = 64


@dataclass(frozen=True)
class ProblemDocument:
    """Validated planning problem as read from JSON."""

    version: str
    dim: int
    mode: Optional[str]
    starts: tuple
    goals: tuple
    obstacles: tuple
    options: ProblemOptions = field(default_factory=ProblemOptions)

    def to_query(self) -> ConfigurationQuery:
        """The document's query, validated once and then shared: queries are
        immutable."""
        return self._query

    @cached_property
    def _query(self) -> ConfigurationQuery:
        return ConfigurationQuery(
            starts=np.array(self.starts, dtype=float),
            goals=np.array(self.goals, dtype=float),
            obstacles=np.array(self.obstacles, dtype=float),
        )

    def frame_mode(self) -> Optional[FrameMode]:
        if self.mode is None:
            return None
        return FrameMode(self.mode.replace("-", "_"))


def _finite(number) -> bool:
    """``math.isfinite``, False also for an integer beyond float range."""
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


def _check_points(name: str, value, dim: int, errors: list[str]) -> tuple:
    """The points of array ``name`` as a tuple of float tuples.

    A non-empty list of ``dim``-element lists of floats is accepted with a
    few whole-array checks and needs no conversion.  Any other value, one
    with integer coordinates included, goes to :func:`_word_points`, which
    converts it point by point and writes the errors.
    """
    if (
        type(value) is list
        and value
        and set(map(type, value)) == {list}
        and set(map(len, value)) == {dim}
        and set(map(type, chain.from_iterable(value))) == {float}
    ):
        return tuple(map(tuple, value))
    return _word_points(name, value, dim, errors)


def _word_points(name: str, value, dim: int, errors: list[str]) -> tuple:
    """:func:`_check_points` point by point: one error per malformed point or
    coordinate, and the points that have none."""
    if not isinstance(value, list) or not value:
        errors.append(f"{name}: expected a non-empty array of points")
        return ()
    points = []
    for idx, point in enumerate(value):
        if not isinstance(point, list) or len(point) != dim:
            errors.append(f"{name}[{idx}]: expected {dim} coordinates")
            continue
        coords = []
        for cidx, coord in enumerate(point):
            if isinstance(coord, bool) or not isinstance(coord, (int, float)):
                errors.append(f"{name}[{idx}][{cidx}]: not a number")
                continue
            try:
                coords.append(float(coord))
            except OverflowError:  # JSON integers have no size limit
                errors.append(f"{name}[{idx}][{cidx}]: beyond float range")
        if len(coords) == dim:
            points.append(tuple(coords))
    return tuple(points)


def parse_problem(text: str) -> ProblemDocument:
    """Parse and validate a problem document.

    Collects every validation problem before raising, so one round trip shows
    all errors; JSON syntax errors report line and column.  Point arrays are
    checked in bulk, by whole-array type and length checks, and so is the
    query (see :class:`~parammp.geometry.ConfigurationQuery`); the
    per-coordinate and per-pair loops run only on an input that fails, to
    word its errors.

    Raises:
        QueryValidationError: syntax or semantic errors (all of them listed).
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise QueryValidationError(
            [f"JSON syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    except ValueError as exc:  # an integer literal with too many digits
        raise QueryValidationError([f"JSON number error: {exc}"]) from exc
    except RecursionError as exc:  # arrays or objects nested too deep
        raise QueryValidationError([f"JSON nesting error: {exc}"]) from exc
    errors: list[str] = []
    if not isinstance(raw, dict):
        raise QueryValidationError(["top level: expected a JSON object"])
    unknown = set(raw) - _TOP_LEVEL_FIELDS
    for name in sorted(unknown):
        errors.append(f"{name}: unknown field")
    version = raw.get("version")
    if version != FORMAT_VERSION:
        errors.append(f"version: expected \"{FORMAT_VERSION}\", got {version!r}")
    dim = raw.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 2:
        errors.append(f"dim: expected an integer >= 2, got {dim!r}")
        dim = 2
    mode = raw.get("mode")
    if mode is not None and mode not in _MODES:
        errors.append(f"mode: expected one of {sorted(_MODES)}, got {mode!r}")
        mode = None
    starts = _check_points("starts", raw.get("starts"), dim, errors)
    goals = _check_points("goals", raw.get("goals"), dim, errors)
    obstacles = _check_points("obstacles", raw.get("obstacles"), dim, errors)

    options = ProblemOptions()
    raw_options = raw.get("options", {})
    if not isinstance(raw_options, dict):
        errors.append("options: expected an object")
    else:
        for name in sorted(set(raw_options) - _OPTION_FIELDS):
            errors.append(f"options.{name}: unknown field")
        snap = raw_options.get("snap_tolerance", 0.0)
        if (
            isinstance(snap, bool)
            or not isinstance(snap, (int, float))
            or not _finite(snap)
            or snap < 0
        ):
            errors.append(
                f"options.snap_tolerance: expected a finite number >= 0, got {snap!r}"
            )
            snap = 0.0
        samples = raw_options.get("samples_per_segment", 64)
        if (
            isinstance(samples, bool)
            or not isinstance(samples, int)
            or not 2 <= samples <= MAX_SAMPLES_PER_SEGMENT
        ):
            errors.append(
                "options.samples_per_segment: expected an integer >= 2 and "
                f"<= {MAX_SAMPLES_PER_SEGMENT}, got {samples!r}"
            )
            samples = 64
        options = ProblemOptions(snap_tolerance=float(snap), samples_per_segment=samples)

    if not errors:
        try:
            document = ProblemDocument(
                version=version,
                dim=dim,
                mode=mode,
                starts=starts,
                goals=goals,
                obstacles=obstacles,
                options=options,
            )
            document.to_query()  # validates; the query is kept for callers
            return document
        except QueryValidationError as exc:
            errors.extend(exc.errors)
    raise QueryValidationError(errors)


@lru_cache
def _vector_template(dim: int, indent: int) -> str:
    """A list of ``dim`` floats as ``json.dumps(indent=2)`` lays it out at
    nesting depth ``indent``, opening bracket excluded from the indent."""
    pad = "  " * indent
    return "[\n" + ",\n".join([pad + "  %r"] * dim) + "\n" + pad + "]"


@lru_cache
def _head_template(dim: int) -> str:
    """A plan's head, ``version`` to ``obstacles``, as ``json.dumps(indent=2)``
    lays it out in R^dim, with ``%`` placeholders: the mode's JSON text, the
    region, domain index and swap count, the frame's floats, then the texts
    of the three point lists (:func:`_point_rows`)."""
    vector = _vector_template(dim, 2)
    return (
        f'{{\n  "version": {json.dumps(FORMAT_VERSION)},\n  "dim": {dim},\n  "mode": %s,\n'
        '  "region": {\n    "j": %d,\n    "t": %d,\n    "c": %d\n  },\n'
        '  "domain_index": %d,\n  "swap_count": %d,\n'
        f'  "frame": {{\n    "e": {vector},\n    "e_perp": {vector}\n  }},\n'
        '  "starts": [\n%s\n  ],\n  "goals": [\n%s\n  ],\n  "obstacles": [\n%s\n  ]'
    )


def _point_rows(points: np.ndarray) -> str:
    """The rows of a point list in a plan's head, between its brackets."""
    row = "    " + _vector_template(points.shape[1], 2)
    return ",\n".join([row] * len(points)) % tuple(points.ravel().tolist())


_ROBOT_TEMPLATE = '    {\n      "robot": %d,\n      "segments": [\n%s\n      ]\n    }'


@lru_cache
def _segment_template(kind: str, dim: int) -> str:
    """One ``kind`` segment of R^dim as ``json.dumps(indent=2)`` lays it out
    in a plan's segment list, with ``%`` placeholders for its values: the
    time bounds' texts, then its floats in field order."""
    point = _vector_template(dim, 5)
    fields = ['"t0": "%s"', '"t1": "%s"', f'"kind": "{kind}"']
    if kind == "linear":
        fields += [f'"start": {point}', f'"end": {point}']
    else:
        fields += [
            f'"center": {point}',
            '"radius": %r',
            f'"basis_u": {point}',
            f'"basis_v": {point}',
            '"angle_start": %r',
            '"angle_end": %r',
        ]
    return "        {\n" + ",\n".join("          " + f for f in fields) + "\n        }"


def _segment_text(seg: PathSegment, dim: int, texts: dict[int, str]) -> str:
    move = seg.move
    bounds = (texts[seg.start], texts[seg.stop])
    if isinstance(move, LinearMove):
        return _segment_template("linear", dim) % (
            *bounds, *move.start.tolist(), *move.end.tolist()
        )
    return _segment_template("arc", dim) % (
        *bounds,
        *move.center.tolist(),
        float(move.radius),
        *move.basis_u.tolist(),
        *move.basis_v.tolist(),
        float(move.angle_start),
        float(move.angle_end),
    )


def serialize_plan(result: PlanResult) -> str:
    """Plan as JSON with exact segment parameters.

    Every float is written with round-trip precision and every time bound
    as an exact reduced ``"num/den"`` rational.  The layout is the one
    ``json.dumps(document, indent=2)`` gives: the head (``version`` to
    ``obstacles``) fills a per-dimension template and each segment a
    per-kind, per-dimension one, their floats written by ``float.__repr__``
    as ``json`` writes them; a time bound is its tick over the path's
    denominator, reduced.  Every float of a ``PiecewisePath`` is finite (its
    basis, junction and endpoint checks reject NaN and infinity), so
    ``json``'s ``NaN`` and ``Infinity`` spellings are never needed.
    """
    query, den, segments = result.path.query, result.path.den, result.path.segments
    # The reduced "num/den" of each tick a segment bounds, written once.
    ticks = {t for per_robot in segments for seg in per_robot for t in (seg.start, seg.stop)}
    texts = {t: f"{t // g}/{den // g}" for t in ticks for g in (math.gcd(t, den),)}
    head = _head_template(query.dim) % (
        json.dumps(result.mode.value),
        result.region.j,
        result.region.t,
        result.region.c,
        result.domain_index,
        result.swap_count,
        *result.frame.e.tolist(),
        *result.frame.e_perp.tolist(),
        *(_point_rows(points) for points in (query.starts, query.goals, query.obstacles)),
    )
    robots = ",\n".join(
        _ROBOT_TEMPLATE
        % (robot, ",\n".join(_segment_text(seg, query.dim, texts) for seg in per_robot))
        for robot, per_robot in enumerate(segments)
    )
    return head + ',\n  "robots": [\n' + robots + "\n  ]\n}"


def sample_csv(result: PlanResult, resolution: int = 256) -> str:
    """Sampled trajectory table: columns t, robot, x_1..x_d.

    ``resolution`` counts samples per unit time; the endpoint t = 1 is always
    included.

    Raises:
        QueryValidationError: ``resolution`` is not an integer from 1 to
            MAX_SAMPLES_PER_SEGMENT (a bool is not one).
    """
    if isinstance(resolution, bool) or not (
        isinstance(resolution, Integral) and 1 <= resolution <= MAX_SAMPLES_PER_SEGMENT
    ):
        raise QueryValidationError(
            [
                "resolution: expected an integer >= 1 and "
                f"<= {MAX_SAMPLES_PER_SEGMENT}, got {resolution!r}"
            ]
        )
    query = result.path.query
    header = "t,robot," + ",".join(f"x_{k + 1}" for k in range(query.dim))
    lines = [header]
    ts = np.linspace(0.0, 1.0, resolution + 1)
    for robot in range(query.robot_count):
        positions = result.path.positions_at(robot, ts)
        for t, pos in zip(ts, positions):
            coords = ",".join(repr(float(x)) for x in pos)
            lines.append(f"{repr(float(t))},{robot},{coords}")
    return "\n".join(lines) + "\n"


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
# Polyline samples per segment in the SVG.
_SVG_SAMPLES = 64


def _frame_coords(points: np.ndarray, frame: Frame) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if frame.dim == 2:
        return pts  # planar scenes render in their own coordinates
    return np.stack([pts @ frame.e, pts @ frame.e_perp], axis=1)


def render_svg(result: PlanResult) -> str:
    """Deterministic SVG of the planned trajectories.

    Two-dimensional queries render directly; higher dimensions project onto
    the frame plane (e, e_perp).  Trajectories are polylines with 64 samples
    per segment, obstacles are filled circles, starts are squares and goals
    are rings.
    """
    frame = result.frame
    query = result.path.query

    polylines = []
    for robot in range(query.robot_count):
        points = []
        for seg in result.path.segments[robot]:
            ts = np.linspace(seg.start / seg.den, seg.stop / seg.den, _SVG_SAMPLES + 1)
            points.append(_frame_coords(seg.at_many(ts), frame))
        polylines.append(np.concatenate(points))

    obstacles = _frame_coords(query.obstacles, frame)
    starts = _frame_coords(query.starts, frame)
    goals = _frame_coords(query.goals, frame)

    everything = np.concatenate(polylines + [obstacles, starts, goals])
    lo = everything.min(axis=0)
    hi = everything.max(axis=0)
    span = np.maximum(hi - lo, 1e-6)
    margin = 0.08 * float(span.max())
    lo -= margin
    hi += margin
    marker = 0.015 * float((hi - lo).max())

    def fmt(x: float) -> str:
        return f"{x:.6f}"

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        f'viewBox="{fmt(lo[0])} {fmt(-hi[1])} {fmt(hi[0] - lo[0])} {fmt(hi[1] - lo[1])}">',
        f'<!-- domain index c={result.domain_index}, swaps={result.swap_count} -->',
        '<g transform="scale(1,-1)">',
    ]
    for robot, line in enumerate(polylines):
        color = _PALETTE[robot % len(_PALETTE)]
        coords = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in line)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="{fmt(marker / 3)}" '
            f'points="{coords}"/>'
        )
    for x, y in obstacles:
        parts.append(
            f'<circle class="obstacle" cx="{fmt(x)}" cy="{fmt(y)}" r="{fmt(marker)}" '
            'fill="#000000"/>'
        )
    for robot, (x, y) in enumerate(starts):
        color = _PALETTE[robot % len(_PALETTE)]
        parts.append(
            f'<rect class="start" x="{fmt(x - marker)}" y="{fmt(y - marker)}" '
            f'width="{fmt(2 * marker)}" height="{fmt(2 * marker)}" fill="{color}"/>'
        )
    for robot, (x, y) in enumerate(goals):
        color = _PALETTE[robot % len(_PALETTE)]
        parts.append(
            f'<circle class="goal" cx="{fmt(x)}" cy="{fmt(y)}" r="{fmt(marker)}" '
            f'fill="none" stroke="{color}" stroke-width="{fmt(marker / 2)}"/>'
        )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts)
