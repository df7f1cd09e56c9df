"""Wire formats: JSON problem documents, JSON plan serialization, sampled CSV
export and a minimal SVG renderer for visual inspection.

One versioned JSON schema carries problems in: a document holds its frame
mode, options and query, whose one point table is the only copy of its
points.  Plan JSON carries the exact segment algebra out (time bounds as
``"num/den"`` strings so no precision is lost across implementations).  A
plan's text has the layout ``json.dumps(indent=2)`` gives, built from a
template per segment kind and dimension and filled from the path's column
table, each distinct float written once; every float in it is finite.  The
SVG paints trajectories in the frame plane with obstacles, starts and goals
marked.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, repeat
from typing import Optional

import numpy as np
import orjson

from .errors import QueryValidationError
from .geometry import ConfigurationQuery, Frame, FrameMode
from .planner import PlanResult
from .verification import MAX_SAMPLES_PER_SEGMENT, _is_sample_count

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
_POINT_FIELDS = ("starts", "goals", "obstacles")


@dataclass(frozen=True)
class ProblemOptions:
    snap_tolerance: float = 0.0


@dataclass(frozen=True, eq=False)
class ProblemDocument:
    """Validated planning problem as read from JSON: its version, frame mode
    (None where the document names none), query and options."""

    version: str
    mode: Optional[FrameMode]
    query: ConfigurationQuery
    options: ProblemOptions = field(default_factory=ProblemOptions)

    @property
    def dim(self) -> int:
        return self.query.dim

    def to_query(self) -> ConfigurationQuery:
        """The document's query, validated once when the document was read
        and then shared: queries are immutable."""
        return self.query

    def frame_mode(self) -> Optional[FrameMode]:
        return self.mode


def _point_query(flat: list, dim: int, n: int, goals: int) -> ConfigurationQuery:
    """The query of a flat list of coordinates, ``dim`` to a point: ``n``
    starts, ``goals`` goals, then the obstacles, in a table filled in one
    pass."""
    table, k = np.fromiter(flat, float, count=len(flat)).reshape(-1, dim), n + goals
    return ConfigurationQuery(starts=table[:n], goals=table[n:k], obstacles=table[k:])


def _flat_points(arrays: list, dim: int) -> Optional[list]:
    """The coordinates of ``arrays`` in one flat list if each is a non-empty
    list of ``dim``-element lists of floats, else None: one walk."""
    if not all(type(value) is list and value for value in arrays):
        return None
    points = list(chain.from_iterable(arrays))
    if set(map(type, points)) != {list} or set(map(len, points)) != {dim}:
        return None
    flat = list(chain.from_iterable(points))
    return flat if set(map(type, flat)) == {float} else None


def _finite(number) -> bool:
    """``math.isfinite``, False also for an integer beyond float range."""
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


def _check_points(name: str, value, dim: int, errors: list[str]) -> tuple:
    """The points of array ``name`` as a tuple of float tuples, read point by
    point where the one walk (:func:`_flat_points`) fails: one error per
    malformed point or coordinate, and the points that have none."""
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


# The fast reading of a problem text; ``json.loads`` is the reference.
_loads = orjson.loads


def parse_problem(text: str) -> ProblemDocument:
    """Parse and validate a problem document.

    The text is read with ``orjson`` and validated.  The ``json`` module is
    the reference reading: if orjson refuses the text, or the document it
    gives fails any check, the text is read again with ``json.loads`` and
    that reading is validated, so every error is worded from json's reading
    and no document is accepted or refused otherwise than by json alone.
    orjson refuses what only json reads (``NaN``, ``Infinity``, numbers
    beyond float range such as ``1e400``, lone surrogate escapes); on every
    other text the two give equal documents.  orjson's floats are correctly
    rounded, as json's are, and it reads an integer beyond 64 bits as the
    float that ``float()`` of json's integer gives, which a document accepts
    only where it converts a number to float (a coordinate, the snap
    tolerance).

    Collects every validation problem before raising, so one round trip shows
    all errors; JSON syntax errors report line and column.  The point arrays
    are checked together in one walk, whose flat list of coordinates fills
    the query's point table, and the query in bulk (see
    :class:`~parammp.geometry.ConfigurationQuery`); the per-coordinate and
    per-pair loops run only on an input that fails, to word its errors.

    Raises:
        QueryValidationError: syntax or semantic errors (all of them listed).
    """
    try:
        return _document(_loads(text))
    except (ValueError, QueryValidationError, RecursionError):
        # orjson refused the text (its JSONDecodeError is a ValueError), or
        # its document fails a check or nests too deep to word: json decides.
        pass
    return _document(_json_reading(text))


def _json_reading(text: str):
    """The ``json`` module's reading of a problem text, with its decoding
    errors worded as validation errors."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise QueryValidationError(
            [f"JSON syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    except ValueError as exc:  # an integer literal with too many digits
        raise QueryValidationError([f"JSON number error: {exc}"]) from exc
    except RecursionError as exc:  # arrays or objects nested too deep
        raise QueryValidationError([f"JSON nesting error: {exc}"]) from exc


def _document(raw) -> ProblemDocument:
    """The validated document of a decoded problem text, whichever module
    decoded it.

    Raises:
        QueryValidationError: every semantic error, all of them listed.
    """
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
    if isinstance(mode, str) and mode in _MODES:
        mode = FrameMode(mode)
    elif mode is not None:
        errors.append(f"mode: expected one of {sorted(_MODES)}, got {mode!r}")
    arrays = [raw.get(name) for name in _POINT_FIELDS]
    flat = _flat_points(arrays, dim)
    if flat is None:  # word the errors, point by point; integers become floats
        arrays = [_check_points(name, raw.get(name), dim, errors) for name in _POINT_FIELDS]
        flat = list(chain.from_iterable(chain(*arrays)))

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
        # Checked, so no document changes validity, but read by nothing: a
        # planned path has no sampled pair.
        samples = raw_options.get("samples_per_segment", 64)
        if not _is_sample_count(samples, 2):
            errors.append(
                "options.samples_per_segment: expected an integer >= 2 and "
                f"<= {MAX_SAMPLES_PER_SEGMENT}, got {samples!r}"
            )
        options = ProblemOptions(snap_tolerance=float(snap))

    if not errors:
        try:
            query = _point_query(flat, dim, len(arrays[0]), len(arrays[1]))
        except QueryValidationError as exc:
            errors.extend(exc.errors)
        else:
            return ProblemDocument(version, mode, query, options)
    raise QueryValidationError(errors)


@lru_cache
def _vector_template(dim: int, indent: int) -> str:
    """A list of ``dim`` floats as ``json.dumps(indent=2)`` lays it out at
    nesting depth ``indent``, opening bracket excluded from the indent."""
    pad = "  " * indent
    return "[\n" + ",\n".join([pad + "  %s"] * dim) + "\n" + pad + "]"


# A plan's head up to its floats, with placeholders for the mode's JSON text,
# the region, the domain index and the swap count.
_HEAD = (
    f'{{\n  "version": {json.dumps(FORMAT_VERSION)},\n  "dim": %d,\n  "mode": %s,\n'
    '  "region": {\n    "j": %d,\n    "t": %d,\n    "c": %d\n  },\n'
    '  "domain_index": %d,\n  "swap_count": %d,\n'
)


@lru_cache
def _head_template(dim: int, n: int, m: int) -> str:
    """The rest of a plan's head, ``frame`` to ``obstacles``, as
    ``json.dumps(indent=2)`` lays it out for n robots and m obstacles in
    R^dim, with a ``%s`` placeholder for the text of each float."""
    vector = _vector_template(dim, 2)
    rows = ["    " + vector] * max(n, m)
    return f'  "frame": {{\n    "e": {vector},\n    "e_perp": {vector}\n  }},\n' + ",\n".join(
        f'  "{name}": [\n' + ",\n".join(rows[:count]) + "\n  ]"
        for name, count in (("starts", n), ("goals", n), ("obstacles", m))
    )


# A segment's text up to its time bounds, with what opens its robot's entry
# (and closes the robot before) where it is the robot's first segment.
_ROBOT_OPEN = '    {\n      "robot": %d,\n      "segments": [\n'
_ROBOT_CLOSE = "\n      ]\n    }"
_SEGMENT_OPEN = '        {\n          "t0": "'
_BETWEEN_BOUNDS = '",\n          "t1": "'


@lru_cache
def _segment_template(arc: bool, dim: int) -> str:
    """The rest of a segment of R^dim, an arc or a straight line, after its
    time bounds, as ``json.dumps(indent=2)`` lays it out in a plan's segment
    list, with a ``%s`` placeholder for the text of each float."""
    point = _vector_template(dim, 5)
    if arc:
        fields = [
            '"kind": "arc"',
            f'"center": {point}',
            '"radius": %s',
            f'"basis_u": {point}',
            f'"basis_v": {point}',
            '"angle_start": %s',
            '"angle_end": %s',
        ]
    else:
        fields = ['"kind": "linear"', f'"start": {point}', f'"end": {point}']
    return '",\n' + "".join("          " + f + ",\n" for f in fields)[:-2] + "\n        }"


def serialize_plan(result: PlanResult) -> str:
    """Plan as JSON with exact segment parameters.

    Every float is written with round-trip precision and every time bound
    as an exact reduced ``"num/den"`` rational.  The layout is the one
    ``json.dumps(document, indent=2)`` gives.  Cached templates, one for
    the head and one per segment kind, are joined in the path's order with
    the time bounds' texts in between, and one ``%`` pass fills in the
    floats: the head's, then the segments' plan-JSON fields in template
    order, read from the rows the path was built from.  Each distinct
    float, told apart by its bit pattern so that 0.0 and -0.0 stay
    distinct, is written once by ``float.__repr__``, as ``json`` writes it;
    each distinct tick's reduced rational is written once too.  Every float
    of a ``PiecewisePath`` is finite (its basis, junction and endpoint
    checks reject NaN and infinity), so ``json``'s ``NaN`` and ``Infinity``
    spellings are never needed.
    """
    path, frame, region = result.path, result.frame, result.region
    query, columns, den = path.query, path._columns, path.den
    (n, dim), m = query.starts.shape, len(query.obstacles)
    floats = np.concatenate(
        [frame.e, frame.e_perp, query.starts.ravel(), query.goals.ravel(),
         query.obstacles.ravel(), columns.floats]
    )
    bits, which = np.unique(floats.view(np.int64), return_inverse=True)
    texts = np.array(list(map(float.__repr__, bits.view(float).tolist())), dtype=object)

    starts, stops = columns.ticks.tolist()
    fractions = {t: f"{t // g}/{den // g}" for t in {*starts, *stops} for g in [math.gcd(t, den)]}
    opens = [",\n" + _SEGMENT_OPEN] * len(starts)
    for robot, lo in enumerate(columns.first.tolist()):
        opens[lo] = (_ROBOT_CLOSE + ",\n" if robot else "") + _ROBOT_OPEN % robot + _SEGMENT_OPEN
    rests = (_segment_template(False, dim), _segment_template(True, dim))
    segments = zip(
        opens,
        map(fractions.__getitem__, starts),
        repeat(_BETWEEN_BOUNDS),
        map(fractions.__getitem__, stops),
        map(rests.__getitem__, columns.arc.tolist()),
    )
    template = (
        _HEAD % (dim, json.dumps(result.mode.value), region.j, region.t, region.c,
                 result.domain_index, result.swap_count)
        + _head_template(dim, n, m)
        + ',\n  "robots": [\n'
        + "".join(chain.from_iterable(segments))
        + _ROBOT_CLOSE
        + "\n  ]\n}"
    )
    return template % tuple(texts[which].tolist())


def _check_resolution(resolution, name: str) -> int:
    """``resolution``, the CSV resolution given as ``name``, if it is an
    integer from 1 to MAX_SAMPLES_PER_SEGMENT (a bool is not one)."""
    if not _is_sample_count(resolution, 1):
        bound = f">= 1 and <= {MAX_SAMPLES_PER_SEGMENT}"
        raise QueryValidationError([f"{name}: expected an integer {bound}, got {resolution!r}"])
    return resolution


def sample_csv(result: PlanResult, resolution: int = 256) -> str:
    """Sampled trajectory table: columns t, robot, x_1..x_d.

    ``resolution`` counts samples per unit time; the endpoint t = 1 is always
    included.

    Raises:
        QueryValidationError: ``resolution`` is not an integer from 1 to
            MAX_SAMPLES_PER_SEGMENT (a bool is not one).
    """
    _check_resolution(resolution, "resolution")
    query = result.path.query
    header = "t,robot," + ",".join(f"x_{k + 1}" for k in range(query.dim))
    lines = [header]
    ts = np.linspace(0.0, 1.0, resolution + 1).tolist()
    positions = result.path._positions(range(query.robot_count), ts).transpose(1, 0, 2)
    for robot, samples in enumerate(positions.tolist()):
        lines += (f"{t!r},{robot}," + ",".join(map(repr, x)) for t, x in zip(ts, samples))
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
    frame, path = result.frame, result.path
    query, columns = path.query, path._columns

    # Every segment on its own window, robot after robot.
    ts = np.linspace(columns.start / path.den, columns.stop / path.den, _SVG_SAMPLES + 1, axis=1)
    rows = np.repeat(np.arange(len(ts)), _SVG_SAMPLES + 1)
    points = _frame_coords(path._at(rows, ts.ravel()), frame)
    polylines = np.split(points, columns.first[1:] * (_SVG_SAMPLES + 1))

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
