"""Wire formats: JSON problem documents, JSON plan serialization, sampled CSV
export and a minimal SVG renderer for visual inspection.

One versioned JSON schema carries problems in; plan JSON carries the exact
segment algebra out (time bounds as ``"num/den"`` strings so no precision is
lost across implementations).  The SVG paints trajectories in the frame plane
with obstacles, starts and goals marked.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import InternalConsistencyError, QueryValidationError
from .geometry import ConfigurationQuery, Frame, FrameMode
from .paths import ArcMove, LinearMove, PathSegment, PiecewisePath
from .planner import PlanResult
from .verification import MAX_SAMPLES_PER_SEGMENT

__all__ = [
    "FORMAT_VERSION",
    "ProblemDocument",
    "ProblemOptions",
    "parse_plan",
    "parse_problem",
    "plan_to_document",
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
        return ConfigurationQuery(
            starts=np.array(self.starts, dtype=float),
            goals=np.array(self.goals, dtype=float),
            obstacles=np.array(self.obstacles, dtype=float),
        )

    def frame_mode(self) -> Optional[FrameMode]:
        if self.mode is None:
            return None
        return FrameMode(self.mode.replace("-", "_"))

    def to_json(self) -> str:
        doc = {
            "version": self.version,
            "dim": self.dim,
            "starts": [list(p) for p in self.starts],
            "goals": [list(p) for p in self.goals],
            "obstacles": [list(p) for p in self.obstacles],
        }
        if self.mode is not None:
            doc["mode"] = self.mode
        doc["options"] = {
            "snap_tolerance": self.options.snap_tolerance,
            "samples_per_segment": self.options.samples_per_segment,
        }
        return json.dumps(doc, indent=2)


def _finite(number) -> bool:
    """``math.isfinite``, False also for an integer beyond float range."""
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


def _check_points(name: str, value, dim: int, errors: list[str]) -> tuple:
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
    all errors; JSON syntax errors report line and column.

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
            document.to_query()
            return document
        except QueryValidationError as exc:
            errors.extend(exc.errors)
    raise QueryValidationError(errors)


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _parse_fraction(text: str) -> Fraction:
    if not isinstance(text, str):
        raise TypeError(f'time bound {text!r} is not a "num/den" string')
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def _points(arr: np.ndarray) -> list:
    return [float(x) for x in np.asarray(arr)]


def _segment_to_json(seg: PathSegment) -> dict:
    doc = {"t0": _fraction_str(seg.t0), "t1": _fraction_str(seg.t1)}
    if isinstance(seg.move, LinearMove):
        doc["kind"] = "linear"
        doc["start"] = _points(seg.move.start)
        doc["end"] = _points(seg.move.end)
    else:
        doc["kind"] = "arc"
        doc["center"] = _points(seg.move.center)
        doc["radius"] = float(seg.move.radius)
        doc["basis_u"] = _points(seg.move.basis_u)
        doc["basis_v"] = _points(seg.move.basis_v)
        doc["angle_start"] = float(seg.move.angle_start)
        doc["angle_end"] = float(seg.move.angle_end)
    return doc


def plan_to_document(result: PlanResult) -> dict:
    query = result.path.query
    return {
        "version": FORMAT_VERSION,
        "dim": query.dim,
        "mode": result.mode.value,
        "region": {"j": result.region.j, "t": result.region.t, "c": result.region.c},
        "domain_index": result.domain_index,
        "swap_count": result.swap_count,
        "frame": {"e": _points(result.frame.e), "e_perp": _points(result.frame.e_perp)},
        "starts": [_points(p) for p in query.starts],
        "goals": [_points(p) for p in query.goals],
        "obstacles": [_points(p) for p in query.obstacles],
        "robots": [
            {
                "robot": robot,
                "segments": [_segment_to_json(seg) for seg in result.path.segments[robot]],
            }
            for robot in range(query.robot_count)
        ],
    }


def serialize_plan(result: PlanResult) -> str:
    """Plan as JSON with exact segment parameters.

    Floats are emitted with round-trip precision and time bounds as exact
    ``"num/den"`` rationals, so re-evaluating a parsed plan reproduces the
    original path.
    """
    return json.dumps(plan_to_document(result), indent=2)


def _path_from_document(doc) -> PiecewisePath:
    query = ConfigurationQuery(
        starts=np.array(doc["starts"], dtype=float),
        goals=np.array(doc["goals"], dtype=float),
        obstacles=np.array(doc["obstacles"], dtype=float),
    )
    segments: list[tuple[PathSegment, ...]] = []
    for robot_doc in doc["robots"]:
        robot = robot_doc["robot"]
        per_robot = []
        for seg in robot_doc["segments"]:
            if seg["kind"] == "linear":
                move = LinearMove(
                    start=np.array(seg["start"]), end=np.array(seg["end"])
                )
            elif seg["kind"] == "arc":
                move = ArcMove(
                    center=np.array(seg["center"]),
                    radius=seg["radius"],
                    basis_u=np.array(seg["basis_u"]),
                    basis_v=np.array(seg["basis_v"]),
                    angle_start=seg["angle_start"],
                    angle_end=seg["angle_end"],
                )
            else:
                raise QueryValidationError(
                    [f"plan document: unknown segment kind {seg['kind']!r}"]
                )
            per_robot.append(
                PathSegment(
                    robot=robot,
                    t0=_parse_fraction(seg["t0"]),
                    t1=_parse_fraction(seg["t1"]),
                    move=move,
                )
            )
        segments.append(tuple(per_robot))
    return PiecewisePath(query=query, segments=tuple(segments))


def parse_plan(text: str) -> PiecewisePath:
    """Rebuild the piecewise path of a serialized plan.

    Raises:
        QueryValidationError: the text is not a well-formed plan document: bad
            JSON, a missing or mistyped field, an unknown segment kind, a time
            bound that is not a rational, or segments that do not chain.
    """
    try:
        return _path_from_document(json.loads(text))
    except (ArithmeticError, InternalConsistencyError, LookupError, TypeError, ValueError) as exc:
        raise QueryValidationError([f"plan document: {type(exc).__name__}: {exc}"]) from exc


def sample_csv(result: PlanResult, resolution: int = 256) -> str:
    """Sampled trajectory table: columns t, robot, x_1..x_d.

    ``resolution`` counts samples per unit time; the endpoint t = 1 is always
    included.
    """
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


def _frame_coords(points: np.ndarray, frame: Frame) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if frame.dim == 2:
        return pts  # planar scenes render in their own coordinates
    return np.stack([pts @ frame.e, pts @ frame.e_perp], axis=1)


def render_svg(result: PlanResult, sample_count: int = 64) -> str:
    """Deterministic SVG of the planned trajectories.

    Two-dimensional queries render directly; higher dimensions project onto
    the frame plane (e, e_perp).  Trajectories are polylines with
    ``sample_count`` samples per segment, obstacles are filled circles,
    starts are squares and goals are rings.
    """
    frame = result.frame
    query = result.path.query

    polylines = []
    for robot in range(query.robot_count):
        points = []
        for seg in result.path.segments[robot]:
            ts = np.linspace(float(seg.t0), float(seg.t1), sample_count + 1)
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
