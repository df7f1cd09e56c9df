"""Exact piecewise path representation: linear and circular-arc segments.

Paths are kept symbolic (closed-form segment formulas), never pre-sampled, so
endpoint identities and separation certificates can be checked against the
defining formulas.  Global segment time bounds are integer ticks over one
denominator D per path: the planner places every stage on a tick, so the
boundaries are exact, reproducible and shared by all robots without rational
arithmetic.  Plan JSON writes each as the reduced rational tick / D.

A path is one column table: per segment its ticks, its kind and its floats,
which the certifier and the plan writer read in bulk.  The table is written
by the planner, one row of floats per segment (:func:`line_row`,
:func:`arc_row`), or gathered from hand-built segments; segment objects are
views of it, built when they are read.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import accumulate, chain
from typing import Union

import numpy as np

from .errors import DimensionMismatchError, InternalConsistencyError
from .geometry import ConfigurationQuery

__all__ = [
    "ArcMove",
    "LinearMove",
    "Move",
    "PathSegment",
    "PiecewisePath",
]

ENDPOINT_TOL = 1e-9
BASIS_TOL = 1e-12
_SEGMENT_FIELDS = tuple(map(operator.attrgetter, ("start", "stop", "den", "move")))
_IS_ARC, _PARTS = operator.attrgetter("_arc"), operator.attrgetter("_parts")
# The largest tick denominator: ticks up to 2**53 convert to floats exactly,
# so tick / den divides as float(Fraction(tick, den)) rounds, in numpy too.
MAX_DENOMINATOR = 1 << 53

# A row holds one segment's floats, as Python floats.  A line's are its
# plan-JSON fields ``start, end`` (2d floats); an arc's are its plan-JSON
# fields ``center, radius, basis_u, basis_v, angle_start, angle_end`` and
# then its initial and final points (5d + 3).  So a row's last 2d floats are
# its end points, and its length tells its kind.


def line_row(start, end) -> tuple:
    """The row of the straight line from ``start`` to ``end``: sequences of
    floats, equal for a rest."""
    return (*start, *end)


def arc_row(center, radius, basis_u, basis_v, angle_start, angle_end) -> tuple:
    """The row of an arc (see :class:`ArcMove`) from sequences of floats.

    Its end points are evaluated here, in Python floats, by the operations of
    ``ArcMove._point`` in its order, so that they equal ``at(0.0)`` and
    ``at(1.0)``.  Nothing is checked: a path checks its arcs' radii and
    bases, an ``ArcMove`` its own."""
    radius, start, stop = float(radius), float(angle_start), float(angle_end)
    ends = []
    for w in (0.0, 1.0):
        theta = start + w * (stop - start)
        try:
            along, across = radius * math.cos(theta), radius * math.sin(theta)
        except ValueError:  # an infinite angle, whose cosine numpy takes as NaN
            along = across = math.nan
        ends += [c + along * x + across * y for c, x, y in zip(center, basis_u, basis_v)]
    return (*center, radius, *basis_u, *basis_v, start, stop, *ends)


def row_initial(row: tuple, d: int) -> tuple:
    """Where the segment of ``row``, in R^d, begins."""
    return row[-2 * d : -d]


def row_final(row: tuple, d: int) -> tuple:
    """Where the segment of ``row``, in R^d, ends."""
    return row[-d:]


def extends_rest(before: tuple, row: tuple, d: int) -> bool:
    """Whether ``row`` and ``before``, rows in R^d, are rests at one point
    (-0.0 is 0.0 there)."""
    return len(row) == 2 * d and row[:d] == row[d:] and before == row


@lru_cache
def _row_masks(d: int) -> np.ndarray:
    """The fields a line's row, then an arc's, uses in a path's table in R^d."""
    masks = np.arange(5 * d + 3) < np.array([[2 * d], [5 * d + 3]])
    masks.setflags(write=False)
    return masks


def _arc_checks(fields: np.ndarray, d: int):
    """Per row of arc ``fields`` in R^d (plan-JSON order, a row per arc):
    whether its radius is positive, and whether its basis is orthonormal to
    within ``BASIS_TOL``.  A NaN or an infinity fails."""
    radius, u, v = fields[:, d], fields[:, d + 1 : 2 * d + 1], fields[:, 2 * d + 1 : 3 * d + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        basis = (
            (abs(np.sqrt(np.add.reduce(u * u, axis=1)) - 1.0) <= BASIS_TOL)
            & (abs(np.sqrt(np.add.reduce(v * v, axis=1)) - 1.0) <= BASIS_TOL)
            & (abs(np.add.reduce(u * v, axis=1)) <= BASIS_TOL)
        )
    return radius > 0, basis


def endpoint_tol(query: ConfigurationQuery) -> float:
    """``ENDPOINT_TOL`` times the query's largest coordinate magnitude where
    that exceeds 1: arc endpoints round in proportion to the coordinates."""
    return ENDPOINT_TOL * max(1.0, query.extent)


@dataclass(frozen=True, eq=False)
class LinearMove:
    """Straight-line motion from ``start`` to ``end`` at constant velocity."""

    start: np.ndarray
    end: np.ndarray

    _arc = False
    # Its parts of a path's row: its plan-JSON fields, which are its end
    # points too.
    _parts = property(operator.attrgetter("start", "end"))

    def __post_init__(self):
        start = np.asarray(self.start, dtype=float)
        end = np.asarray(self.end, dtype=float)
        start.setflags(write=False)
        end.setflags(write=False)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)

    def at(self, u: float) -> np.ndarray:
        if u == 0.0:
            return self.start
        if u == 1.0:
            return self.end
        return self.start + u * (self.end - self.start)

    def at_many(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return self.start[None, :] + u[:, None] * (self.end - self.start)[None, :]

    @property
    def initial(self) -> np.ndarray:
        return self.start

    @property
    def final(self) -> np.ndarray:
        return self.end

    def is_constant(self) -> bool:
        return self.start.tolist() == self.end.tolist()  # a NaN differs, -0.0 == 0.0


@dataclass(frozen=True, eq=False)
class ArcMove:
    """Circular-arc motion in the plane spanned by two orthonormal vectors.

    The point at local parameter u is::

        center + radius * (cos(theta) * basis_u + sin(theta) * basis_v)

    with theta = angle_start + u * (angle_end - angle_start).
    """

    center: np.ndarray
    radius: float
    basis_u: np.ndarray
    basis_v: np.ndarray
    angle_start: float
    angle_end: float

    _arc = True

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        basis_u = np.asarray(self.basis_u, dtype=float)
        basis_v = np.asarray(self.basis_v, dtype=float)
        if not self.radius > 0:  # written "not >", "not <=" so that a NaN fails
            raise ValueError("arc radius must be positive")
        if center.ndim != 1 or not center.shape == basis_u.shape == basis_v.shape:
            raise ValueError("arc center and basis vectors must have one dimension")
        d = len(center)
        # Its row of a path's table, whose end points are views of it; the
        # basis is checked as a path checks its arcs.
        row = np.array(
            arc_row(
                center.tolist(), self.radius, basis_u.tolist(), basis_v.tolist(),
                self.angle_start, self.angle_end,
            )
        )
        if not _arc_checks(row[None], d)[1][0]:
            raise ValueError("arc basis must be orthonormal")
        row.setflags(write=False)
        for arr in (center, basis_u, basis_v):
            arr.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "basis_u", basis_u)
        object.__setattr__(self, "basis_v", basis_v)
        object.__setattr__(self, "initial", row[3 * d + 3 : 4 * d + 3])
        object.__setattr__(self, "final", row[4 * d + 3 :])
        object.__setattr__(self, "_parts", (row,))

    def _point(self, theta):
        return (
            self.center
            + self.radius * np.cos(theta) * self.basis_u
            + self.radius * np.sin(theta) * self.basis_v
        )

    def at(self, u: float) -> np.ndarray:
        return self._point(self.angle_start + u * (self.angle_end - self.angle_start))

    def at_many(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        theta = self.angle_start + u * (self.angle_end - self.angle_start)
        return (
            self.center[None, :]
            + self.radius * np.cos(theta)[:, None] * self.basis_u[None, :]
            + self.radius * np.sin(theta)[:, None] * self.basis_v[None, :]
        )


Move = Union[LinearMove, ArcMove]


def row_move(row, d: int) -> Move:
    """The move of ``row``, a row in R^d; for an arc, its first 3d + 3
    floats, its plan-JSON fields, are enough."""
    if len(row) == 2 * d:
        return LinearMove(row[:d], row[d:])
    return ArcMove(
        row[:d], float(row[d]), row[d + 1 : 2 * d + 1], row[2 * d + 1 : 3 * d + 1],
        float(row[3 * d + 1]), float(row[3 * d + 2]),
    )


def _check_time(t):
    """ValueError unless 0 <= t <= 1 (a NaN fails too)."""
    if not 0 <= t <= 1:
        raise ValueError(f"time {t} outside [0, 1]")


@dataclass(frozen=True, eq=False)
class PathSegment:
    """One robot's motion over the global time window [start / den, stop / den]:
    integer ticks over the denominator ``den`` that its path shares."""

    start: int
    stop: int
    den: int
    move: Move

    def __post_init__(self):
        if not type(self.start) is type(self.stop) is type(self.den) is int:
            raise TypeError("segment time bounds must be integer ticks")
        if not 0 <= self.start < self.stop <= self.den:
            raise ValueError(f"window [{self.start}, {self.stop}]/{self.den} empty or off [0, 1]")
        # The float window; int true division rounds as float(Fraction) does.
        object.__setattr__(self, "_float_t0", self.start / self.den)
        object.__setattr__(self, "_float_duration", (self.stop - self.start) / self.den)

    # Exact views of the window, for callers that want rationals.
    t0 = property(lambda self: Fraction(self.start, self.den))
    t1 = property(lambda self: Fraction(self.stop, self.den))
    duration = property(lambda self: Fraction(self.stop - self.start, self.den))

    def local(self, t) -> float:
        # A time exactly on the end tick maps to exactly 1 (one on the start
        # tick rounds to 0) so that path endpoints reproduce the stored points.
        if t == self.t1:
            return 1.0
        return (float(t) - self._float_t0) / self._float_duration

    def at(self, t) -> np.ndarray:
        return self.move.at(self.local(t))

    def at_many(self, ts: np.ndarray) -> np.ndarray:
        u = (np.asarray(ts, dtype=float) - self._float_t0) / self._float_duration
        return self.move.at_many(u)


@dataclass(frozen=True, eq=False)
class _Columns:
    """The segments of a path, robot after robot, as columns: integer start
    and stop ticks, whether each is an arc (else a straight line), the
    segments per robot and the index of each robot's first, and ``block``,
    one read-only row of 3d + 3 floats per segment in plan-JSON field order:
    a line's ``start, end`` (the rest of its row is 0), an arc's ``center,
    radius, basis_u, basis_v, angle_start, angle_end``.  ``floats`` gathers
    the block's used fields in row-major order, the order a plan writes them
    in (on demand, so that a path does not keep them twice)."""

    ticks: np.ndarray  # (2, segments): start, stop
    arc: np.ndarray
    counts: np.ndarray
    first: np.ndarray
    block: np.ndarray

    start = property(lambda self: self.ticks[0])
    stop = property(lambda self: self.ticks[1])

    @property
    def floats(self) -> np.ndarray:
        d = self.block.shape[1] // 3 - 1
        return self.block[_row_masks(d)[self.arc.view(np.int8), : 3 * d + 3]]


def _move_floats(moves: list, d: int):
    """Whether each move is an arc, and the floats of their rows in R^d, in
    order.  Each part of a row must have the length the row gives it and
    one dimension: len fails on a part with none, the concatenation or the
    dimension of its result on one with more."""
    arc = np.fromiter(map(_IS_ARC, moves), bool, len(moves))
    parts = list(chain.from_iterable(map(_PARTS, moves)))
    lengths = list(chain.from_iterable(map(((d, d), (5 * d + 3,)).__getitem__, arc.tolist())))
    try:
        if list(map(len, parts)) == lengths:
            floats = np.concatenate(parts)
            if floats.ndim == 1:
                return arc, floats
    except (TypeError, ValueError):
        pass
    raise DimensionMismatchError(f"segment points must have {d} coordinates")


def _row_floats(rows: tuple, d: int):
    """Whether each row is an arc's, by its length, and the floats of the
    rows in R^d, in order."""
    lengths = np.fromiter(map(len, rows), np.intp, len(rows))
    arc = lengths == 5 * d + 3
    try:
        if ((lengths == 2 * d) | arc).all():
            return arc, np.fromiter(chain.from_iterable(rows), float, int(lengths.sum()))
    except (TypeError, ValueError):
        pass
    raise DimensionMismatchError(f"segment points must have {d} coordinates")


@dataclass(frozen=True, eq=False, init=False)
class PiecewisePath:
    """A collision-managed motion of all robots over global time [0, 1].

    Per robot the segments tile [0, 1] with no gaps or overlaps, consecutive
    segments agree at their junction, the path starts at ``query.starts`` and
    ends at ``query.goals``.  Their ticks share one denominator, ``den``, of
    at most ``MAX_DENOMINATOR``.  Every arc has a positive radius and an
    orthonormal basis.  Obstacles are those of the query, untouched.

    The path is its column table (``_Columns``): ticks, kinds, counts and
    the floats of every segment in plan-JSON order, checked once, when the
    path is built.  ``PiecewisePath(query, segments)`` gathers it from
    segment objects; the planner writes it as rows (:meth:`from_rows`).
    ``segments`` is a view of it, built on first read; ``segment_at`` and
    ``position`` build only the segment they need.
    """

    query: ConfigurationQuery

    def __init__(self, query: ConfigurationQuery, segments):
        object.__setattr__(self, "query", query)
        self.__post_init__(segments=segments)

    @classmethod
    def from_rows(cls, query: ConfigurationQuery, den: int, rows) -> PiecewisePath:
        """The path on ticks over ``den`` whose robot r follows ``rows[r]``:
        ``[start tick, stop tick, row]`` entries in time order, with rows as
        :func:`line_row` and :func:`arc_row` give them."""
        path = cls.__new__(cls)
        object.__setattr__(path, "query", query)
        path.__post_init__(rows=rows, den=den)
        return path

    def __post_init__(self, segments=None, rows=None, den=None):
        """Gather the table from ``segments``, or take it from ``rows`` over
        ``den``, and check it: ticks, then dimensions, then arcs, then
        junctions.  Each check runs in bulk, on whole lists or columns; its
        error is worded only when it fails."""
        d = self.query.dim
        if rows is None:
            segments = tuple(tuple(per) for per in segments)
            self.__dict__["segments"] = segments  # the view is what was given
            counts = list(map(len, segments))
            flat = list(chain.from_iterable(segments))
            starts, stops, dens, moves = (list(map(field, flat)) for field in _SEGMENT_FIELDS)
            den = dens[0] if dens else 0
            ticks, first = self._ticks(counts, starts, stops, den, dens)
            arc, floats = _move_floats(moves, d)
        else:
            counts = list(map(len, rows))
            entries = list(chain.from_iterable(rows))
            starts, stops, flat = zip(*entries) if entries else ((), (), ())
            ticks, first = self._ticks(counts, starts, stops, den, None)
            arc, floats = _row_floats(flat, d)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_columns", self._table(ticks, first, arc, floats))

    @property
    def obstacles(self) -> np.ndarray:
        return self.query.obstacles

    @property
    def robot_count(self) -> int:
        return self.query.robot_count

    def _ticks(self, counts: list, starts, stops, den: int, dens):
        """The (2, segments) array of start and stop ticks, once they tile
        [0, den] robot by robot and share the one denominator ``den`` (all of
        ``dens``, which None stands for), of at most ``MAX_DENOMINATOR``; and
        the index of each robot's first segment, then the segment count."""
        first = list(accumulate(counts, initial=0))
        # Per robot, the first segment starts at 0, each next one where the
        # one before it stops, each stops after it starts, and the last
        # stops at den.
        if (
            len(counts) != self.query.robot_count
            or 0 in counts
            or den > MAX_DENOMINATOR
            or dens is not None and dens.count(den) != len(dens)
            or not all(map(operator.lt, starts, stops))
            or any(
                starts[lo] != 0 or stops[hi - 1] != den or starts[lo + 1 : hi] != stops[lo : hi - 1]
                for lo, hi in zip(first, first[1:])
            )
        ):
            raise self._tick_error(counts, starts, stops, den, dens)
        return np.array((starts, stops), dtype=np.int64), np.array(first)

    def _table(self, ticks: np.ndarray, first: np.ndarray, arc: np.ndarray, floats) -> _Columns:
        """The path's column table, once its arcs and junctions pass:
        ``first`` holds the index of each robot's first segment, then the
        segment count."""
        query, d = self.query, self.query.dim
        # One row per segment: a line's start and end; an arc's plan-JSON
        # fields, then its initial and final points.
        table = np.zeros((len(arc), 5 * d + 3))
        table[_row_masks(d)[arc.view(np.int8)]] = floats
        arcs = np.flatnonzero(arc)
        if arcs.size:
            radius, basis = _arc_checks(table[arcs], d)
            if not (radius & basis).all():
                bad = int(np.argmin(radius & basis))
                raise self._arc_error(ticks, first, int(arcs[bad]), bool(radius[bad]))
        ends = np.where(arc[:, None], table[:, 3 * d + 3 :], table[:, : 2 * d])
        # Each segment's initial point against the final point before it, or
        # its robot's start; each robot's last final point against its goal.
        first, counts = first[:-1], np.diff(first)
        before = np.empty((len(arc), d))
        before[1:], before[first] = ends[:-1, d:], query.starts
        gap = np.concatenate([ends[:, :d] - before, ends[first + counts - 1, d:] - query.goals])
        # np.linalg.norm's sums, without its checks; tested as "not <=" so
        # that a NaN point fails.
        near = np.sqrt(np.add.reduce(gap * gap, axis=1)) <= endpoint_tol(query)
        if not near.all():
            raise self._junction_error(near, ticks[0], first, counts)
        block = table[:, : 3 * d + 3].copy()
        block.setflags(write=False)
        return _Columns(ticks, arc, counts, first, block)

    def _arc_error(self, ticks, first, row: int, radius_ok: bool) -> InternalConsistencyError:
        """The error of the first arc, robot by robot and in time, that
        :meth:`_table` finds degenerate: table row ``row``."""
        robot = int(np.searchsorted(first, row, side="right")) - 1
        fault = "arc basis must be orthonormal" if radius_ok else "arc radius must be positive"
        at = Fraction(int(ticks[0, row]), self.den)
        return InternalConsistencyError(f"robot {robot} has an invalid arc at t={at}: {fault}")

    def _junction_error(self, near, starts, first, counts) -> InternalConsistencyError:
        """The error of the first junction, robot by robot and in time, that
        :meth:`_table` finds apart: ``near`` has a row per segment's initial
        point, then one per goal."""
        goals = len(near) - len(counts)
        for robot, (lo, count) in enumerate(zip(first.tolist(), counts.tolist())):
            for junction, row in enumerate([*range(lo, lo + count), goals + robot]):
                if not near[row]:
                    at = (
                        "its start" if junction == 0 else "its goal" if junction == count
                        else f"t={Fraction(int(starts[row]), self.den)}"
                    )
                    return InternalConsistencyError(f"robot {robot} is discontinuous at {at}")

    def _tick_error(self, counts, starts, stops, den, dens) -> InternalConsistencyError:
        """The error of the first robot whose segment ticks fail to tile [0, 1]
        over one denominator, as :meth:`_ticks` words it."""
        if len(counts) != self.query.robot_count:
            return InternalConsistencyError("one segment list per robot is required")
        dens = [den] * len(starts) if dens is None else dens
        lo = 0
        for robot, count in enumerate(counts):
            if not count:
                return InternalConsistencyError(f"robot {robot} has no segments")
            tick = 0
            for k in range(lo, lo + count):
                if starts[k] != tick or not starts[k] < stops[k] or dens[k] != den:
                    return InternalConsistencyError(
                        f"robot {robot} has a gap/overlap at t={Fraction(tick, den)}"
                    )
                tick = stops[k]
            if tick != den:
                return InternalConsistencyError(f"robot {robot} segments do not span [0, 1]")
            lo += count
        return InternalConsistencyError(f"tick denominator {den} is above 2**53")

    @cached_property
    def segments(self) -> tuple[tuple[PathSegment, ...], ...]:
        """Per robot, its segments in time order."""
        columns = self._columns
        built = list(map(self._build, range(len(columns.arc))))
        return tuple(
            tuple(built[lo : lo + count])
            for lo, count in zip(columns.first.tolist(), columns.counts.tolist())
        )

    def _build(self, row: int) -> PathSegment:
        """The segment of table row ``row``, whose floats it holds bit for bit."""
        columns, d = self._columns, self.query.dim
        fields = columns.block[row] if columns.arc[row] else columns.block[row, : 2 * d]
        start, stop = columns.ticks[:, row].tolist()
        return PathSegment(start, stop, self.den, row_move(fields, d))

    def _segment(self, robot: int, index: int) -> PathSegment:
        """Segment ``index`` of ``robot``: from the segments once they are
        read, else built alone."""
        segments = self.__dict__.get("segments")
        if segments is not None:
            return segments[robot][index]
        return self._build(int(self._columns.first[robot]) + index)

    def segment_at(self, robot: int, t) -> PathSegment:
        _check_time(t)
        columns = self._columns
        # The first segment whose stop tick exceeds t * den, by bisection on
        # the robot's stop ticks: t * den < stop iff floor(t * den) < stop.
        num, den = (Fraction(t) * self.den).as_integer_ratio()
        lo = int(columns.first[robot])
        count = int(columns.counts[robot])
        index = bisect_right(columns.stop, num // den, lo, lo + count) - lo
        return self._segment(robot, min(index, count - 1))

    def position(self, robot: int, t) -> np.ndarray:
        return self.segment_at(robot, t).at(t)

    def configuration(self, t) -> np.ndarray:
        return np.stack([self.position(r, t) for r in range(self.robot_count)])

    def positions_at(self, robot: int, ts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation of one robot at many times (ascending or
        not); ValueError if any time lies outside [0, 1] or is NaN."""
        ts = np.asarray(ts, dtype=float)
        if ts.size:
            _check_time(ts.min())
            _check_time(ts.max())
        out = np.empty((len(ts), self.query.dim))
        columns = self._columns
        lo = columns.first[robot]
        bounds = columns.stop[lo : lo + columns.counts[robot]] / self.den
        idx = np.searchsorted(bounds, ts, side="right")
        idx = np.minimum(idx, len(bounds) - 1)
        for seg_index in np.unique(idx).tolist():
            mask = idx == seg_index
            out[mask] = self._segment(robot, seg_index).at_many(ts[mask])
        return out
