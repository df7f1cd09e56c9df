"""Exact piecewise path representation: linear and circular-arc segments.

Paths are kept symbolic (segment lists with closed-form evaluation), never
pre-sampled, so endpoint identities and separation certificates can be checked
against the defining formulas.  Global segment time bounds are integer ticks
over one denominator D per path: the planner places every stage on a tick, so
the boundaries are exact, reproducible and shared by all robots without
rational arithmetic.  Plan JSON writes each as the reduced rational tick / D.
A path also keeps its segments as one column table, gathered when it checks
its junctions, which the certifier and the plan writer read in bulk.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
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


@lru_cache
def _row_masks(d: int) -> np.ndarray:
    """The fields a line's row, then an arc's, uses in a path's table in R^d."""
    masks = np.arange(5 * d + 3) < np.array([[2 * d], [5 * d + 3]])
    masks.setflags(write=False)
    return masks


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
    # Its parts of the path's column table: its plan-JSON fields, which are
    # its end points too.
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
        # On Python floats, which are cheaper than numpy at this size; a NaN
        # or an infinity fails a norm test before the dot product sums it.
        u, v = basis_u.tolist(), basis_v.tolist()
        if not (
            abs(math.hypot(*u) - 1.0) <= BASIS_TOL
            and abs(math.hypot(*v) - 1.0) <= BASIS_TOL
            and abs(math.fsum(map(operator.mul, u, v))) <= BASIS_TOL
        ):
            raise ValueError("arc basis must be orthonormal")
        for arr in (center, basis_u, basis_v):
            arr.setflags(write=False)
        # The end points, evaluated once in Python floats by the operations of
        # _point in its order, so that they equal at(0.0) and at(1.0).
        radius, start, stop = float(self.radius), float(self.angle_start), float(self.angle_end)
        origin, ends = center.tolist(), []
        for w in (0.0, 1.0):
            theta = start + w * (stop - start)
            try:
                along, across = radius * math.cos(theta), radius * math.sin(theta)
            except ValueError:  # an infinite angle, whose cosine numpy takes as NaN
                along = across = math.nan
            ends += [c + along * x + across * y for c, x, y in zip(origin, u, v)]
        # Its part of the path's column table: its plan-JSON fields, then its
        # end points, which are views of it.
        row = np.array([*origin, radius, *u, *v, start, stop, *ends])
        row.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "basis_u", basis_u)
        object.__setattr__(self, "basis_v", basis_v)
        object.__setattr__(self, "initial", row[3 * len(u) + 3 : 4 * len(u) + 3])
        object.__setattr__(self, "final", row[4 * len(u) + 3 :])
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
    one row of 3d + 3 floats per segment in plan-JSON field order: a line's
    ``start, end`` (the rest of its row is 0), an arc's ``center, radius,
    basis_u, basis_v, angle_start, angle_end``.  ``floats`` gathers the
    block's used fields in row-major order, the order a plan writes them in
    (on demand, so that a path does not keep them twice)."""

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


@dataclass(frozen=True, eq=False)
class PiecewisePath:
    """A collision-managed motion of all robots over global time [0, 1].

    Per robot the segments tile [0, 1] with no gaps or overlaps, consecutive
    segments agree at their junction, the path starts at ``query.starts`` and
    ends at ``query.goals``.  Their ticks share one denominator, ``den``, of
    at most ``MAX_DENOMINATOR``.  Obstacles are those of the query, untouched.

    ``segments`` is the path.  The one pass that checks it also gathers it
    into a private column table (``_Columns``): ticks, kinds, counts and the
    floats of every segment in plan-JSON order, which the tick lookups, the
    certifier and the plan writer read in place of the segment objects.
    """

    query: ConfigurationQuery
    segments: tuple[tuple[PathSegment, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(tuple(per) for per in self.segments))
        object.__setattr__(self, "_columns", self._validate())

    @property
    def obstacles(self) -> np.ndarray:
        return self.query.obstacles

    @property
    def robot_count(self) -> int:
        return self.query.robot_count

    @property
    def den(self) -> int:
        return self.segments[0][0].den

    def _validate(self) -> _Columns:
        """The path's column table, once the checks pass.  Each check runs on
        whole columns; its error is worded only when it fails."""
        query, n, d = self.query, self.query.robot_count, self.query.dim
        counts = list(map(len, self.segments))
        if len(counts) != n or 0 in counts:
            raise self._tick_error()
        flat = list(chain.from_iterable(self.segments))
        ticks_from, ticks_to, dens, moves = (list(map(field, flat)) for field in _SEGMENT_FIELDS)
        den = dens[0]
        if dens.count(den) != len(dens) or den > MAX_DENOMINATOR:
            raise self._tick_error()
        # Per robot, the first segment starts at 0, each next one where the
        # one before it stops, and the last stops at den.
        first = list(accumulate(counts, initial=0))
        for lo, hi in zip(first, first[1:]):
            if (
                ticks_from[lo] != 0
                or ticks_to[hi - 1] != den
                or ticks_from[lo + 1 : hi] != ticks_to[lo : hi - 1]
            ):
                raise self._tick_error()

        # One row per segment: a line's start and end; an arc's plan-JSON
        # fields, then its initial and final points.  Each part must have the
        # length its row gives it and one dimension: len fails on a part with
        # none, the concatenation or the assignment on one with more.
        arc = np.fromiter(map(_IS_ARC, moves), bool, len(moves))
        parts = list(chain.from_iterable(map(_PARTS, moves)))
        table = np.zeros((len(moves), 5 * d + 3))
        lengths = list(chain.from_iterable(map(((d, d), (5 * d + 3,)).__getitem__, arc.tolist())))
        try:
            fits = list(map(len, parts)) == lengths
            table[_row_masks(d)[arc.view(np.int8)]] = np.concatenate(parts)
        except (TypeError, ValueError):
            fits = False
        if not fits:
            raise DimensionMismatchError(f"segment points must have {d} coordinates")
        ends = np.where(arc[:, None], table[:, 3 * d + 3 :], table[:, : 2 * d])
        # Each segment's initial point against the final point before it, or
        # its robot's start; each robot's last final point against its goal.
        first, counts = np.array(first[:-1]), np.array(counts)
        before = np.empty((len(moves), d))
        before[1:], before[first] = ends[:-1, d:], query.starts
        gap = np.concatenate([ends[:, :d] - before, ends[first + counts - 1, d:] - query.goals])
        # np.linalg.norm's sums, without its checks; tested as "not <=" so
        # that a NaN point fails.
        near = np.sqrt(np.add.reduce(gap * gap, axis=1)) <= endpoint_tol(query)
        if not near.all():
            raise self._junction_error(near, first)
        return _Columns(
            np.array((ticks_from, ticks_to), dtype=np.int64), arc, counts, first,
            table[:, : 3 * d + 3].copy(),
        )

    def _junction_error(self, near: np.ndarray, first: np.ndarray) -> InternalConsistencyError:
        """The error of the first junction, robot by robot and in time, that
        :meth:`_validate` finds apart: ``near`` has a row per segment's
        initial point, then one per goal."""
        goals = len(near) - len(self.segments)
        for robot, per_robot in enumerate(self.segments):
            rows = [*range(first[robot], first[robot] + len(per_robot)), goals + robot]
            for junction, row in enumerate(rows):
                if not near[row]:
                    at = (
                        "its start" if junction == 0 else "its goal" if junction == len(per_robot)
                        else f"t={per_robot[junction].t0}"
                    )
                    return InternalConsistencyError(f"robot {robot} is discontinuous at {at}")

    def _tick_error(self) -> InternalConsistencyError:
        """The error of the first robot whose segment ticks fail to tile [0, 1]
        over one denominator, as :meth:`_validate` words it."""
        if len(self.segments) != self.query.robot_count:
            return InternalConsistencyError("one segment list per robot is required")
        den = self.segments[0][0].den if self.segments[0] else 0
        for robot, per_robot in enumerate(self.segments):
            if not per_robot:
                return InternalConsistencyError(f"robot {robot} has no segments")
            tick = 0
            for seg in per_robot:
                if seg.start != tick or seg.den != den:
                    return InternalConsistencyError(
                        f"robot {robot} has a gap/overlap at t={Fraction(tick, den)}"
                    )
                tick = seg.stop
            if tick != den:
                return InternalConsistencyError(f"robot {robot} segments do not span [0, 1]")
        return InternalConsistencyError(f"tick denominator {den} is above 2**53")

    def segment_at(self, robot: int, t) -> PathSegment:
        _check_time(t)
        columns = self._columns
        # The first segment whose stop tick exceeds t * den, by bisection on
        # the robot's stop ticks: t * den < stop iff floor(t * den) < stop.
        num, den = (Fraction(t) * self.den).as_integer_ratio()
        lo = int(columns.first[robot])
        count = int(columns.counts[robot])
        index = bisect_right(columns.stop, num // den, lo, lo + count) - lo
        return self.segments[robot][min(index, count - 1)]

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
        for seg_index in np.unique(idx):
            mask = idx == seg_index
            out[mask] = self.segments[robot][seg_index].at_many(ts[mask])
        return out
