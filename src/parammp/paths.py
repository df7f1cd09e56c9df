"""Exact piecewise paths of straight lines and circular arcs, as one table.

Paths are kept symbolic (closed-form segment formulas), never pre-sampled, so
endpoint identities and separation certificates can be checked against the
defining formulas.  Global segment time bounds are integer ticks over one
denominator D per path: the planner places every stage on a tick, so the
boundaries are exact, reproducible and shared by all robots without rational
arithmetic.  Plan JSON writes each as the reduced rational tick / D.

A path is one column table: per segment its ticks, its kind and its floats.
It is built from one row of floats per segment (:func:`line_row`,
:func:`arc_row`) by :meth:`PiecewisePath.from_rows`, which checks it once.
Every reader evaluates it by one formula, :func:`evaluate`, over operand
columns gathered from the table: the path's position methods, the plan's CSV
and SVG, and the certifier.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import accumulate, chain, repeat
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, InternalConsistencyError
from .geometry import ConfigurationQuery

__all__ = ["PiecewisePath", "arc_row", "line_row"]

ENDPOINT_TOL = 1e-9
BASIS_TOL = 1e-12
# The largest tick denominator: ticks up to 2**53 convert to floats exactly,
# so tick / den divides as float(Fraction(tick, den)) rounds, in numpy too.
MAX_DENOMINATOR = 1 << 53
# Rows of an operand table (see evaluate), a column per segment: its start
# angle, start time, duration, sweep and radius, then the vectors origin (a
# line's start, an arc's center), step (a line's end - start), basis_u and
# basis_v, d rows each from VECTORS on.  A line's angle, sweep and basis are
# 0 and its radius -0.0; an arc's step is -0.0.
ANGLE, T0, DURATION, SWEEP, RADIUS, VECTORS = range(6)

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
    """The row of the arc ``center + radius * (cos(theta) * basis_u +
    sin(theta) * basis_v)``, theta running from ``angle_start`` to
    ``angle_end``, from sequences of floats.

    Its end points are evaluated here, in Python floats, by the operations
    :func:`evaluate` does for an arc, in its order.  Nothing is checked: a
    path checks its arcs' radii and bases."""
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


def evaluate(g: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Positions (d, s, c) at global times t (s, c) of the c segments whose
    operand columns g holds: ``origin + u * step + radius * cos(theta) *
    basis_u + radius * sin(theta) * basis_v``, with local time ``u = (t -
    t0) / duration`` and ``theta = angle + u * sweep``.  The terms of the
    other kind, a line's radius and an arc's step, are -0.0, which adds to
    every float exactly: each segment's floats are those of its own formula
    (for u >= 0)."""
    origin, step, basis_u, basis_v = g[VECTORS:].reshape(4, -1, 1, g.shape[1])
    u = (t - g[T0]) / g[DURATION]
    theta = g[ANGLE] + u * g[SWEEP]
    out = origin + u * step
    out += g[RADIUS] * np.cos(theta) * basis_u
    out += g[RADIUS] * np.sin(theta) * basis_v
    return out


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


def _check_time(t):
    """ValueError unless 0 <= t <= 1 (a NaN fails too)."""
    if not 0 <= t <= 1:
        raise ValueError(f"time {t} outside [0, 1]")


class PathSegment(NamedTuple):
    """One robot's segment: the global time window [start / den, stop / den]
    of integer ticks over its path's denominator, and the segment's row of
    the path's table.  A record only: the path evaluates it."""

    start: int
    stop: int
    den: int
    row: int

    # Exact views of the window, for callers that want rationals.
    t0 = property(lambda self: Fraction(self.start, self.den))
    t1 = property(lambda self: Fraction(self.stop, self.den))
    duration = property(lambda self: Fraction(self.stop - self.start, self.den))


@dataclass(frozen=True, eq=False)
class _Columns:
    """The segments of a path, robot after robot, as columns: integer start
    and stop ticks, whether each is an arc (else a straight line), the
    segments per robot and the index of each robot's first, ``block``, one
    read-only row of 3d + 3 floats per segment in plan-JSON field order (a
    line's ``start, end``, the rest of its row 0; an arc's ``center, radius,
    basis_u, basis_v, angle_start, angle_end``), and ``ends``, each segment's
    initial and final points.  ``floats`` gathers the block's used fields in
    row-major order, the order a plan writes them in (on demand, so that a
    path does not keep them twice)."""

    ticks: np.ndarray  # (2, segments): start, stop
    arc: np.ndarray
    counts: np.ndarray
    first: np.ndarray
    block: np.ndarray
    ends: np.ndarray

    start = property(lambda self: self.ticks[0])
    stop = property(lambda self: self.ticks[1])

    @property
    def floats(self) -> np.ndarray:
        d = self.block.shape[1] // 3 - 1
        return self.block[_row_masks(d)[self.arc.view(np.int8), : 3 * d + 3]]


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

    The path is its column table (``_Columns``), written as rows by
    :meth:`from_rows` and checked once, when the path is built.  Positions
    come from :func:`evaluate` over the table's operand columns; a segment
    at its own start or stop time gives its stored initial or final point.
    """

    query: ConfigurationQuery

    @classmethod
    def from_rows(cls, query: ConfigurationQuery, den: int, rows) -> PiecewisePath:
        """The path on ticks over ``den`` whose robot r follows ``rows[r]``:
        ``[start tick, stop tick, row]`` entries in time order, with rows as
        :func:`line_row` and :func:`arc_row` give them."""
        path = cls.__new__(cls)
        object.__setattr__(path, "query", query)
        path.__post_init__(rows, den)
        return path

    def __post_init__(self, rows, den):
        """Take the table from ``rows`` over ``den`` and check it: ticks,
        then dimensions, then arcs, then junctions.  Each check runs in
        bulk, on whole lists or columns; its error is worded only when it
        fails."""
        counts = list(map(len, rows))
        entries = list(chain.from_iterable(rows))
        starts, stops, flat = zip(*entries) if entries else ((), (), ())
        ticks, first = self._ticks(counts, starts, stops, den)
        arc, floats = _row_floats(flat, self.query.dim)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_columns", self._table(ticks, first, arc, floats))

    @property
    def obstacles(self) -> np.ndarray:
        return self.query.obstacles

    @property
    def robot_count(self) -> int:
        return self.query.robot_count

    def _ticks(self, counts: list, starts, stops, den: int):
        """The (2, segments) array of start and stop ticks, once they tile
        [0, den] robot by robot, with ``den`` at most ``MAX_DENOMINATOR``,
        and are integers (TypeError); and the index of each robot's first
        segment, then the segment count."""
        first = list(accumulate(counts, initial=0))
        # Per robot, the first segment starts at 0, each next one where the
        # one before it stops, each stops after it starts, and the last
        # stops at den.
        if (
            len(counts) != self.query.robot_count
            or 0 in counts
            or den > MAX_DENOMINATOR
            or not all(map(operator.lt, starts, stops))
            or any(
                starts[lo] != 0 or stops[hi - 1] != den or starts[lo + 1 : hi] != stops[lo : hi - 1]
                for lo, hi in zip(first, first[1:])
            )
        ):
            raise self._tick_error(counts, starts, stops, den)
        ticks = np.array((starts, stops))
        if ticks.dtype.kind != "i" or not isinstance(den, int):
            raise TypeError("segment time bounds must be integer ticks")
        return ticks.astype(np.int64, copy=False), np.array(first)

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
        ends.setflags(write=False)
        return _Columns(ticks, arc, counts, first, block, ends)

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

    def _tick_error(self, counts, starts, stops, den) -> InternalConsistencyError:
        """The error of the first robot whose segment ticks fail to tile [0, 1]
        over ``den``, as :meth:`_ticks` words it."""
        if len(counts) != self.query.robot_count:
            return InternalConsistencyError("one segment list per robot is required")
        lo = 0
        for robot, count in enumerate(counts):
            if not count:
                return InternalConsistencyError(f"robot {robot} has no segments")
            tick = 0
            for k in range(lo, lo + count):
                if starts[k] != tick or not starts[k] < stops[k]:
                    return InternalConsistencyError(
                        f"robot {robot} has a gap/overlap at t={Fraction(tick, den)}"
                    )
                tick = stops[k]
            if tick != den:
                return InternalConsistencyError(f"robot {robot} segments do not span [0, 1]")
            lo += count
        return InternalConsistencyError(f"tick denominator {den} is above 2**53")

    @cached_property
    def _operands(self) -> np.ndarray:
        """The operand columns of :func:`evaluate`, one per table row."""
        columns, d = self._columns, self.query.dim
        block, arcs = columns.block, np.flatnonzero(columns.arc)
        operands = np.zeros((VECTORS + 4 * d, len(block)))
        origin, step, basis_u, basis_v = operands[VECTORS:].reshape(4, d, -1)
        fields = block[arcs].T
        operands[T0] = columns.start / self.den
        operands[DURATION] = (columns.stop - columns.start) / self.den
        operands[RADIUS] = -0.0
        operands[RADIUS, arcs], operands[ANGLE, arcs] = fields[d], fields[3 * d + 1]
        origin[:] = block[:, :d].T
        basis_u[:, arcs] = fields[d + 1 : 2 * d + 1]
        basis_v[:, arcs] = fields[2 * d + 1 : 3 * d + 1]
        with np.errstate(over="ignore", invalid="ignore"):
            step[:] = np.where(columns.arc, -0.0, (block[:, d : 2 * d] - block[:, :d]).T)
            operands[SWEEP, arcs] = fields[3 * d + 2] - fields[3 * d + 1]
        operands.setflags(write=False)
        return operands

    def _at(self, rows: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Positions (len(ts), d) of table rows ``rows`` at float times
        ``ts``, by :func:`evaluate`; a row at its own start or stop time
        gives its stored initial or final point."""
        columns, d = self._columns, self.query.dim
        g = self._operands.take(rows, axis=1)
        out = evaluate(g, ts[None])[:, 0].T
        ends = columns.ends[rows]
        out = np.where((ts == g[T0])[:, None], ends[:, :d], out)
        return np.where((ts == columns.stop[rows] / self.den)[:, None], ends[:, d:], out)

    @cached_property
    def segments(self) -> tuple[tuple[PathSegment, ...], ...]:
        """Per robot, its segments in time order, as records of the table.
        The benchmark's plan-shape counts read their ``t0`` and
        ``duration``."""
        columns = self._columns
        built = list(
            map(PathSegment, *columns.ticks.tolist(), repeat(self.den), range(len(columns.arc)))
        )
        return tuple(
            tuple(built[lo : lo + count])
            for lo, count in zip(columns.first.tolist(), columns.counts.tolist())
        )

    def segment_at(self, robot: int, t) -> PathSegment:
        """The segment ``robot`` follows at time ``t``: its first whose stop
        tick exceeds t * den, exactly, else its last."""
        _check_time(t)
        columns = self._columns
        # By bisection on the robot's stop ticks: t * den < stop iff
        # floor(t * den) < stop.
        num, den = (Fraction(t) * self.den).as_integer_ratio()
        lo = int(columns.first[robot])
        count = int(columns.counts[robot])
        row = lo + min(bisect_right(columns.stop, num // den, lo, lo + count) - lo, count - 1)
        start, stop = columns.ticks[:, row].tolist()
        return PathSegment(start, stop, self.den, row)

    def position(self, robot: int, t) -> np.ndarray:
        return self._at(np.array([self.segment_at(robot, t).row]), np.array([float(t)]))[0]

    def configuration(self, t) -> np.ndarray:
        rows = [self.segment_at(robot, t).row for robot in range(self.robot_count)]
        return self._at(np.array(rows), np.full(len(rows), float(t)))

    def positions_at(self, robot: int, ts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation of one robot at many times (ascending or
        not), on the segments :meth:`segment_at` picks; ValueError if any
        time lies outside [0, 1] or is NaN."""
        ts = np.asarray(ts, dtype=float)
        if ts.size:
            _check_time(ts.min())
            _check_time(ts.max())
        columns, den = self._columns, self.den
        lo, count = int(columns.first[robot]), int(columns.counts[robot])
        stops = columns.stop[lo : lo + count]
        # The least float at or past each stop tick: the float of a tick that
        # rounds down still lies before it.
        bounds = stops / den
        below = [Fraction(b) < Fraction(s, den) for b, s in zip(bounds.tolist(), stops.tolist())]
        bounds[below] = np.nextafter(bounds[below], 2.0)
        index = np.minimum(np.searchsorted(bounds, ts, side="right"), count - 1)
        return self._at(lo + index, ts)
