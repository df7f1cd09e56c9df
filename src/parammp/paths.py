"""Exact piecewise path representation: linear and circular-arc segments.

Paths are kept symbolic (segment lists with closed-form evaluation), never
pre-sampled, so endpoint identities and separation certificates can be checked
against the defining formulas.  Global segment time bounds are integer ticks
over one denominator D per path: the planner places every stage on a tick, so
the boundaries are exact, reproducible and shared by all robots without
rational arithmetic.  Plan JSON writes each as the reduced rational tick / D.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
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


def endpoint_tol(query: ConfigurationQuery) -> float:
    """``ENDPOINT_TOL`` times the query's largest coordinate magnitude where
    that exceeds 1: arc endpoints round in proportion to the coordinates."""
    return ENDPOINT_TOL * max(1.0, query.extent)


@dataclass(frozen=True, eq=False)
class LinearMove:
    """Straight-line motion from ``start`` to ``end`` at constant velocity."""

    start: np.ndarray
    end: np.ndarray

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
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "basis_u", basis_u)
        object.__setattr__(self, "basis_v", basis_v)
        # The end points, evaluated once: junction checks read them often.
        for name, u in (("initial", 0.0), ("final", 1.0)):
            object.__setattr__(self, name, self.at(u))
            getattr(self, name).setflags(write=False)

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

    def is_constant(self) -> bool:
        return self.angle_start == self.angle_end


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
class PiecewisePath:
    """A collision-managed motion of all robots over global time [0, 1].

    Per robot the segments tile [0, 1] with no gaps or overlaps, consecutive
    segments agree at their junction, the path starts at ``query.starts`` and
    ends at ``query.goals``.  Their ticks share one denominator, ``den``.
    Obstacles are those of the query, untouched.
    """

    query: ConfigurationQuery
    segments: tuple[tuple[PathSegment, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(tuple(per) for per in self.segments))
        self._validate()

    @property
    def obstacles(self) -> np.ndarray:
        return self.query.obstacles

    @property
    def robot_count(self) -> int:
        return self.query.robot_count

    @property
    def den(self) -> int:
        return self.segments[0][0].den

    def _validate(self):
        if len(self.segments) != self.query.robot_count:
            raise InternalConsistencyError("one segment list per robot is required")
        den = self.segments[0][0].den if self.segments[0] else 0
        # Per robot, its start and every segment's final point against every
        # segment's initial point and its goal: one norm for the whole path.
        before, after = [], []
        for robot, per_robot in enumerate(self.segments):
            if not per_robot:
                raise InternalConsistencyError(f"robot {robot} has no segments")
            tick = 0
            for seg in per_robot:
                if seg.start != tick or seg.den != den:
                    raise InternalConsistencyError(
                        f"robot {robot} has a gap/overlap at t={Fraction(tick, den)}"
                    )
                tick = seg.stop
            if tick != den:
                raise InternalConsistencyError(f"robot {robot} segments do not span [0, 1]")
            before += [self.query.starts[robot], *(seg.move.final for seg in per_robot)]
            after += [*(seg.move.initial for seg in per_robot), self.query.goals[robot]]
        # Tested as "not <=" so that a NaN point fails.
        try:
            gaps = np.linalg.norm(np.subtract(before, after), axis=1)
        except ValueError:  # ragged: some segment point has another dimension
            raise DimensionMismatchError(f"segment points must have {self.query.dim} coordinates")
        far = np.flatnonzero(~(gaps <= endpoint_tol(self.query)))
        if far.size:
            ends = np.cumsum([len(per_robot) + 1 for per_robot in self.segments])
            robot = int(np.searchsorted(ends, far[0], side="right"))
            per_robot = self.segments[robot]
            junction = far[0] - ends[robot] + len(per_robot) + 1
            at = (
                "its start" if junction == 0 else "its goal" if junction == len(per_robot)
                else f"t={per_robot[junction].t0}"
            )
            raise InternalConsistencyError(f"robot {robot} is discontinuous at {at}")

    def segment_at(self, robot: int, t) -> PathSegment:
        _check_time(t)
        per_robot = self.segments[robot]
        # Linear scan, O(segments) per call: a plan with k swaps gives a robot
        # O(k) segments.  Ticks compare exactly against t as a ratio of ints;
        # positions_at evaluates many times at once.
        num, den = (Fraction(t) * self.den).as_integer_ratio()
        for seg in per_robot:
            if num < seg.stop * den:
                return seg
        return per_robot[-1]

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
        bounds = np.array([seg.stop / seg.den for seg in self.segments[robot]])
        idx = np.searchsorted(bounds, ts, side="right")
        idx = np.minimum(idx, len(bounds) - 1)
        for seg_index in np.unique(idx):
            mask = idx == seg_index
            out[mask] = self.segments[robot][seg_index].at_many(ts[mask])
        return out
