"""Geometry of robot/obstacle queries: frames, projections, region labels,
generalized orderings and clearance functions.

A query bundles the start and goal positions of ``n`` point robots together
with ``m`` stationary point obstacles in ``R^d``.  All classification in this
module happens along a single oriented line: every point is reduced to its
scalar projection onto the line, and the combinatorics of which projections
coincide determines the region label ``(j, t)`` and, in the generic case, the
pair of generalized orderings that drives the planner.

A query keeps its points in one read-only point table, starts | goals |
obstacles, which it checks and measures with a few whole-table operations;
its three arrays are row blocks of that table.

That combinatorics is worked out once per query and frame, in one table
(:func:`_ties`) that the query keeps: the comparison values of the 2n + m
points, starts | goals | obstacles, and a tie-class rank for each.  Two
points are tied exactly when their ranks are equal, and ranks increase
along the line.  Every discrete decision reads the
table: ``classify`` counts the ranks, ``orderings`` sorts robot indices and
obstacle blocks (obstacles grouped by rank) by them, and the gap families
skip pairs of equal rank.  Planning compares exactly, so there ranks and
values tie and order alike: the planner's sweep keeps the values up to date
as starts move, and the start ordering as a list sorted by them, and
``clearance_eta`` reads them.  Only ``classify`` takes a ``snap_tol``, under
which nearly equal values chain into one class, to report labels.

Comparison values are *scale-free* dot products along ``Frame.axis`` (exact
for coordinate-axis frames and for axis-aligned obstacle pairs), so the
discrete decisions do not see the rounding of the normalized direction
``Frame.e``.  In the sweep ``e`` is only a direction: a length along the
line is a difference of comparison values over ``|axis|``, as in
``clearance_eta`` and in the places the swaps drop their robots, so every
coordinate along the line comes from the one tie table.  The one projection
on ``e`` left is ``desingularization_gap``: read from the tie table instead,
the split it sizes failed to reach a generic configuration on a near-grid
obstacle-pair query that plans with ``e`` (1 of 29,878 such queries tried).
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import ModeUnsupportedError, NotGenericError, QueryValidationError

__all__ = [
    "ConfigurationQuery",
    "Frame",
    "FrameMode",
    "OrderingPair",
    "RegionLabel",
    "Side",
    "classify",
    "component_count",
    "make_frame",
    "orderings",
]


class FrameMode(enum.Enum):
    """How the projection line is chosen.

    FIXED uses the first coordinate axis regardless of the input (valid in
    every dimension).  OBSTACLE_PAIR aims the line from the first obstacle at
    the second and is only available in even dimensions with at least two
    obstacles, where a perpendicular unit vector can be assigned continuously.
    """

    FIXED = "fixed"
    OBSTACLE_PAIR = "obstacle_pair"


class Side(enum.Enum):
    """Which side of an obstacle projection a robot moves toward."""

    LEFT = "left"
    RIGHT = "right"


def _as_points(value, name: str, errors: list[str]) -> np.ndarray:
    # No copy: the query copies its points once, into its point table.
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):  # ragged, or an entry that is no number
        errors.append(f"{name}: expected a 2-d array of numbers")
        return np.empty((0, 0))
    except OverflowError:  # an integer beyond float range
        errors.append(f"{name}: a coordinate is beyond float range")
        return np.empty((0, 0))
    if arr.ndim != 2:
        errors.append(f"{name}: expected a 2-d array of points, got shape {arr.shape}")
        return np.empty((0, 0))
    return arr


def _distinct(points: np.ndarray, n: int) -> bool:
    """Whether no two points of a point table (starts | goals | obstacles,
    ``n`` robots) coincide as :func:`_coincidences` counts them: within each
    array, and starts or goals with obstacles.  Each row becomes one bytes
    key, after ``+ 0.0`` turns -0.0 into 0.0, so that keys are equal exactly
    when the rows are equal as tuples; one set of keys per array."""
    rows = points + 0.0
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
    starts, goals, obstacles = set(keys[:n]), set(keys[n:2 * n]), set(keys[2 * n:])
    return (
        len(starts) + len(goals) + len(obstacles) == len(keys)
        and obstacles.isdisjoint(starts)
        and obstacles.isdisjoint(goals)
    )


def _coincidences(named: dict[str, np.ndarray]) -> list[str]:
    """Messages for coinciding points of the "starts", "goals" and
    "obstacles" arrays: pairs i < k within each array, then starts and goals
    against obstacles, each in index order.  One pass groups rows by value."""
    rows = {name: list(map(tuple, arr.tolist())) for name, arr in named.items()}
    where: dict[tuple, dict[str, list[int]]] = {}
    for name, keys in rows.items():
        for k, key in enumerate(keys):
            where.setdefault(key, {}).setdefault(name, []).append(k)
    pairs = [(name, name) for name in rows] + [("starts", "obstacles"), ("goals", "obstacles")]
    return [
        f"{a}[{i}] coincides with {b}[{k}]"
        for a, b in pairs
        for i, key in enumerate(rows[a])
        for k in where[key].get(b, ())
        if a != b or i < k
    ]


@dataclass(frozen=True, eq=False)
class ConfigurationQuery:
    """One planning query: robot starts, robot goals, obstacle positions.

    Attributes:
        starts: (n, d) array, pairwise distinct, disjoint from obstacles.
        goals: (n, d) array, pairwise distinct, disjoint from obstacles.
        obstacles: (m, d) array, pairwise distinct.

    Every coordinate is finite.  Starts may coincide with goals (a robot that
    does not need to move).  A query never changes after construction.

    The points are copied once, into one read-only (2n + m, d) point table
    in the order starts | goals | obstacles, the order of the tie table
    (:func:`_ties`); ``starts``, ``goals`` and ``obstacles`` are its
    read-only row blocks.  The caller's arrays are neither frozen nor shared.
    Validation is a few operations on the whole table: finiteness in one
    check, distinctness as the sizes and overlaps of one set of row keys per
    array (:func:`_distinct`).  The per-row and per-pair listings run only
    when a check fails, to word the errors.
    """

    starts: np.ndarray
    goals: np.ndarray
    obstacles: np.ndarray

    def __post_init__(self):
        errors: list[str] = []
        starts = _as_points(self.starts, "starts", errors)
        goals = _as_points(self.goals, "goals", errors)
        obstacles = _as_points(self.obstacles, "obstacles", errors)
        if not errors:
            d = starts.shape[1]
            if d < 2:
                errors.append(f"dimension must be at least 2, got {d}")
            if goals.shape[1] != d or obstacles.shape[1] != d:
                errors.append(
                    "inconsistent dimensions: starts %s, goals %s, obstacles %s"
                    % (starts.shape, goals.shape, obstacles.shape)
                )
            if len(starts) < 1:
                errors.append("at least one robot is required")
            if len(goals) != len(starts):
                errors.append(
                    f"starts and goals must pair up: {len(starts)} starts, {len(goals)} goals"
                )
            if len(obstacles) < 1:
                errors.append("at least one obstacle is required")
        if errors:
            raise QueryValidationError(errors)
        n = len(starts)
        points = np.concatenate([starts, goals, obstacles])
        points.setflags(write=False)
        starts, goals, obstacles = points[:n], points[n:2 * n], points[2 * n:]
        if not np.isfinite(points).all():
            errors.extend(
                f"{_entry_name(k, n)} has a non-finite coordinate"
                for k in np.flatnonzero(~np.isfinite(points).all(axis=1)).tolist()
            )
        elif not _distinct(points, n):
            errors.extend(
                _coincidences({"starts": starts, "goals": goals, "obstacles": obstacles})
            )
        if errors:
            raise QueryValidationError(errors)
        object.__setattr__(self, "_points", points)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "goals", goals)
        object.__setattr__(self, "obstacles", obstacles)

    @property
    def dim(self) -> int:
        return self.starts.shape[1]

    @property
    def robot_count(self) -> int:
        return self.starts.shape[0]

    @property
    def obstacle_count(self) -> int:
        return self.obstacles.shape[0]

    @cached_property
    def _tie_tables(self) -> dict:
        """The tie tables (:func:`_ties`) worked out for this query, by the
        bytes of the frame axis they project on."""
        return {}

    @cached_property
    def extent(self) -> float:
        """The largest coordinate magnitude of any point, computed once: the
        planner and the path's junction check both read it."""
        return float(np.abs(self._points).max())


@dataclass(frozen=True, eq=False)
class Frame:
    """An oriented projection line through the origin.

    Attributes:
        e: unit vector along the line (defines orientation and the scalar
            projection ``q(x) = e . x``).
        e_perp: unit vector orthogonal to ``e``; the plane span(e, e_perp)
            hosts every circular avoidance manoeuvre.
        mode: how the frame was chosen.
        axis: unnormalized direction used for equality/order decisions on
            projection values.  Parallel to ``e`` with positive scale.
    """

    e: np.ndarray
    e_perp: np.ndarray
    mode: FrameMode
    axis: np.ndarray

    def __post_init__(self):
        # One copy each, so that freezing them leaves the caller's arrays be.
        e = np.array(self.e, dtype=float)
        e_perp = np.array(self.e_perp, dtype=float)
        axis = np.array(self.axis, dtype=float)
        # On Python floats, which cost less than numpy calls on d entries.
        # The dot products zip the vectors, so their lengths are checked first.
        if e.ndim != 1 or not e.shape == e_perp.shape == axis.shape:
            raise ValueError("e, e_perp and axis must be vectors of one length")
        e_floats, e_perp_floats = e.tolist(), e_perp.tolist()
        # Written as "not <= / not >" so that a NaN component fails them.
        if not abs(math.hypot(*e_floats) - 1.0) <= 1e-12:
            raise ValueError("e must be a unit vector")
        if not abs(math.hypot(*e_perp_floats) - 1.0) <= 1e-12:
            raise ValueError("e_perp must be a unit vector")
        if not abs(sum(map(operator.mul, e_floats, e_perp_floats))) <= 1e-12:
            raise ValueError("e and e_perp must be orthogonal")
        if not sum(map(operator.mul, axis.tolist(), e_floats)) > 0.0:
            raise ValueError("axis must point along e")
        for arr in (e, e_perp, axis):
            arr.setflags(write=False)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "e_perp", e_perp)
        object.__setattr__(self, "axis", axis)

    @property
    def dim(self) -> int:
        return self.e.shape[0]

    @cached_property
    def _axis_norm(self) -> float:
        """The length of ``axis``, which turns comparison-value gaps into
        lengths."""
        return float(np.linalg.norm(self.axis))

    @cached_property
    def _e_floats(self) -> list:
        """``e`` as a list of floats, which the swaps build their rows from."""
        return self.e.tolist()

    @cached_property
    def _e_perp_floats(self) -> list:
        """``e_perp`` as a list of floats, as :attr:`_e_floats`."""
        return self.e_perp.tolist()


def quarter_turn(v: np.ndarray) -> np.ndarray:
    """(x1, x2, ..., x_{d-1}, x_d) -> (-x2, x1, ..., -x_d, x_{d-1}).

    An isometry of R^d (d even) sending every vector to a perpendicular one;
    this is what lets the perpendicular direction vary continuously with the
    obstacle-pair direction.
    """
    out = np.empty_like(v)
    out[0::2] = -v[1::2]
    out[1::2] = v[0::2]
    return out


def make_frame(query: ConfigurationQuery, mode: Union[FrameMode, str]) -> Frame:
    """Build the projection frame for a query.

    FIXED: the line is the first coordinate axis and ``e_perp`` the second.
    OBSTACLE_PAIR: the line points from obstacle 0 toward obstacle 1 and
    ``e_perp = quarter_turn(e)``; requires even dimension and m >= 2.  The
    axis is ``o1 - o0`` scaled by a power of two to a largest component in
    [0.5, 1): exact, so ties and order are those of ``o1 - o0``, and its norm
    neither underflows nor overflows however close or far the obstacles are.

    Raises:
        ModeUnsupportedError: OBSTACLE_PAIR with odd dimension or m < 2.
    """
    mode = FrameMode(mode)
    d = query.dim
    if mode is FrameMode.FIXED:
        e = np.zeros(d)
        e[0] = 1.0
        e_perp = np.zeros(d)
        e_perp[1] = 1.0
        return Frame(e=e, e_perp=e_perp, mode=mode, axis=e)
    if d % 2 != 0:
        raise ModeUnsupportedError(
            f"obstacle-pair frames need an even dimension, got d={d}"
        )
    if query.obstacle_count < 2:
        raise ModeUnsupportedError("obstacle-pair frames need at least two obstacles")
    o0, o1 = query.obstacles[:2]
    with np.errstate(over="ignore"):
        w = o1 - o0
    if not np.isfinite(w).all():  # half of it, which the scaling takes out again
        w = o1 / 2 - o0 / 2
    w = np.ldexp(w, -np.frexp(np.abs(w).max())[1])
    e = w / np.linalg.norm(w)
    return Frame(e=e, e_perp=quarter_turn(e), mode=mode, axis=w)


@dataclass(frozen=True)
class RegionLabel:
    """Continuity-region label of a query.

    j counts projection values carried only by robots, t counts distinct
    obstacle projection values; the domain index is c = j + t.  The planner
    is continuous on each set of queries sharing a value of c.
    """

    j: int
    t: int

    @property
    def c(self) -> int:
        return self.j + self.t


# An entry of an ordering: a robot index, or an obstacle block, the set of
# obstacle indices that share one comparison value.
Entry = Union[int, frozenset[int]]


@dataclass(frozen=True)
class OrderingPair:
    """Left-to-right orderings of robots and obstacle blocks.

    ``sigma`` orders the robots, by their starts, together with the obstacle
    blocks; ``sigma_prime`` does the same with the robots' goals.  Plain
    data: :func:`parammp.planner.transposition_sequence` validates a pair.
    """

    sigma: tuple[Entry, ...]
    sigma_prime: tuple[Entry, ...]


def _ties(
    query: ConfigurationQuery, frame: Frame, snap_tol: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """The tie table of a query: comparison values of the 2n + m points in the
    order starts | goals | obstacles, and the tie-class rank of each, both
    read-only.

    Ranks are 0, 1, 2, ... along the line.  Sorted values more than the
    tolerance apart start a new class (single linkage); with ``snap_tol`` 0,
    as in planning, they are exact-equality classes.  ``classify`` alone takes
    a positive ``snap_tol``, in length units, scaled by the axis norm.

    With ``snap_tol`` 0 the table is worked out once per query and frame
    axis (:func:`_tie_table`) and kept on the query: a plan reads it in
    ``classify``, ``orderings``, ``desingularization_gap`` and the sweep.

    Raises:
        QueryValidationError: ``snap_tol`` is negative, infinite or NaN, or a
            comparison value overflows (``plan`` refuses such coordinates).
    """
    if not 0 <= snap_tol < math.inf:
        raise QueryValidationError([f"snap_tol: expected a finite number >= 0, got {snap_tol!r}"])
    if snap_tol:
        return _tie_table(query, frame, snap_tol)
    tables, axis = query._tie_tables, frame.axis.tobytes()
    if axis not in tables:
        tables[axis] = _tie_table(query, frame, 0.0)
    return tables[axis]


def _tie_table(query: ConfigurationQuery, frame: Frame, snap_tol: float):
    """The tie table of :func:`_ties`, worked out."""
    # Three products, one per row block of the point table, and not one
    # product of the whole table: numpy and BLAS choose how to sum by the
    # shape, and on 68 of the benchmark's 2,928 documents (its three
    # workloads at seeds 1-3; all one-robot obstacle-pair queries) the
    # stacked product differed in bits from the three, which match the
    # products of standalone copies of the arrays on every document.
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.concatenate(
            [query.starts @ frame.axis, query.goals @ frame.axis, query.obstacles @ frame.axis]
        )
    tol = snap_tol * frame._axis_norm if snap_tol else 0.0
    order = values.argsort(kind="stable")
    ordered = values[order]
    if not -math.inf < ordered[0] <= ordered[-1] < math.inf:  # a NaN sorts last
        raise QueryValidationError(["a comparison value along the frame's axis overflows"])
    rank = np.empty(len(values), dtype=np.intp)
    rank[order[0]] = 0
    rank[order[1:]] = (ordered[1:] - ordered[:-1] > tol).cumsum()
    values.setflags(write=False)
    rank.setflags(write=False)
    return values, rank


def classify(query: ConfigurationQuery, frame: Frame, snap_tol: float = 0.0) -> RegionLabel:
    """Label a query by its projection-coincidence pattern.

    t is the number of distinct obstacle projection values, j the number of
    projection values attained only by robot starts/goals.  Together
    ``j + t`` equals the number of distinct projection values of the whole
    query.  ``snap_tol`` (absolute, in length units) optionally merges nearly
    equal projections for reporting; ``plan`` accepts only the default 0.
    """
    _, rank = _ties(query, frame, snap_tol)
    return _label(rank, query.robot_count)


def _label(rank: np.ndarray, n: int) -> RegionLabel:
    t = len(set(rank[2 * n:].tolist()))
    return RegionLabel(j=int(rank.max()) + 1 - t, t=t)


def _entry_name(k: int, n: int) -> str:
    """The name of entry ``k`` of a tie table (starts | goals | obstacles)."""
    if k < n:
        return f"starts[{k}]"
    return f"goals[{k - n}]" if k < 2 * n else f"obstacles[{k - 2 * n}]"


def orderings(query: ConfigurationQuery, frame: Frame) -> OrderingPair:
    """Generalized ordering pair of a generic query: robot indices and
    obstacle blocks sorted by their ranks in the tie table, with the starts
    for ``sigma`` and the goals for ``sigma_prime``.

    Requires the generic condition j = 2n: all robot projections (starts and
    goals alike) pairwise distinct and distinct from every obstacle
    projection.

    Raises:
        NotGenericError: some robot projection coincides with another
            projection value.
    """
    _, rank = _ties(query, frame)
    n = query.robot_count
    label = _label(rank, n)
    if label.j != 2 * n:
        raise NotGenericError(
            f"query is not generic: j={label.j} < 2n={2 * n} (c={label.c})"
        )
    blocks: dict[int, frozenset[int]] = {}
    for k, r in enumerate(rank[2 * n:].tolist()):
        blocks[r] = blocks.get(r, frozenset()) | {k}

    def sequence(robot_rank: np.ndarray) -> tuple[Entry, ...]:
        at = {**blocks, **{r: i for i, r in enumerate(robot_rank.tolist())}}
        return tuple(at[r] for r in sorted(at))

    return OrderingPair(sigma=sequence(rank[:n]), sigma_prime=sequence(rank[n:2 * n]))


def desingularization_gap(query: ConfigurationQuery, frame: Frame) -> float:
    """Smallest positive projection gap between two points that are not both
    obstacles.

    Pairs that are tied (equal rank in the tie table) do not count.  The
    splitting shifts give starts and goals different offsets, so an
    originally positive start-goal gap must also exceed the total shift for
    the result to be generic; counting that family in the bound makes the
    genericity guarantee unconditional.  When every counted gap vanishes
    (every point projects to one value) the fallback is the query's extent,
    its largest coordinate magnitude, so that the split scales with the
    query; it is positive, as a valid query's points are distinct.
    """
    _, rank = _ties(query, frame)
    n = query.robot_count
    q = np.concatenate(
        [query.starts @ frame.e, query.goals @ frame.e, query.obstacles @ frame.e]
    )
    # Obstacle-obstacle pairs never bound the gap.
    robot = np.arange(len(q)) < 2 * n
    counted = (robot[:, None] | robot) & (rank[:, None] != rank)
    gaps = np.abs(q[:, None] - q)[counted]
    return float(gaps.min()) if gaps.size else query.extent


def _block_distance(obstacles: np.ndarray, obstacle: int, block) -> float:
    """Term (b) of :func:`clearance_eta`: the distance from ``obstacle`` to
    the nearest other member of its ``block`` (inf if it has none)."""
    others = [k for k in block if k != obstacle]
    distances = [float(np.linalg.norm(obstacles[k] - obstacles[obstacle])) for k in others]
    return min(distances, default=math.inf)


def clearance_eta(
    obstacle: float, robot: float, beyond: float, frame: Frame, block_distance: float
) -> float:
    """Clearance available for swinging a robot around an obstacle toward a
    side, from comparison values of a tie table: the obstacle's, the robot
    start's and ``beyond``, the nearest value of any point strictly beyond
    the obstacle's on that side (-inf or inf, left or right, if none is).

    The clearance is the minimum of
      (a) |beyond - obstacle|, the distance from the obstacle's projection to
          the nearest other projection value strictly on the destination side,
      (b) ``block_distance``, the full-space distance to the nearest other
          obstacle sharing the same projection value (:func:`_block_distance`),
      (c) |robot - obstacle|, the projection gap between the robot and the
          obstacle,
    where (a) and (b) are inf when their candidate sets are empty.  The
    planner's sweep checks that the robot's start is the neighbour of the
    obstacle's block on the far side of that side in the start ordering.  The
    result is then strictly positive on generic queries and varies
    continuously while the ordering pair stays fixed.
    """
    gap = min(abs(robot - obstacle), abs(beyond - obstacle))
    return min(gap / frame._axis_norm, block_distance)


def component_count(n: int, m: int) -> int:
    """Number of generic ordering pairs: ((n+m)!)^2 / m!, exactly.

    Equals the number of connected components of the fully generic region for
    n robots and m obstacles.  Computed with arbitrary-precision integers;
    the division is always exact.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    numerator = math.factorial(n + m) ** 2
    quotient, remainder = divmod(numerator, math.factorial(m))
    assert remainder == 0
    return quotient
