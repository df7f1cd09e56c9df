"""Elementary fibrewise motions of a query's robot starts.

All constructions here move robot starts while the goals and the obstacles
stay put.  Four primitives cover everything the planner needs:

* straight-line interpolation when the start and goal orderings agree,
* exchanging two adjacent robots through a shared half-circle,
* carrying one robot around an obstacle block on a clearance half-circle,
* splitting coincident projections apart by staggered shifts along the line.

The two swaps are deformations: a list of stages that knows no global time.
The planner plays one on a window [lo, hi] of global time it chooses: stage
i of s fills [i/s, (i+1)/s] of that window (:func:`append_start_moves`).  A
robot gets segments only where it moves, through :func:`append_segment`,
which fills each rest as the gap before a move.  Splitting is no deformation:
:func:`desingularize` returns the split query, and the planner draws the
straight shifts to and from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import InternalConsistencyError, PreconditionError, QueryValidationError
from .geometry import (
    ConfigurationQuery,
    Frame,
    RobotStart,
    Side,
    clearance_eta,
    desingularization_gap,
    orderings,
)
from .paths import ArcMove, LinearMove, Move, PathSegment, PiecewisePath

__all__ = [
    "Deformation",
    "affine_section",
    "append_segment",
    "append_start_moves",
    "desingularize",
    "evaluate_deformation",
    "straight_moves",
    "swap_case_a",
    "swap_case_b",
]


def _checked_query(starts, goals, obstacles) -> ConfigurationQuery:
    """The query a planner step ended on.  If it is not valid (two points
    coincide, a shift overflowed), the step is at fault, not the caller's
    query: InternalConsistencyError."""
    try:
        return ConfigurationQuery(starts, goals, obstacles)
    except QueryValidationError as exc:
        raise InternalConsistencyError(
            f"deformation ended on an invalid query: {exc}"
        ) from exc


@dataclass(frozen=True, eq=False)
class Deformation:
    """A staged, obstacle-preserving motion of a query's robot starts.

    Each stage maps every robot it moves to its ``Move``; a robot absent from
    a stage rests at its position from the previous stage.  Stage i of s
    fills [i/s, (i+1)/s] of whatever window the deformation is played on.
    Goals and obstacles never move.
    """

    query: ConfigurationQuery
    stages: tuple[Mapping[int, Move], ...]

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        positions = np.array(self.query.starts)
        for stage in self.stages:
            for robot, move in stage.items():
                if np.linalg.norm(move.initial - positions[robot]) > 1e-9:
                    raise InternalConsistencyError(
                        f"stage does not chain for robot {robot}"
                    )
                positions[robot] = move.final
        object.__setattr__(self, "_end_starts", positions)

    def starts_at(self, t) -> np.ndarray:
        positions = np.array(self.query.starts)
        for t0, t1, stage in _stage_windows(self.stages, Fraction(0), Fraction(1)):
            if t >= t1:
                for robot, move in stage.items():
                    positions[robot] = move.final
            else:
                u = float((t - float(t0)) / float(t1 - t0))
                for robot, move in stage.items():
                    positions[robot] = move.at(u)
                break
        return positions

    def end_query(self) -> ConfigurationQuery:
        """The configuration the deformation ends at; InternalConsistencyError
        if it is not a valid query."""
        return _checked_query(self._end_starts, self.query.goals, self.query.obstacles)


def evaluate_deformation(
    deformation: Deformation, query: ConfigurationQuery, t: float
) -> ConfigurationQuery:
    """Configuration reached at local time t; goals and obstacles returned
    unchanged.

    ``query`` must be the configuration the deformation was built for.
    """
    if t < 0 or t > 1:
        raise ValueError(f"time {t} outside [0, 1]")
    if query is not deformation.query and not (
        np.array_equal(query.starts, deformation.query.starts)
        and np.array_equal(query.goals, deformation.query.goals)
        and np.array_equal(query.obstacles, deformation.query.obstacles)
    ):
        raise PreconditionError("deformation was built for a different configuration")
    return ConfigurationQuery(
        deformation.starts_at(t), deformation.query.goals, deformation.query.obstacles
    )


def _line_point(frame: Frame, value: float) -> np.ndarray:
    return value * frame.e


def straight_moves(
    query: ConfigurationQuery, frame: Frame, snap_tol: float = 0.0
) -> list[LinearMove]:
    """Each robot's straight line from its start to its goal.

    Valid exactly when the start and goal orderings agree (same token
    pattern): order preservation of the projections then rules out every
    collision along the way.

    Raises:
        PreconditionError: the orderings differ.
        NotGenericError: the query is not generic.
    """
    pair = orderings(query, frame, snap_tol)
    if not pair.patterns_equal():
        raise PreconditionError(
            "straight-line section needs identical start and goal orderings"
        )
    return [LinearMove(query.starts[r], query.goals[r]) for r in range(query.robot_count)]


def affine_section(
    query: ConfigurationQuery, frame: Frame, snap_tol: float = 0.0
) -> PiecewisePath:
    """The straight-line motions of :func:`straight_moves` as a path on [0, 1]."""
    segments = [
        [PathSegment(robot=r, t0=Fraction(0), t1=Fraction(1), move=move)]
        for r, move in enumerate(straight_moves(query, frame, snap_tol))
    ]
    return PiecewisePath(query=query, segments=segments)


def swap_case_a(
    query: ConfigurationQuery,
    frame: Frame,
    left_robot: int,
    right_robot: int,
    snap_tol: float = 0.0,
) -> Deformation:
    """Exchange the projection order of two adjacent robots.

    Requires the two start tokens to be adjacent in the start ordering with
    ``left_robot`` projecting below ``right_robot``.  Three stages: both
    robots drop onto the projection line, trade places along a shared
    half-circle in the (e, e_perp) plane (staying antipodal, so their distance
    is constantly the full gap), then rise to each other's original position.
    Goals never move; every other robot rests.

    Raises:
        PreconditionError: tokens are not adjacent or are mis-ordered.
    """
    pair = orderings(query, frame, snap_tol)
    positions = {
        token.robot: pos
        for pos, token in enumerate(pair.sigma)
        if isinstance(token, RobotStart)
    }
    if left_robot not in positions or right_robot not in positions:
        raise PreconditionError("unknown robot index")
    if positions[right_robot] - positions[left_robot] != 1:
        raise PreconditionError(
            f"robots {left_robot} and {right_robot} are not adjacent in the start ordering"
        )
    q_left = float(np.dot(frame.e, query.starts[left_robot]))
    q_right = float(np.dot(frame.e, query.starts[right_robot]))
    if not q_left < q_right:
        raise PreconditionError("left robot must project strictly below right robot")

    a = _line_point(frame, q_left)
    b = _line_point(frame, q_right)
    mid = 0.5 * (a + b)
    radius = 0.5 * (q_right - q_left)
    # The left robot traverses angles [pi, 2*pi], the right one [0, pi]; both
    # arcs share center and radius, so the pair stays antipodal throughout.
    arc_left = ArcMove(
        center=mid,
        radius=radius,
        basis_u=frame.e,
        basis_v=frame.e_perp,
        angle_start=math.pi,
        angle_end=2 * math.pi,
    )
    arc_right = ArcMove(
        center=mid,
        radius=radius,
        basis_u=frame.e,
        basis_v=frame.e_perp,
        angle_start=0.0,
        angle_end=math.pi,
    )
    stages = (
        {
            left_robot: LinearMove(query.starts[left_robot], a),
            right_robot: LinearMove(query.starts[right_robot], b),
        },
        {left_robot: arc_left, right_robot: arc_right},
        {
            left_robot: LinearMove(b, query.starts[right_robot]),
            right_robot: LinearMove(a, query.starts[left_robot]),
        },
    )
    return Deformation(query=query, stages=stages)


def swap_case_b(
    query: ConfigurationQuery,
    frame: Frame,
    robot: int,
    obstacle: int,
    side: Side,
    snap_tol: float = 0.0,
) -> Deformation:
    """Carry one robot across the obstacle block containing ``obstacle``.

    ``side`` is the side of the obstacle's projection value the robot ends
    on; the robot must currently sit on the opposite side, adjacent to the
    block.  With clearance eta, three stages move only this robot: drop onto
    the parallel line through the obstacle, slide along it until eta/2 short
    of the obstacle, then swing around the obstacle on the half-circle of
    radius eta/2 in the (e, e_perp) plane, landing eta/2 past it.

    Raises:
        PreconditionError: adjacency or side conditions fail.
    """
    eta = clearance_eta(query, frame, robot, obstacle, side, snap_tol)
    o = query.obstacles[obstacle]
    z = query.starts[robot]
    # Orthogonal projection of z onto the line through o parallel to e.
    drop = o + float(np.dot(frame.e, z - o)) * frame.e
    sign = 1.0 if side is Side.LEFT else -1.0
    near = o + sign * (eta / 2.0) * frame.e
    arc = ArcMove(
        center=o,
        radius=eta / 2.0,
        basis_u=sign * frame.e,
        basis_v=frame.e_perp,
        angle_start=0.0,
        angle_end=math.pi,
    )
    stages = (
        {robot: LinearMove(z, drop)},
        {robot: LinearMove(drop, near)},
        {robot: arc},
    )
    return Deformation(query=query, stages=stages)


def desingularize(
    query: ConfigurationQuery, frame: Frame, snap_tol: float = 0.0
) -> ConfigurationQuery:
    """The generic query that splits every projection coincidence of ``query``
    by staggered shifts along the line.

    Robot start i is shifted by (i+1) * M / (2n+1) * e and robot goal i by
    (n+i+1) * M / (2n+1) * e, where M is the smallest positive projection gap
    any of these shifts could close (see :func:`desingularization_gap`).  All
    2n shift multipliers are distinct, positive and below 1, so the split
    query is generic with the same obstacle pattern, and no two points meet
    while each moves straight to its shifted position.

    Raises:
        InternalConsistencyError: the shifted points are not a valid query
            (a shift overflowed).
    """
    n = query.robot_count
    scale = desingularization_gap(query, frame, snap_tol) / (2 * n + 1)
    shifts = np.arange(1, 2 * n + 1)[:, None] * scale * frame.e
    return _checked_query(
        query.starts + shifts[:n], query.goals + shifts[n:], query.obstacles
    )


def _stage_windows(stages, lo: Fraction, hi: Fraction):
    """Yield (t0, t1, stage), stage i of s on [i/s, (i+1)/s] of [lo, hi]."""
    s = len(stages)
    for i, stage in enumerate(stages):
        yield lo + Fraction(i, s) * (hi - lo), lo + Fraction(i + 1, s) * (hi - lo), stage


def append_segment(
    segments: list[PathSegment], robot: int, t0: Fraction, t1: Fraction, move: Move
):
    """Append ``robot``'s move on [t0, t1] to its segment list.

    A gap before t0 is filled with one rest where ``move`` begins, which is
    where the robot's last move ended.  A rest that continues a rest at the
    same position extends that segment instead.
    """
    end = segments[-1].t1 if segments else Fraction(0)
    if end < t0:
        append_segment(segments, robot, end, t0, LinearMove(move.initial, move.initial))
    if (
        segments
        and isinstance(move, LinearMove)
        and move.is_constant()
        and isinstance(segments[-1].move, LinearMove)
        and segments[-1].move.is_constant()
        and np.array_equal(segments[-1].move.end, move.start)
    ):
        prev = segments.pop()
        segments.append(PathSegment(robot=robot, t0=prev.t0, t1=t1, move=prev.move))
    else:
        segments.append(PathSegment(robot=robot, t0=t0, t1=t1, move=move))


def append_start_moves(
    segments: list[list[PathSegment]],
    deformation: Deformation,
    lo: Fraction,
    hi: Fraction,
):
    """Append the motion of ``deformation``, played on the global window
    [lo, hi], to the per-robot lists ``segments``.  Only the robots a stage
    moves get segments."""
    for t0, t1, stage in _stage_windows(deformation.stages, lo, hi):
        for robot, move in stage.items():
            append_segment(segments[robot], robot, t0, t1, move)
