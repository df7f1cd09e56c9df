"""Elementary fibrewise motions of a query's starts and goals.

All constructions here move robot starts and/or robot goals while the
obstacles stay put.  Four primitives cover everything the planner needs:

* straight-line interpolation when the start and goal orderings agree,
* exchanging two adjacent robots through a shared half-circle,
* carrying one robot around an obstacle block on a clearance half-circle,
* splitting coincident projections apart by staggered shifts along the line.

A deformation is a list of stages and knows no global time.  The planner
plays it on a window [lo, hi] of global time it chooses: stage i of s fills
[i/s, (i+1)/s] of that window, start side forward
(:func:`append_start_moves`) or goal side backward
(:func:`append_goal_moves_backward`).  A robot gets segments only where it
moves, through :func:`append_segment`, which fills each rest as the gap
before a move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
from .paths import ArcMove, LinearMove, Move, PathSegment, PiecewisePath, reverse_move

__all__ = [
    "Deformation",
    "DeformationStage",
    "affine_section",
    "append_goal_moves_backward",
    "append_segment",
    "append_start_moves",
    "desingularize",
    "evaluate_deformation",
    "straight_moves",
    "swap_case_a",
    "swap_case_b",
]


@dataclass(frozen=True, eq=False)
class DeformationStage:
    """One stage of a deformation; stage i of s fills [i/s, (i+1)/s] of
    whatever window the deformation is played on.

    ``start_moves``/``goal_moves`` hold the motion of each moving robot; a
    robot absent from the mapping rests at its position from the previous
    stage.  Obstacles never move.
    """

    start_moves: Mapping[int, Move] = field(default_factory=dict)
    goal_moves: Mapping[int, Move] = field(default_factory=dict)

    def moves(self, side: str) -> Mapping[int, Move]:
        return self.start_moves if side == "start" else self.goal_moves


@dataclass(frozen=True, eq=False)
class Deformation:
    """A staged, obstacle-preserving motion of a query's starts and goals."""

    query: ConfigurationQuery
    stages: tuple[DeformationStage, ...]

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        for side, base in (("start", self.query.starts), ("goal", self.query.goals)):
            positions = np.array(base)
            for stage in self.stages:
                for robot, move in stage.moves(side).items():
                    if np.linalg.norm(move.initial - positions[robot]) > 1e-9:
                        raise InternalConsistencyError(
                            f"{side}-side stage does not chain for robot {robot}"
                        )
                    positions[robot] = move.final

    def _positions_at(self, base: np.ndarray, side: str, t) -> np.ndarray:
        positions = np.array(base)
        for t0, t1, stage in _stage_windows(self.stages, Fraction(0), Fraction(1)):
            moves = stage.moves(side)
            if t >= t1:
                for robot, move in moves.items():
                    positions[robot] = move.final
            else:
                u = float((t - float(t0)) / float(t1 - t0))
                for robot, move in moves.items():
                    positions[robot] = move.at(u)
                break
        return positions

    def starts_at(self, t) -> np.ndarray:
        return self._positions_at(self.query.starts, "start", t)

    def goals_at(self, t) -> np.ndarray:
        return self._positions_at(self.query.goals, "goal", t)

    def end_query(self) -> ConfigurationQuery:
        """The configuration the deformation ends at.  If it is not a valid
        query (two points coincide, a shift overflowed), the deformation is at
        fault, not the caller's query: InternalConsistencyError."""
        try:
            return ConfigurationQuery(
                self.starts_at(1.0), self.goals_at(1.0), self.query.obstacles
            )
        except QueryValidationError as exc:
            raise InternalConsistencyError(
                f"deformation ended on an invalid query: {exc}"
            ) from exc


def evaluate_deformation(
    deformation: Deformation, query: ConfigurationQuery, t: float
) -> ConfigurationQuery:
    """Configuration reached at local time t; obstacles returned unchanged.

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
        deformation.starts_at(t), deformation.goals_at(t), deformation.query.obstacles
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
        DeformationStage(
            start_moves={
                left_robot: LinearMove(query.starts[left_robot], a),
                right_robot: LinearMove(query.starts[right_robot], b),
            },
        ),
        DeformationStage(start_moves={left_robot: arc_left, right_robot: arc_right}),
        DeformationStage(
            start_moves={
                left_robot: LinearMove(b, query.starts[right_robot]),
                right_robot: LinearMove(a, query.starts[left_robot]),
            },
        ),
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
        DeformationStage(start_moves={robot: LinearMove(z, drop)}),
        DeformationStage(start_moves={robot: LinearMove(drop, near)}),
        DeformationStage(start_moves={robot: arc}),
    )
    return Deformation(query=query, stages=stages)


def desingularize(
    query: ConfigurationQuery, frame: Frame, snap_tol: float = 0.0
) -> Deformation:
    """Split every projection coincidence by staggered shifts along the line.

    Robot start i receives the shift (i+1) * M / (2n+1) * e and robot goal i
    the shift (n+i+1) * M / (2n+1) * e, where M is the smallest positive
    projection gap any of these shifts could close (see
    :func:`desingularization_gap`).  All 2n shift multipliers are distinct,
    positive and below 1, so the result is generic with the same obstacle
    pattern and no two points ever meet along the way.
    """
    n = query.robot_count
    gap = desingularization_gap(query, frame, snap_tol)
    scale = gap / (2 * n + 1)
    start_moves = {
        r: LinearMove(query.starts[r], query.starts[r] + (r + 1) * scale * frame.e)
        for r in range(n)
    }
    goal_moves = {
        r: LinearMove(query.goals[r], query.goals[r] + (n + r + 1) * scale * frame.e)
        for r in range(n)
    }
    stage = DeformationStage(start_moves=start_moves, goal_moves=goal_moves)
    return Deformation(query=query, stages=(stage,))


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
    """Append the start-side motion of ``deformation``, played forward on the
    global window [lo, hi], to the per-robot lists ``segments``.  Only the
    robots a stage moves get segments."""
    for t0, t1, stage in _stage_windows(deformation.stages, lo, hi):
        for robot, move in stage.start_moves.items():
            append_segment(segments[robot], robot, t0, t1, move)


def append_goal_moves_backward(
    segments: list[list[PathSegment]],
    deformation: Deformation,
    lo: Fraction,
    hi: Fraction,
):
    """Append the goal-side motion of ``deformation``, played backward on the
    global window [lo, hi]: last stage first, each move reversed, so a robot
    it moves ends at the query's goal.  A robot no goal-side stage moves gets
    nothing, so its list ends before ``hi``."""
    for t0, t1, stage in _stage_windows(deformation.stages[::-1], lo, hi):
        for robot, move in stage.goal_moves.items():
            append_segment(segments[robot], robot, t0, t1, reverse_move(move))
