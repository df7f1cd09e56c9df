"""Elementary fibrewise motions and their composition into full paths.

All constructions here move robot starts and/or robot goals while the
obstacles stay put.  Four primitives cover everything the planner needs:

* straight-line interpolation when the start and goal orderings agree,
* exchanging two adjacent robots through a shared half-circle,
* carrying one robot around an obstacle block on a clearance half-circle,
* splitting coincident projections apart by staggered shifts along the line.

The planner plays the elementary motions one after another, each in its own
window of global time (:func:`append_start_moves`).  ``compose_with_section``
implements the three-phase rule for the one deformation that moves goals as
well as starts: play its start-side motion forward on [0, 1/3], an inner path
on the deformed configuration on [1/3, 2/3], and its goal-side motion backward
on [2/3, 1].  Both give a robot segments only where it moves, through
:func:`append_segment`, which fills each rest as the gap before a move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from .errors import InternalConsistencyError, PreconditionError
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
    "append_segment",
    "append_start_moves",
    "compose_with_section",
    "desingularize",
    "evaluate_deformation",
    "swap_case_a",
    "swap_case_b",
]

_THIRDS = (Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1))


@dataclass(frozen=True, eq=False)
class DeformationStage:
    """One stage of a deformation over the local window [t0, t1].

    ``start_moves``/``goal_moves`` hold the motion of each moving robot; a
    robot absent from the mapping rests at its position from the previous
    stage.  Obstacles never move.
    """

    t0: Fraction
    t1: Fraction
    start_moves: Mapping[int, Move] = field(default_factory=dict)
    goal_moves: Mapping[int, Move] = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class Deformation:
    """A staged, obstacle-preserving motion of a query's starts and goals."""

    query: ConfigurationQuery
    stages: tuple[DeformationStage, ...]

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ValueError("a deformation needs at least one stage")
        if self.stages[0].t0 != 0 or self.stages[-1].t1 != 1:
            raise ValueError("stages must tile [0, 1]")
        for a, b in zip(self.stages, self.stages[1:]):
            if a.t1 != b.t0:
                raise ValueError("stages must tile [0, 1] without gaps")
        starts = np.array(self.query.starts)
        goals = np.array(self.query.goals)
        for stage in self.stages:
            for robot, move in stage.start_moves.items():
                if np.linalg.norm(move.initial - starts[robot]) > 1e-9:
                    raise InternalConsistencyError(
                        f"start-side stage does not chain for robot {robot}"
                    )
                starts[robot] = move.final
            for robot, move in stage.goal_moves.items():
                if np.linalg.norm(move.initial - goals[robot]) > 1e-9:
                    raise InternalConsistencyError(
                        f"goal-side stage does not chain for robot {robot}"
                    )
                goals[robot] = move.final

    def _positions_at(self, base: np.ndarray, which: str, t) -> np.ndarray:
        positions = np.array(base)
        for stage in self.stages:
            moves = stage.start_moves if which == "start" else stage.goal_moves
            if t >= stage.t1:
                for robot, move in moves.items():
                    positions[robot] = move.final
            else:
                u = float((t - float(stage.t0)) / float(stage.t1 - stage.t0))
                for robot, move in moves.items():
                    positions[robot] = move.at(u)
                break
        return positions

    def starts_at(self, t) -> np.ndarray:
        return self._positions_at(self.query.starts, "start", t)

    def goals_at(self, t) -> np.ndarray:
        return self._positions_at(self.query.goals, "goal", t)

    def end_query(self) -> ConfigurationQuery:
        return ConfigurationQuery(
            self.starts_at(1.0), self.goals_at(1.0), self.query.obstacles
        )


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


def affine_section(
    query: ConfigurationQuery, frame: Frame, snap_tol: float = 0.0
) -> PiecewisePath:
    """Straight-line motion of every robot from start to goal.

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
    segments = tuple(
        (
            PathSegment(
                robot=r,
                t0=Fraction(0),
                t1=Fraction(1),
                move=LinearMove(query.starts[r], query.goals[r]),
            ),
        )
        for r in range(query.robot_count)
    )
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
            t0=_THIRDS[0],
            t1=_THIRDS[1],
            start_moves={
                left_robot: LinearMove(query.starts[left_robot], a),
                right_robot: LinearMove(query.starts[right_robot], b),
            },
        ),
        DeformationStage(
            t0=_THIRDS[1],
            t1=_THIRDS[2],
            start_moves={left_robot: arc_left, right_robot: arc_right},
        ),
        DeformationStage(
            t0=_THIRDS[2],
            t1=_THIRDS[3],
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
        DeformationStage(
            t0=_THIRDS[0], t1=_THIRDS[1], start_moves={robot: LinearMove(z, drop)}
        ),
        DeformationStage(
            t0=_THIRDS[1], t1=_THIRDS[2], start_moves={robot: LinearMove(drop, near)}
        ),
        DeformationStage(t0=_THIRDS[2], t1=_THIRDS[3], start_moves={robot: arc}),
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
    stage = DeformationStage(
        t0=Fraction(0), t1=Fraction(1), start_moves=start_moves, goal_moves=goal_moves
    )
    return Deformation(query=query, stages=(stage,))


def _scaled(fraction: Fraction, lo: Fraction, hi: Fraction) -> Fraction:
    """Map local time in [0, 1] affinely onto [lo, hi], exactly."""
    return lo + fraction * (hi - lo)


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
    for stage in deformation.stages:
        t0, t1 = _scaled(stage.t0, lo, hi), _scaled(stage.t1, lo, hi)
        for robot, move in stage.start_moves.items():
            append_segment(segments[robot], robot, t0, t1, move)


def compose_with_section(
    deformation: Deformation,
    inner_section: Callable[[ConfigurationQuery], PiecewisePath],
) -> PiecewisePath:
    """Three-phase composition of a deformation with a path on its image.

    Global time splits into [0, 1/3] (start-side motion forward), [1/3, 2/3]
    (the inner path on the deformed configuration, time-rescaled) and
    [2/3, 1] (goal-side motion backward).  All time bounds are renormalized
    with exact rational arithmetic.  Endpoints equal the original query's
    starts and goals.
    """
    deformed = deformation.end_query()
    inner = inner_section(deformed)
    if not (
        np.array_equal(inner.query.starts, deformed.starts)
        and np.array_equal(inner.query.goals, deformed.goals)
        and np.array_equal(inner.query.obstacles, deformed.obstacles)
    ):
        raise InternalConsistencyError(
            "inner section was not built on the deformed configuration"
        )

    one_third, two_thirds = Fraction(1, 3), Fraction(2, 3)
    segments = [[] for _ in range(deformation.query.robot_count)]
    append_start_moves(segments, deformation, Fraction(0), one_third)
    for robot, acc in enumerate(segments):
        for seg in inner.segments[robot]:
            append_segment(
                acc,
                robot,
                _scaled(seg.t0, one_third, two_thirds),
                _scaled(seg.t1, one_third, two_thirds),
                seg.move,
            )

        # Goal-side stages reversed, compressed into [2/3, 1].
        for stage in reversed(deformation.stages):
            move = stage.goal_moves.get(robot)
            lo = _scaled(Fraction(1) - stage.t1, two_thirds, Fraction(1))
            hi = _scaled(Fraction(1) - stage.t0, two_thirds, Fraction(1))
            if move is None:
                position = acc[-1].move.final
                append_segment(acc, robot, lo, hi, LinearMove(position, position))
            else:
                append_segment(acc, robot, lo, hi, reverse_move(move))

    return PiecewisePath(query=deformation.query, segments=segments)
