"""Elementary fibrewise motions of a query's robot starts.

All constructions here move robot starts while the goals and the obstacles
stay put.  Four primitives cover everything the planner needs:

* straight-line interpolation when the start and goal orderings agree,
* exchanging two adjacent robots through a shared half-circle,
* carrying one robot around an obstacle block on a clearance half-circle,
* splitting coincident projections apart by staggered shifts along the line.

This module is geometry only and knows no time.  Each swap returns its
:data:`Stages`: a tuple of stages, each mapping every robot it moves to its
``Move``; a robot absent from a stage rests.  The planner decides when each
stage plays.  Splitting returns the split query (:func:`desingularize`), and
the planner draws the straight shifts to and from it.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import InternalConsistencyError, PreconditionError, QueryValidationError
from .geometry import (
    ConfigurationQuery,
    Frame,
    Side,
    _check_start_neighbours,
    _generic_ties,
    clearance_eta,
    desingularization_gap,
    orderings,
)
from .paths import ArcMove, LinearMove, Move

__all__ = [
    "Stages",
    "desingularize",
    "straight_moves",
    "swap_case_a",
    "swap_case_b",
]

# The stages of one swap, played in order: robot -> its move in that stage.
Stages = tuple[Mapping[int, Move], ...]


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


def straight_moves(query: ConfigurationQuery, frame: Frame) -> list[LinearMove]:
    """Each robot's straight line from its start to its goal.

    Valid exactly when the start and goal orderings agree (``sigma ==
    sigma_prime``): order preservation of the projections then rules out
    every collision along the way.

    Raises:
        PreconditionError: the orderings differ.
        NotGenericError: the query is not generic.
    """
    pair = orderings(query, frame)
    if pair.sigma != pair.sigma_prime:
        raise PreconditionError(
            "straight-line section needs identical start and goal orderings"
        )
    return [LinearMove(query.starts[r], query.goals[r]) for r in range(query.robot_count)]


def swap_case_a(
    query: ConfigurationQuery,
    frame: Frame,
    left_robot: int,
    right_robot: int,
) -> Stages:
    """Exchange the projection order of two adjacent robots.

    Requires ``left_robot``'s start to be next below ``right_robot``'s in the
    start ordering, checked on the tie table, and to project below it on
    ``e``.  Three stages: both robots drop onto the projection line, trade
    places along a shared half-circle in the (e, e_perp) plane (staying
    antipodal, so their distance is constantly the full gap), then rise to
    each other's original position.  Goals never move; every other robot rests.

    Raises:
        PreconditionError: an index is out of range, or the starts are not
            neighbours in that order, in the start ordering or on ``e``.
        NotGenericError: the query is not generic.
    """
    n = query.robot_count
    if not (0 <= left_robot < n and 0 <= right_robot < n):
        raise PreconditionError("unknown robot index")
    _check_start_neighbours(_generic_ties(query, frame)[0], n, left_robot, right_robot)
    return _case_a_stages(query.starts, frame, left_robot, right_robot)


def _case_a_stages(starts: np.ndarray, frame: Frame, left_robot: int, right_robot: int) -> Stages:
    """:func:`swap_case_a` on rows of ``starts`` known to be neighbours in
    the start ordering; the moves hold copies of the rows.  PreconditionError
    if the left row does not project strictly below the right one on ``e``."""
    z_left, z_right = starts[[left_robot, right_robot]]
    q_left = float(np.dot(frame.e, z_left))
    q_right = float(np.dot(frame.e, z_right))
    if not q_left < q_right:
        raise PreconditionError("left robot must project strictly below right robot")

    a, b = q_left * frame.e, q_right * frame.e
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
    return (
        {left_robot: LinearMove(z_left, a), right_robot: LinearMove(z_right, b)},
        {left_robot: arc_left, right_robot: arc_right},
        {left_robot: LinearMove(b, z_right), right_robot: LinearMove(a, z_left)},
    )


def swap_case_b(
    query: ConfigurationQuery,
    frame: Frame,
    robot: int,
    obstacle: int,
    side: Side,
) -> Stages:
    """Carry one robot across the obstacle block containing ``obstacle``.

    ``side`` is the side of the obstacle's projection value the robot ends
    on; the robot must currently sit on the opposite side, adjacent to the
    block.  With clearance eta, three stages move only this robot: drop onto
    the parallel line through the obstacle, slide along it until eta/2 short
    of the obstacle, then swing around the obstacle on the half-circle of
    radius eta/2 in the (e, e_perp) plane, landing eta/2 past it.

    Raises:
        PreconditionError: the robot's start is not the neighbour of the block
            on the side opposite ``side`` (see :func:`clearance_eta`).
    """
    eta = clearance_eta(query, frame, robot, obstacle, side)
    return _case_b_stages(query.starts, frame, robot, query.obstacles[obstacle], eta, side)


def _case_b_stages(
    starts: np.ndarray, frame: Frame, robot: int, o: np.ndarray, eta: float, side: Side
) -> Stages:
    """:func:`swap_case_b` on a row of ``starts`` known to be next to the
    block of the obstacle point ``o``, with clearance ``eta``; the moves hold
    a copy of the row."""
    z = starts[robot].copy()
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
    return (
        {robot: LinearMove(z, drop)},
        {robot: LinearMove(drop, near)},
        {robot: arc},
    )


def desingularize(query: ConfigurationQuery, frame: Frame) -> ConfigurationQuery:
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
    scale = desingularization_gap(query, frame) / (2 * n + 1)
    shifts = np.arange(1, 2 * n + 1)[:, None] * scale * frame.e
    return _checked_query(
        query.starts + shifts[:n], query.goals + shifts[n:], query.obstacles
    )
