"""Elementary fibrewise motions of a query's robot starts.

All constructions here move robot starts while the goals and the obstacles
stay put.  Three primitives cover the planner's motions besides the
straight lines, which it draws itself:

* exchanging two adjacent robots through a shared half-circle,
* carrying one robot around an obstacle block on a clearance half-circle,
* splitting coincident projections apart by staggered shifts along the line.

This module is geometry only and knows no time.  Each swap returns its
:data:`Stages`: a tuple of stages, each mapping every robot it moves to the
row of its segment (:func:`~parammp.paths.line_row`,
:func:`~parammp.paths.arc_row`), the floats the planner writes into the
path's table; a robot absent from a stage rests.  The planner's sweep
(``planner._Sweep``) checks each swap's precondition, that its two entries
are neighbours in the start ordering, and ``planner._play_swaps`` decides
when each stage plays.  Splitting returns the split query
(:func:`desingularize`), and the planner draws the straight shifts to and
from it.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .errors import InternalConsistencyError, QueryValidationError
from .geometry import (
    ConfigurationQuery,
    Frame,
    Side,
    clearance_eta,
    desingularization_gap,
    orderings,  # unused here; bench/tracing.py TARGETS wraps deformations.orderings
)
from .paths import arc_row, line_row

__all__ = ["Stages", "desingularize"]

# The stages of one swap, played in order: robot -> the row of its segment in
# that stage.
Stages = tuple[Mapping[int, tuple], ...]


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


def swap_case_a(
    points: Sequence[Sequence[float]],
    frame: Frame,
    left_robot: int,
    right_robot: int,
    values: tuple[float, float],
) -> Stages:
    """Exchange the projection order of two adjacent robots, whose running
    positions are ``points[left_robot]`` and ``points[right_robot]`` (each a
    sequence of floats).

    The sweep checks that ``left_robot``'s start is next below
    ``right_robot``'s in the start ordering; ``values`` are their comparison
    values, which place them at ``value / |axis|`` along ``e``.  Three
    stages: both robots drop onto the projection line, trade places along a
    shared half-circle in the (e, e_perp) plane (staying antipodal, so their
    distance is constantly the full gap), then rise to each other's original
    position.  Goals never move; every other robot rests.
    """
    z_left, z_right = points[left_robot], points[right_robot]
    q_left, q_right = (value / frame._axis_norm for value in values)
    e, e_perp = frame._e_floats, frame._e_perp_floats
    a, b = [q_left * x for x in e], [q_right * x for x in e]
    mid = [0.5 * (x + y) for x, y in zip(a, b)]
    radius = 0.5 * (q_right - q_left)
    # The left robot traverses angles [pi, 2*pi], the right one [0, pi]; both
    # arcs share center and radius, so the pair stays antipodal throughout.
    return (
        {left_robot: line_row(z_left, a), right_robot: line_row(z_right, b)},
        {
            left_robot: arc_row(mid, radius, e, e_perp, math.pi, 2 * math.pi),
            right_robot: arc_row(mid, radius, e, e_perp, 0.0, math.pi),
        },
        {left_robot: line_row(b, z_right), right_robot: line_row(a, z_left)},
    )


def swap_case_b(
    points: Sequence[Sequence[float]],
    frame: Frame,
    robot: int,
    obstacle: Sequence[float],
    side: Side,
    values: tuple[float, float, float],
    block_distance: float,
) -> Stages:
    """Carry one robot, whose running position is ``points[robot]``, across
    the obstacle block of the obstacle point ``obstacle`` (sequences of
    floats).

    ``side`` is the side of the obstacle's projection value the robot ends
    on.  The sweep checks that the robot's start is the block's neighbour in
    the start ordering on the opposite side.  ``values`` (the comparison
    values of the obstacle, of the robot's start and of the nearest point
    beyond the obstacle on ``side``) and ``block_distance``, the block's
    term (b), are what :func:`~parammp.geometry.clearance_eta` reads to give
    the clearance eta, and they place the drop: (robot - obstacle) / |axis|
    along ``e`` from the obstacle.  Three stages move only this robot: drop
    onto the parallel line through the obstacle, slide along it until eta/2
    short of the obstacle, then swing around the obstacle on the half-circle
    of radius eta/2 in the (e, e_perp) plane, landing eta/2 past it.
    """
    eta = clearance_eta(*values, frame, block_distance)
    e, center = frame._e_floats, obstacle
    # The start's foot on the line through the obstacle parallel to e.
    along = (values[1] - values[0]) / frame._axis_norm
    drop = [c + along * x for c, x in zip(center, e)]
    sign = 1.0 if side is Side.LEFT else -1.0
    offset = sign * (eta / 2.0)
    near = [c + offset * x for c, x in zip(center, e)]
    arc = arc_row(center, eta / 2.0, [sign * x for x in e], frame._e_perp_floats, 0.0, math.pi)
    return (
        {robot: line_row(points[robot], drop)},
        {robot: line_row(drop, near)},
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
