"""Checked forms of the two swaps and of the Case B clearance, for tests.

The library forms take the planner's sweep state and leave the neighbour
precondition to the sweep, which tests it on its own sorted list.  These
forms test it independently, on ``orderings(query, frame).sigma``
(PreconditionError), and then call the library with the arguments the sweep
passes for ``query``.  Like the library forms they return stages of rows.
"""

from __future__ import annotations

import math

import numpy as np

from parammp import PreconditionError, Side, orderings
from parammp.deformations import swap_case_a, swap_case_b
from parammp.geometry import clearance_eta


def _check_neighbours(sigma, below, above):
    p = sigma.index(below)
    if sigma[p + 1 : p + 2] != (above,):
        raise PreconditionError(f"{below} is not next below {above} in the start ordering")


def checked_case_a(query, frame, left, right):
    _check_neighbours(orderings(query, frame).sigma, left, right)
    return swap_case_a(query.starts, frame, left, right)


def _case_b_state(query, frame, robot, obstacle, side):
    """The comparison values, the obstacle's entry in them and its block's
    term (b), once the robot is checked to start next to the block, on the
    side opposite ``side``."""
    sigma = orderings(query, frame).sigma
    block = next(e for e in sigma if isinstance(e, frozenset) and obstacle in e)
    _check_neighbours(sigma, *((block, robot) if side is Side.LEFT else (robot, block)))
    values = np.concatenate(
        [points @ frame.axis for points in (query.starts, query.goals, query.obstacles)]
    )
    distance = min(
        (float(np.linalg.norm(query.obstacles[k] - query.obstacles[obstacle]))
         for k in block if k != obstacle),
        default=math.inf,
    )
    return values, 2 * query.robot_count + obstacle, distance


def checked_clearance(query, frame, robot, obstacle, side):
    values, o, distance = _case_b_state(query, frame, robot, obstacle, side)
    return clearance_eta(values, frame, robot, o, side, distance)


def checked_case_b(query, frame, robot, obstacle, side):
    values, o, distance = _case_b_state(query, frame, robot, obstacle, side)
    point = query.obstacles[obstacle]
    return swap_case_b(query.starts, values, frame, robot, o, point, side, distance)
