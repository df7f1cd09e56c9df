"""Checked forms of the two swaps and of the Case B clearance, for tests.

The library forms take the planner's sweep state and leave the neighbour
precondition to the sweep, which tests it on its own sorted list.  These
forms test it independently, on ``orderings(query, frame).sigma``
(PreconditionError), and then call the library with the arguments the sweep
passes for ``query``, its clearance values found by scanning every
comparison value.  Like the library forms they return stages of rows.
:func:`scanned_clearance` keeps the clearance's first, O(n + m) form.
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
    values = (query.starts @ frame.axis)[[left, right]].tolist()
    return swap_case_a(query.starts.tolist(), frame, left, right, values)


def _case_b_state(query, frame, robot, obstacle, side):
    """The clearance values of :func:`~parammp.geometry.clearance_eta` (the
    obstacle's, the robot's and the nearest beyond the obstacle's on
    ``side``, by an O(n + m) scan of every comparison value) and the
    block's term (b), once the robot is checked to start next to the block,
    on the side opposite ``side``."""
    sigma = orderings(query, frame).sigma
    block = next(e for e in sigma if isinstance(e, frozenset) and obstacle in e)
    _check_neighbours(sigma, *((block, robot) if side is Side.LEFT else (robot, block)))
    values = np.concatenate(
        [points @ frame.axis for points in (query.starts, query.goals, query.obstacles)]
    )
    cmp_o = float(values[2 * query.robot_count + obstacle])
    if side is Side.LEFT:
        beyond = float(np.max(values[values < cmp_o], initial=-math.inf))
    else:
        beyond = float(np.min(values[values > cmp_o], initial=math.inf))
    distance = min(
        (float(np.linalg.norm(query.obstacles[k] - query.obstacles[obstacle]))
         for k in block if k != obstacle),
        default=math.inf,
    )
    return (cmp_o, float(values[robot]), beyond), distance


def scanned_clearance(query, frame, robot, obstacle, side):
    """The clearance as first written: term (a) the smallest |v - o| over
    every comparison value v strictly beyond the obstacle's o, by a scan."""
    (cmp_o, cmp_robot, _), distance = _case_b_state(query, frame, robot, obstacle, side)
    values = np.concatenate(
        [points @ frame.axis for points in (query.starts, query.goals, query.obstacles)]
    )
    far = values[values < cmp_o] if side is Side.LEFT else values[values > cmp_o]
    nearest = float(np.min(np.abs(far - cmp_o), initial=math.inf))
    gap = min(abs(cmp_robot - cmp_o), nearest)
    return min(gap / frame._axis_norm, distance)


def checked_clearance(query, frame, robot, obstacle, side):
    values, distance = _case_b_state(query, frame, robot, obstacle, side)
    return clearance_eta(*values, frame, distance)


def checked_case_b(query, frame, robot, obstacle, side):
    values, distance = _case_b_state(query, frame, robot, obstacle, side)
    point = query.obstacles[obstacle].tolist()
    return swap_case_b(query.starts.tolist(), frame, robot, point, side, values, distance)
