"""The full planning rule: classify, desingularize if needed, sort the start
ordering into the goal ordering by elementary swaps, finish with straight
lines.

The output is one exact piecewise path per robot plus the region label whose
index ``c`` names the continuity domain the query fell into.  Identical inputs
produce identical outputs; the construction consults nothing but the query.

This module alone knows the global schedule and writes the path's table:
per robot, a list of ``[start tick, stop tick, row]`` entries, with rows as
the swaps (:mod:`parammp.deformations`) and :mod:`parammp.paths` give them.
One schedule serves every query, in windows of three ticks: each of the k
swaps fills one window, a tick per stage, and the straight line one more, so
a generic query plays on 3(k + 1) ticks.  A degenerate query is split into a
generic one (:func:`desingularize`) and plays the split's schedule between
two one-window shifts: each robot moves straight from its start to its split
start on the first window and from its split goal back to its goal on the
last, on 3(k + 3) ticks in all (:func:`compose_with_section`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .deformations import desingularize, swap_case_a, swap_case_b
from .errors import (
    InternalConsistencyError,
    InvalidOrderingPairError,
    NotGenericError,
    QueryValidationError,
)
from .geometry import (
    ConfigurationQuery,
    Entry,
    Frame,
    FrameMode,
    RegionLabel,
    Side,
    _block_distance,
    _entry_name,
    _ties,
    classify,
    make_frame,
    orderings,
)
from .paths import PiecewisePath, line_row, row_final, row_initial

__all__ = [
    "MAX_COORDINATE",
    "CaseASwap",
    "CaseBSwap",
    "PlanResult",
    "default_mode",
    "plan",
    "transposition_sequence",
]

# The largest coordinate magnitude plan accepts.  Below it the gaps, shifts
# and arcs built from the query, and the squared distances a certificate
# sums, all stay finite.
MAX_COORDINATE = 1e150
# The ticks of one window: every swap plays three stages, one tick each
# (deformations), and the straight line and each shift fill as many.
_STAGES = 3


@dataclass(frozen=True)
class CaseASwap:
    """Adjacent robot-robot exchange; ``left`` currently projects below ``right``."""

    left: int
    right: int


@dataclass(frozen=True)
class CaseBSwap:
    """One robot crosses an obstacle block, ending on ``side`` of it."""

    robot: int
    block: frozenset[int]
    side: Side


Swap = Union[CaseASwap, CaseBSwap]


def transposition_sequence(
    sigma: Sequence[Entry], sigma_prime: Sequence[Entry]
) -> list[Swap]:
    """Adjacent transpositions turning the ordering ``sigma`` into
    ``sigma_prime`` (see :class:`~parammp.geometry.OrderingPair`); the one
    validator of an ordering pair.

    Deterministic bubble-sort discipline: repeatedly swap the leftmost
    adjacent pair that is out of order relative to ``sigma_prime``.  Robot
    pairs become Case A swaps, robot/block pairs become Case B swaps with the
    side the robot moves toward; blocks never swap with each other.  The
    sequence length equals the inversion count between the two orderings,
    which is the minimum possible number of adjacent transpositions.  Pairs
    left of a swap stay in order, so the scan resumes one position before
    it: O(L + k) steps for L entries and k swaps.

    Raises:
        InvalidOrderingPairError: an entry appears twice, the orderings hold
            different entries, two blocks share an obstacle, or the blocks
            come in different orders.
    """
    current = list(sigma)
    rank = {entry: pos for pos, entry in enumerate(sigma_prime)}
    blocks = [entry for entry in current if isinstance(entry, frozenset)]
    members = [k for block in blocks for k in block]
    if len(set(current)) != len(current) or len(rank) != len(sigma_prime):
        raise InvalidOrderingPairError("an entry appears twice in one ordering")
    if set(current) != rank.keys():
        raise InvalidOrderingPairError("the orderings hold different entries")
    if len(set(members)) != len(members):
        raise InvalidOrderingPairError("two obstacle blocks share an obstacle")
    if blocks != [entry for entry in sigma_prime if isinstance(entry, frozenset)]:
        raise InvalidOrderingPairError("obstacle blocks appear in different orders")

    swaps: list[Swap] = []
    p = 0
    while p < len(current) - 1:
        left, right = current[p], current[p + 1]
        if rank[left] <= rank[right]:
            p += 1
            continue
        # Two blocks are never out of order after the checks above.
        if isinstance(left, frozenset):
            swaps.append(CaseBSwap(robot=right, block=left, side=Side.LEFT))
        elif isinstance(right, frozenset):
            swaps.append(CaseBSwap(robot=left, block=right, side=Side.RIGHT))
        else:
            swaps.append(CaseASwap(left=left, right=right))
        current[p], current[p + 1] = right, left
        p = max(p - 1, 0)
    return swaps


def _block_representative(query: ConfigurationQuery, block: frozenset[int]) -> int:
    """The block member to circle around: smallest by coordinate tuple.

    Depends only on geometry, so relabeling coincident obstacles cannot change
    the emitted trajectory.
    """
    return min(block, key=lambda k: tuple(query.obstacles[k]))


def _append_segment(entries: list[list], t0: int, t1: int, row: tuple, d: int):
    """Append a robot's ``row``, a segment in R^d, on ticks [t0, t1] to its
    list of ``[start tick, stop tick, row]`` entries: the one writer of a
    path's rows.

    A gap before t0 is filled with a rest where ``row`` begins, which is
    where the robot's last row ended; a rest that continues a rest at the
    same point (-0.0 is 0.0 there) extends that entry's stop tick instead.
    """
    last = entries[-1] if entries else [0, 0, None]
    if last[1] < t0:
        point = row_initial(row, d)
        rest = line_row(point, point)
        if last[2] == rest:
            last[1] = t0
        else:
            entries.append(last := [last[1], t0, rest])
    if len(row) == 2 * d and last[2] == row and row[:d] == row[d:]:
        last[1] = t1
    else:
        entries.append([t0, t1, row])


def compose_with_section(
    query: ConfigurationQuery,
    split: ConfigurationQuery,
    frame: Frame,
    swaps: list[Swap],
) -> PiecewisePath:
    """The path of ``query`` on the one schedule (see the module docstring),
    played by ``split``: the generic query :func:`desingularize` split it
    into, or ``query`` itself, then with no shifts.  ``swaps`` must be
    :func:`transposition_sequence`'s list for ``split``, as in :func:`plan`,
    its one caller: their indices are not checked.
    """
    d, lo = query.dim, 0 if split is query else _STAGES
    hi = lo + _STAGES * (len(swaps) + 1)
    entries = [[] for _ in range(query.robot_count)]
    if lo:
        for per_robot, start, shifted in zip(entries, query.starts.tolist(), split.starts.tolist()):
            _append_segment(per_robot, 0, lo, line_row(start, shifted), d)
    _play_swaps(entries, split, frame, swaps, lo)
    if lo:
        for per_robot, shifted, goal in zip(entries, split.goals.tolist(), query.goals.tolist()):
            _append_segment(per_robot, hi, hi + lo, line_row(shifted, goal), d)
    return PiecewisePath.from_rows(query, hi + lo, entries)


def _sweep_error(
    listed: list[float], n: int, moved: set[int], below: int, above: int, i: int
) -> InternalConsistencyError:
    """The error of swap ``i`` when a list check of :class:`_Sweep` fails,
    worded by the O(n + m) checks it stands for over the comparison values
    ``listed``: a start in ``moved`` that ties another value, else entry
    ``below`` (a start or an obstacle) not next below entry ``above`` in the
    start ordering (not lower, or a start or obstacle value strictly between
    theirs), else (the one case left, as the stages move only the pair's
    starts) the pair out of place."""
    values = np.array(listed)
    for robot in moved:
        ties = np.flatnonzero(values == values[robot])
        if len(ties) != 1:  # a NaN equals no value, its own included
            others = ", ".join(_entry_name(k, n) for k in ties if k != robot) or "NaN"
            return InternalConsistencyError(f"swap {i}: starts[{robot}] coincides with {others}")
    lo, hi = values[below], values[above]
    sigma = np.concatenate([values[:n], values[2 * n:]])
    if not lo < hi or np.any((sigma > lo) & (sigma < hi)):  # a NaN fails too
        return InternalConsistencyError(
            f"swap {i}: {_entry_name(below, n)} is not next below {_entry_name(above, n)}"
            " in the start ordering"
        )
    return InternalConsistencyError(f"swap {i} moved its pair out of place")


class _Sweep:
    """The start ordering of a valid, generic query as a kinetic sorted list
    (Basch, Guibas and Hershberger) whose events are the swaps, and what the
    swaps read beside it.

    It holds the running starts, as float lists (``points``) for the swaps
    and as the array ``starts`` whose product with the axis gives their
    values; the tie table's comparison values (starts | goals | obstacles)
    as one list of floats (``listed``); the goal values as a set and sorted,
    between -inf and inf; each crossed block's value index, center and term
    (b) of :func:`~parammp.geometry.clearance_eta`; and the list ``order`` of
    the robots and one value index per obstacle block (a crossed block's
    representative), with ``where`` inverting it.

    The list is strictly sorted at the start, as the query is generic, and
    only the starts a swap moves change value, so an event rewrites only the
    values of the robots it moved.  Per swap it checks, in O(1), that:

    * before it (:meth:`check_neighbours`), its lower entry's next list
      entry is its upper one (so its value is lower: the list is strictly
      sorted);
    * after it (:meth:`swap`), with the two entries swapped, each moved
      start's value lies strictly between its list neighbours' values and
      equals no goal value (a NaN fails).

    So these checks pass exactly when their O(n + m) forms over every value
    do: the pair are neighbours before the swap, and after it no moved start
    ties another point (the configuration stays generic) and the pair are
    neighbours again, swapped, in the same place.  The O(n + m) forms run
    only to word a failure (:func:`_sweep_error`).  As the list holds every
    start value and every obstacle value, the nearest value beyond an entry
    is its list neighbour's or the goal value next to it (:meth:`beyond`).
    """

    def __init__(self, query: ConfigurationQuery, frame: Frame, swaps: list[Swap]):
        n = self.n = query.robot_count
        self.d, self.axis = query.dim, frame.axis
        self.starts, self.points = np.array(query.starts), query.starts.tolist()
        values, rank = _ties(query, frame)
        self.listed = values.tolist()
        self.goals = set(self.listed[n : 2 * n])
        self.goal_values = [-np.inf, *sorted(self.goals), np.inf]
        self.rank = rank = rank.tolist()
        self.blocks = {}
        for block in {swap.block for swap in swaps if isinstance(swap, CaseBSwap)}:
            rep = _block_representative(query, block)
            distance = _block_distance(query.obstacles, rep, block)
            self.blocks[block] = (2 * n + rep, query.obstacles[rep].tolist(), distance)
        member = {rank[k]: k for k in range(2 * n, len(rank))}
        member.update((rank[o], o) for o, _, _ in self.blocks.values())
        self.order = sorted([*range(n), *member.values()], key=rank.__getitem__)
        self.where = {k: p for p, k in enumerate(self.order)}

    def check_neighbours(self, below: int, above: int, i: int):
        """Check that ``above`` is next above ``below`` before swap ``i``."""
        p = self.where[below]
        if self.order[p + 1 : p + 2] != [above]:
            raise _sweep_error(self.listed, self.n, set(), below, above, i)

    def beyond(self, place: int, side: Side) -> float:
        """The nearest value strictly beyond the entry at ``place`` of the
        list on ``side``: its list neighbour's or the goal value next to it,
        whichever is nearer (-inf or inf if neither is)."""
        listed, order, goals = self.listed, self.order, self.goal_values
        value = listed[order[place]]
        if side is Side.LEFT:
            below = listed[order[place - 1]] if place else -np.inf
            return max(below, goals[bisect_left(goals, value) - 1])
        above = listed[order[place + 1]] if place + 1 < len(order) else np.inf
        return min(above, goals[bisect_right(goals, value)])

    def swap(self, below: int, above: int, final: dict, i: int):
        """Move the starts to where ``final``, the last stage of swap ``i``,
        ends (it moves every robot the swap moves), swap list entries
        ``below`` and ``above``, and check each moved start's new place."""
        n, listed, order, where = self.n, self.listed, self.order, self.where
        for robot, row in final.items():
            self.starts[robot] = self.points[robot] = row_final(row, self.d)
        # From the whole array, as the tie table computed them: numpy rounds
        # a product by its shape (geometry._tie_table).  Only the moved rows'
        # products change, so only their values are rewritten.
        values = self.starts @ self.axis
        for robot in final:
            listed[robot] = values[robot].item()
        p = where[below]
        order[p], order[p + 1] = above, below
        where[above], where[below] = p, p + 1
        for robot in final:
            q, value = where[robot], listed[robot]
            if not (
                (q == 0 or listed[order[q - 1]] < value)
                and (q + 1 == len(order) or value < listed[order[q + 1]])
                and value not in self.goals  # a NaN is in no set, -0.0 in one with 0.0
            ):
                raise _sweep_error(listed, n, set(final), above, below, i)

    def check_sorted(self):
        """Check that the list is the goal ordering (sigma = sigma'): sorted
        by the goal ranks of the tie table, it comes out unchanged."""
        n, rank = self.n, self.rank
        if sorted(self.order, key=lambda k: rank[n + k] if k < n else rank[k]) != self.order:
            raise InternalConsistencyError(
                "the swaps did not sort the start ordering into the goal ordering"
            )


def _play_swaps(
    entries: list[list[list]], query: ConfigurationQuery, frame: Frame, swaps: list[Swap], lo: int
):
    """Append ``swaps``, played in order from tick ``lo``, and then the
    straight line to the per-robot entry lists ``entries``
    (:func:`_append_segment`).

    With k swaps they fill 3(k + 1) ticks: stage j of swap i fills tick
    lo + 3i + j (each swap plays three stages), and the straight line fills
    the last three.  A robot gets rows only where it moves; each rest fills
    the gap before its next move, which only a swap's first stage can
    follow, as each later stage moves the robots of the first.  The ticks
    depend only on the swap list, which is locally constant wherever the
    tie pattern is, so the schedule keeps the rule continuous on each
    domain.

    ``query`` is valid and generic and is not checked again.  The swaps play
    on one :class:`_Sweep`, whose values place their robots along ``e``
    (over ``|axis|``) and which checks each swap and, before the straight
    line, sigma = sigma'.  That each stage and the line begin where their
    robot stands is left to the path's own junction check (``PiecewisePath``).

    Raises:
        InternalConsistencyError: one of the sweep's checks fails.
    """
    sweep = _Sweep(query, frame, swaps)
    points, d = sweep.points, query.dim  # the running starts, moved in place
    for i, swap in enumerate(swaps):
        if isinstance(swap, CaseASwap):
            below, above = swap.left, swap.right
            sweep.check_neighbours(below, above, i)
            values = (sweep.listed[below], sweep.listed[above])
            stages = swap_case_a(points, frame, below, above, values)
        else:
            o, center, distance = sweep.blocks[swap.block]
            below, above = (swap.robot, o) if swap.side is Side.RIGHT else (o, swap.robot)
            sweep.check_neighbours(below, above, i)
            beyond = sweep.beyond(sweep.where[o], swap.side)
            values = (sweep.listed[o], sweep.listed[swap.robot], beyond)
            stages = swap_case_b(points, frame, swap.robot, center, swap.side, values, distance)
        for t0, stage in enumerate(stages, lo + _STAGES * i):
            for robot, row in stage.items():
                _append_segment(entries[robot], t0, t0 + 1, row, d)
        sweep.swap(below, above, stages[-1], i)
    sweep.check_sorted()
    start = lo + _STAGES * len(swaps)
    for per_robot, point, goal in zip(entries, points, query.goals.tolist()):
        _append_segment(per_robot, start, start + _STAGES, line_row(point, goal), d)


@dataclass(frozen=True, eq=False)
class PlanResult:
    """A planned motion together with the data that selected it.

    ``region`` labels the original query; ``swaps`` sort the ordering pair
    of the generic configuration actually planned (the query itself, or its
    desingularized image), in the order they play.
    """

    path: PiecewisePath
    region: RegionLabel
    swaps: tuple[Swap, ...]
    frame: Frame

    @property
    def mode(self) -> FrameMode:
        return self.frame.mode

    @property
    def domain_index(self) -> int:
        """The continuity-domain index, ``region.c``."""
        return self.region.c

    @property
    def swap_count(self) -> int:
        return len(self.swaps)


def default_mode(query: ConfigurationQuery) -> FrameMode:
    """Obstacle-pair frames when available (even d, m >= 2), else fixed."""
    if query.dim % 2 == 0 and query.obstacle_count >= 2:
        return FrameMode.OBSTACLE_PAIR
    return FrameMode.FIXED


def plan(
    query: ConfigurationQuery,
    mode: Optional[Union[FrameMode, str]] = None,
    snap_tol: float = 0.0,
) -> PlanResult:
    """Plan a collision-free motion for a query.

    Degenerate queries are first split into generic ones
    (:func:`desingularize`).  The ordering pair and the swap list of the
    generic configuration (the query itself, or its split) are computed once
    and played on one schedule, between the straight shifts to and from the
    split for a degenerate query (:func:`compose_with_section`).

    The query is validated once, when it is built, and its split once more;
    the :func:`orderings` call that reads the split checks it is generic.
    The swaps play on one :class:`_Sweep`, whose O(1) checks stand for a
    full check of each swap and of sigma = sigma'; the path checks its
    junctions once, when it is built.

    Planning is exact, so ``snap_tol`` (``options.snap_tolerance``) must be
    0: a snap tolerance only labels queries (:func:`classify`).

    Raises:
        QueryValidationError: ``snap_tol`` is not 0, a coordinate is above
            ``MAX_COORDINATE`` in magnitude, or via ConfigurationQuery
            construction upstream.
        ModeUnsupportedError: obstacle-pair mode in odd dimension or m < 2,
            or ``mode`` names no mode (see :class:`FrameMode`).
        InternalConsistencyError: a check of the swaps, of the split or of
            the path fails.
    """
    if snap_tol != 0:  # NaN too
        raise QueryValidationError(
            [f"plan: options.snap_tolerance must be 0 (only classify snaps), got {snap_tol!r}"]
        )
    extent = query.extent
    if extent > MAX_COORDINATE:
        raise QueryValidationError(
            [f"plan: coordinates must not exceed {MAX_COORDINATE:g} in magnitude, got {extent:g}"]
        )
    mode = default_mode(query) if mode is None else FrameMode(mode)
    frame = make_frame(query, mode)
    label = classify(query, frame)
    generic_query = query if label.j == 2 * query.robot_count else desingularize(query, frame)
    try:
        pair = orderings(generic_query, frame)
    except NotGenericError as exc:  # only a split can fail: the query is generic
        raise InternalConsistencyError(
            f"desingularization failed to reach a generic configuration: {exc}"
        ) from exc
    swaps = transposition_sequence(pair.sigma, pair.sigma_prime)
    path = compose_with_section(query, generic_query, frame, swaps)
    return PlanResult(path=path, region=label, swaps=tuple(swaps), frame=frame)
