"""The full planning rule: classify, desingularize if needed, sort the start
ordering into the goal ordering by elementary swaps, finish with straight
lines.

The output is one exact piecewise path per robot plus the region label whose
index ``c`` names the continuity domain the query fell into.  Identical inputs
produce identical outputs; the construction consults nothing but the query.

This module alone knows the global schedule and assembles the segments.  A
generic query plays its k swaps and the straight line on [0, 1], in k + 1
equal windows; the stages of a swap (:mod:`parammp.deformations`) split its
window equally.  A degenerate query is split into a generic one
(:func:`desingularize`): each robot moves straight from its start to its
split start on [0, 1/3], the swaps and the straight line of the split query
fill [1/3, 2/3], and each robot moves straight from its split goal back to
its goal on [2/3, 1], all into one set of per-robot segment lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .deformations import (
    Stages,
    _checked_query,
    desingularize,
    straight_moves,
    swap_case_a,
    swap_case_b,
)
from .errors import InternalConsistencyError, InvalidOrderingPairError, QueryValidationError
from .geometry import (
    ConfigurationQuery,
    Frame,
    FrameMode,
    OrderingPair,
    RegionLabel,
    Side,
    classify,
    make_frame,
    orderings,
    token_key,
)
from .paths import LinearMove, Move, PathSegment, PiecewisePath, endpoint_tol

__all__ = [
    "MAX_COORDINATE",
    "CaseASwap",
    "CaseBSwap",
    "PlanResult",
    "compose_with_section",
    "default_mode",
    "plan",
    "transposition_sequence",
]

# The largest coordinate magnitude plan accepts.  Below it the gaps, shifts
# and arcs built from the query, and the squared distances a certificate
# sums, all stay finite.
MAX_COORDINATE = 1e150


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
    sigma: tuple, sigma_prime: tuple
) -> list[Swap]:
    """Adjacent transpositions turning the start pattern into the goal pattern.

    Deterministic bubble-sort discipline: repeatedly swap the leftmost
    adjacent pair that is out of order relative to the goal pattern.  Robot
    pairs become Case A swaps, robot/block pairs become Case B swaps with the
    side the robot moves toward; blocks never swap with each other.  The
    sequence length equals the inversion count between the two patterns,
    which is the minimum possible number of adjacent transpositions.  Pairs
    left of a swap stay in order, so the scan resumes one position before
    it: O(L + k) steps for L tokens and k swaps.

    Raises:
        InvalidOrderingPairError: the patterns do not share the same tokens
            or do not list the obstacle blocks in the same order.
    """
    if isinstance(sigma, OrderingPair) or isinstance(sigma_prime, OrderingPair):
        raise TypeError("pass OrderingPair.sigma and OrderingPair.sigma_prime")
    current = [token_key(tok) for tok in sigma]
    target = [token_key(tok) for tok in sigma_prime]
    if sorted(current) != sorted(target):
        raise InvalidOrderingPairError("orderings are over different token sets")
    if [k for k in current if k[0] == "o"] != [k for k in target if k[0] == "o"]:
        raise InvalidOrderingPairError("obstacle blocks appear in different orders")
    rank = {key: pos for pos, key in enumerate(target)}

    swaps: list[Swap] = []
    p = 0
    while p < len(current) - 1:
        if rank[current[p]] <= rank[current[p + 1]]:
            p += 1
            continue
        left, right = current[p], current[p + 1]
        if left[0] == "r" and right[0] == "r":
            swaps.append(CaseASwap(left=left[1], right=right[1]))
        elif left[0] == "r":
            # A block's key ("o", sorted members) holds its members.
            swaps.append(CaseBSwap(robot=left[1], block=frozenset(right[1]), side=Side.RIGHT))
        elif right[0] == "r":
            swaps.append(CaseBSwap(robot=right[1], block=frozenset(left[1]), side=Side.LEFT))
        else:  # two blocks out of order: impossible after the checks above
            raise InvalidOrderingPairError("obstacle blocks cannot swap")
        current[p], current[p + 1] = current[p + 1], current[p]
        p = max(p - 1, 0)
    return swaps


def _block_representative(query: ConfigurationQuery, block: frozenset[int]) -> int:
    """The block member to circle around: smallest by coordinate tuple.

    Depends only on geometry, so relabeling coincident obstacles cannot change
    the emitted trajectory.
    """
    return min(block, key=lambda k: tuple(query.obstacles[k]))


def _swap_deformation(query: ConfigurationQuery, frame: Frame, swap: Swap) -> Stages:
    """The stages of ``swap``, built on the configuration ``query``."""
    if isinstance(swap, CaseASwap):
        return swap_case_a(query, frame, swap.left, swap.right)
    representative = _block_representative(query, swap.block)
    return swap_case_b(query, frame, swap.robot, representative, swap.side)


def _append_segment(segments: list[PathSegment], t0: Fraction, t1: Fraction, move: Move):
    """Append a robot's move on [t0, t1] to its segment list.

    A gap before t0 is filled with one rest where ``move`` begins, which is
    where the robot's last move ended.  A rest that continues a rest at the
    same position extends that segment instead.
    """
    end = segments[-1].t1 if segments else Fraction(0)
    if end < t0:
        _append_segment(segments, end, t0, LinearMove(move.initial, move.initial))
    if (
        segments
        and isinstance(move, LinearMove)
        and move.is_constant()
        and isinstance(segments[-1].move, LinearMove)
        and segments[-1].move.is_constant()
        and np.array_equal(segments[-1].move.end, move.start)
    ):
        prev = segments.pop()
        segments.append(PathSegment(t0=prev.t0, t1=t1, move=prev.move))
    else:
        segments.append(PathSegment(t0=t0, t1=t1, move=move))


def compose_with_section(
    query: ConfigurationQuery,
    split: ConfigurationQuery,
    frame: Frame,
    swaps: list[Swap],
) -> PiecewisePath:
    """Path for a degenerate ``query`` that :func:`desingularize` split into
    ``split``, which ``swaps`` sort.  Each robot moves straight from its start
    to its split start on [0, 1/3], the swaps and the straight line of
    ``split`` fill [1/3, 2/3], and each robot moves straight from its split
    goal back to its goal on [2/3, 1].
    """
    one_third, two_thirds = Fraction(1, 3), Fraction(2, 3)
    segments = [[] for _ in range(query.robot_count)]
    for robot, per_robot in enumerate(segments):
        shift = LinearMove(query.starts[robot], split.starts[robot])
        _append_segment(per_robot, Fraction(0), one_third, shift)
    _play_swaps(segments, split, frame, swaps, one_third, two_thirds)
    for robot, per_robot in enumerate(segments):
        shift = LinearMove(split.goals[robot], query.goals[robot])
        _append_segment(per_robot, two_thirds, Fraction(1), shift)
    return PiecewisePath(query=query, segments=segments)


def _play_swaps(
    segments: list[list[PathSegment]],
    query: ConfigurationQuery,
    frame: Frame,
    swaps: list[Swap],
    lo: Fraction,
    hi: Fraction,
):
    """Append ``swaps``, played in order on the global window [lo, hi], and
    then the straight line to the per-robot lists ``segments``.

    With k swaps the window splits into k + 1 equal parts: swap i fills part
    i, its s stages one s-th of it each, and the straight line fills part k.
    Swaps move starts only, so the running starts array carries each swap's
    end to the next, which is built on that configuration; the goals stay
    put.  A robot gets segments only where it moves; each rest fills the gap
    before its next move.  The parts depend only on the swap list, which is
    locally constant wherever the tie pattern is, so the schedule keeps the
    rule continuous on each domain.

    Raises:
        InternalConsistencyError: a stage does not begin where its robot
            stands, or a swap ends on an invalid configuration.
    """
    width = (hi - lo) / (len(swaps) + 1)
    tol = endpoint_tol(query)
    current = query
    starts = np.array(query.starts)
    for i, swap in enumerate(swaps):
        stages = _swap_deformation(current, frame, swap)
        step = width / len(stages)
        for j, stage in enumerate(stages):
            t0 = lo + i * width + j * step
            t1 = t0 + step
            for robot, move in stage.items():
                if not np.linalg.norm(move.initial - starts[robot]) <= tol:
                    raise InternalConsistencyError(f"stage does not chain for robot {robot}")
                starts[robot] = move.final
                _append_segment(segments[robot], t0, t1, move)
        current = _checked_query(starts, query.goals, query.obstacles)
    start = lo + len(swaps) * width
    for robot, line in enumerate(straight_moves(current, frame)):
        _append_segment(segments[robot], start, hi, line)


@dataclass(frozen=True, eq=False)
class PlanResult:
    """A planned motion together with the data that selected it.

    ``region`` labels the original query; ``ordering_pair`` belongs to the
    generic configuration actually sorted (the query itself, or its
    desingularized image).  ``domain_index`` is ``region.c``.
    """

    path: PiecewisePath
    region: RegionLabel
    ordering_pair: OrderingPair
    domain_index: int
    swap_count: int
    mode: FrameMode
    frame: Frame


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
    and played on [0, 1], or, for a degenerate query, on [1/3, 2/3] between
    the straight shifts to and from the split (:func:`compose_with_section`).

    Planning is exact, so ``snap_tol`` (``options.snap_tolerance``) must be
    0: a snap tolerance only labels queries (:func:`classify`).

    Raises:
        QueryValidationError: ``snap_tol`` is not 0, a coordinate is above
            ``MAX_COORDINATE`` in magnitude, or via ConfigurationQuery
            construction upstream.
        ModeUnsupportedError: obstacle-pair mode in odd dimension or m < 2.
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
    n = query.robot_count

    if label.j == 2 * n:
        generic_query = query
    else:
        generic_query = desingularize(query, frame)
        post_label = classify(generic_query, frame)
        if post_label.j != 2 * n or post_label.t != label.t:
            raise InternalConsistencyError(
                "desingularization failed to reach a generic configuration "
                f"(expected j={2 * n}, t={label.t}; got j={post_label.j}, t={post_label.t})"
            )

    pair = orderings(generic_query, frame)
    swaps = transposition_sequence(pair.sigma, pair.sigma_prime)
    if generic_query is query:
        segments = [[] for _ in range(n)]
        _play_swaps(segments, query, frame, swaps, Fraction(0), Fraction(1))
        path = PiecewisePath(query=query, segments=segments)
    else:
        path = compose_with_section(query, generic_query, frame, swaps)
    return PlanResult(
        path=path,
        region=label,
        ordering_pair=pair,
        domain_index=label.c,
        swap_count=len(swaps),
        mode=mode,
        frame=frame,
    )
