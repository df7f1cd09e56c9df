"""The full planning rule: classify, desingularize if needed, sort the start
ordering into the goal ordering by elementary swaps, finish with straight
lines.

The output is one exact piecewise path per robot plus the region label whose
index ``c`` names the continuity domain the query fell into.  Identical inputs
produce identical outputs; the construction consults nothing but the query.

This module alone knows the global schedule.  A generic query plays its k
swaps and the straight line on [0, 1], in k + 1 equal windows.  A degenerate
query is split into a generic one (:func:`desingularize`): each robot moves
straight from its start to its split start on [0, 1/3], the swaps and the
straight line of the split query fill [1/3, 2/3], and each robot moves
straight from its split goal back to its goal on [2/3, 1], all into one set
of per-robot segment lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .deformations import (
    Deformation,
    append_segment,
    append_start_moves,
    desingularize,
    straight_moves,
    swap_case_a,
    swap_case_b,
)
from .errors import InternalConsistencyError, InvalidOrderingPairError
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
from .paths import LinearMove, PathSegment, PiecewisePath

__all__ = [
    "CaseASwap",
    "CaseBSwap",
    "PlanResult",
    "compose_with_section",
    "default_mode",
    "generic_section",
    "plan",
    "transposition_sequence",
]


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
    tokens_by_key = {token_key(tok): tok for tok in sigma}

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
            block = tokens_by_key[right]
            swaps.append(
                CaseBSwap(robot=left[1], block=block.obstacles, side=Side.RIGHT)
            )
        elif right[0] == "r":
            block = tokens_by_key[left]
            swaps.append(
                CaseBSwap(robot=right[1], block=block.obstacles, side=Side.LEFT)
            )
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


def _swap_deformation(
    query: ConfigurationQuery, frame: Frame, swap: Swap, snap_tol: float
) -> Deformation:
    if isinstance(swap, CaseASwap):
        return swap_case_a(query, frame, swap.left, swap.right, snap_tol)
    representative = _block_representative(query, swap.block)
    return swap_case_b(query, frame, swap.robot, representative, swap.side, snap_tol)


def generic_section(
    query: ConfigurationQuery, frame: Frame, snap_tol: float = 0.0
) -> PiecewisePath:
    """Path for a generic query (all robot projections pairwise distinct and
    distinct from obstacle projections).

    The swaps that sort the start ordering into the goal ordering are played
    one after another on [0, 1], then every robot moves straight to its goal;
    see :func:`_play_swaps`.  With no swaps this is the straight-line
    section.
    """
    pair = orderings(query, frame, snap_tol)
    swaps = transposition_sequence(pair.sigma, pair.sigma_prime)
    return _generic_path(query, frame, swaps, snap_tol)


def _generic_path(
    query: ConfigurationQuery, frame: Frame, swaps: list[Swap], snap_tol: float
) -> PiecewisePath:
    segments = [[] for _ in range(query.robot_count)]
    _play_swaps(segments, query, frame, swaps, snap_tol, Fraction(0), Fraction(1))
    return PiecewisePath(query=query, segments=segments)


def compose_with_section(
    query: ConfigurationQuery,
    split: ConfigurationQuery,
    frame: Frame,
    swaps: list[Swap],
    snap_tol: float,
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
        append_segment(per_robot, robot, Fraction(0), one_third, shift)
    _play_swaps(segments, split, frame, swaps, snap_tol, one_third, two_thirds)
    for robot, per_robot in enumerate(segments):
        shift = LinearMove(split.goals[robot], query.goals[robot])
        append_segment(per_robot, robot, two_thirds, Fraction(1), shift)
    return PiecewisePath(query=query, segments=segments)


def _play_swaps(
    segments: list[list[PathSegment]],
    query: ConfigurationQuery,
    frame: Frame,
    swaps: list[Swap],
    snap_tol: float,
    lo: Fraction,
    hi: Fraction,
):
    """Append ``swaps``, played in order on the global window [lo, hi], and
    then the straight line to the per-robot lists ``segments``.

    With k swaps the window splits into k + 1 equal parts: swap i fills part
    i, one third of it per stage, and the straight line fills part k.  Swaps
    move starts only, so each one is built on the configuration the previous
    one left and the goals stay put.  A robot gets segments only where it
    moves; each rest fills the gap before its next move.  The parts depend
    only on the swap list, which is locally constant wherever the tie
    pattern is, so the schedule keeps the rule continuous on each domain.
    """
    width = (hi - lo) / (len(swaps) + 1)
    current = query
    for i, swap in enumerate(swaps):
        deformation = _swap_deformation(current, frame, swap, snap_tol)
        append_start_moves(segments, deformation, lo + i * width, lo + (i + 1) * width)
        current = deformation.end_query()
    start = lo + len(swaps) * width
    for robot, line in enumerate(straight_moves(current, frame, snap_tol)):
        append_segment(segments[robot], robot, start, hi, line)


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

    Raises:
        QueryValidationError: via ConfigurationQuery construction upstream.
        ModeUnsupportedError: obstacle-pair mode in odd dimension or m < 2.
    """
    mode = default_mode(query) if mode is None else FrameMode(mode)
    frame = make_frame(query, mode)
    label = classify(query, frame, snap_tol)
    n = query.robot_count

    if label.j == 2 * n:
        generic_query = query
    else:
        generic_query = desingularize(query, frame, snap_tol)
        post_label = classify(generic_query, frame, snap_tol)
        if post_label.j != 2 * n or post_label.t != label.t:
            raise InternalConsistencyError(
                "desingularization failed to reach a generic configuration "
                f"(expected j={2 * n}, t={label.t}; got j={post_label.j}, t={post_label.t})"
            )

    pair = orderings(generic_query, frame, snap_tol)
    swaps = transposition_sequence(pair.sigma, pair.sigma_prime)
    if generic_query is query:
        path = _generic_path(query, frame, swaps, snap_tol)
    else:
        path = compose_with_section(query, generic_query, frame, swaps, snap_tol)
    return PlanResult(
        path=path,
        region=label,
        ordering_pair=pair,
        domain_index=label.c,
        swap_count=len(swaps),
        mode=mode,
        frame=frame,
    )
