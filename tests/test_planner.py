"""Swap sequencing, generic plans and the end-to-end planning rule."""

from __future__ import annotations

import fractions
import itertools
import sys
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parammp import (
    CaseASwap,
    CaseBSwap,
    ConfigurationQuery,
    FrameMode,
    InternalConsistencyError,
    InvalidOrderingPairError,
    QueryValidationError,
    Side,
    certify_separation,
    classify,
    default_mode,
    degenerate_query,
    desingularize,
    make_frame,
    orderings,
    plan,
    random_query,
    random_rational_query,
    serialize_plan,
    transposition_sequence,
)
from parammp import geometry, paths, planner
from checked_swaps import checked_case_a, checked_case_b, scanned_clearance
from hand_built_paths import case_a_radii, path_rows, row_fields
from query_strategies import small_queries


def bfs_swap_distance(sigma, sigma_prime):
    """Shortest number of legal adjacent transpositions between two orderings.

    Legal swaps exchange adjacent entries unless both are obstacle blocks.
    Independent of the production discipline: plain breadth-first search.
    """
    start = tuple(sigma)
    goal = tuple(sigma_prime)
    if start == goal:
        return 0
    seen = {start}
    frontier = deque([(start, 0)])
    while frontier:
        state, dist = frontier.popleft()
        for p in range(len(state) - 1):
            if _is_block(state[p]) and _is_block(state[p + 1]):
                continue
            swapped = list(state)
            swapped[p], swapped[p + 1] = swapped[p + 1], swapped[p]
            swapped = tuple(swapped)
            if swapped == goal:
                return dist + 1
            if swapped not in seen:
                seen.add(swapped)
                frontier.append((swapped, dist + 1))
    raise AssertionError("patterns are not connected by legal swaps")


def _is_block(entry):
    return isinstance(entry, frozenset)


def _entries(n, t):
    """Robots 0..n-1 and the one-obstacle blocks {0}, ..., {t-1}, in order."""
    return list(range(n)) + [frozenset({k}) for k in range(t)]


def all_patterns(n, t):
    """Every ordering of n robots and t blocks with the blocks in order."""
    entries = _entries(n, t)
    blocks = [e for e in entries if _is_block(e)]
    return [
        perm
        for perm in itertools.permutations(entries)
        if [e for e in perm if _is_block(e)] == blocks
    ]


class TestTranspositionSequence:
    def _pair(self, starts, goals, obstacles):
        q = ConfigurationQuery(starts=starts, goals=goals, obstacles=obstacles)
        return q, orderings(q, make_frame(q, FrameMode.FIXED))

    def test_equal_patterns_give_empty_sequence(self):
        _, pair = self._pair(
            [[0.0, 1.0, 0.0]], [[0.5, 2.0, 0.0]], [[3.0, 0.0, 0.0]]
        )
        assert transposition_sequence(pair.sigma, pair.sigma_prime) == []

    def test_single_obstacle_crossing_is_one_case_b(self):
        _, pair = self._pair(
            [[0.0, 1.0, 0.0]], [[2.0, 2.0, 0.0]], [[1.0, 0.0, 0.0]]
        )
        swaps = transposition_sequence(pair.sigma, pair.sigma_prime)
        assert swaps == [CaseBSwap(robot=0, block=frozenset({0}), side=Side.RIGHT)]

    def test_robot_pair_exchange_is_one_case_a(self):
        _, pair = self._pair(
            [[0.0, 1.0, 0.0], [1.0, 2.0, 0.0]],
            [[1.5, 3.0, 0.0], [0.5, 4.0, 0.0]],
            [[9.0, 0.0, 0.0]],
        )
        swaps = transposition_sequence(pair.sigma, pair.sigma_prime)
        assert swaps == [CaseASwap(left=0, right=1)]

    def test_mismatched_blocks_rejected(self):
        _, pair_a = self._pair(
            [[0.0, 1.0, 0.0]], [[2.0, 2.0, 0.0]], [[1.0, 0.0, 0.0]]
        )
        sigma = pair_a.sigma
        bad_prime = (0, frozenset({0, 1}))
        with pytest.raises(InvalidOrderingPairError):
            transposition_sequence(sigma, bad_prime)

    @pytest.mark.parametrize(
        "sigma, sigma_prime",
        [
            ((0, 0), (0, 0)),
            ((0, frozenset({0, 1}), frozenset({1})), (frozenset({0, 1}), frozenset({1}), 0)),
            ((frozenset({0}), frozenset({1}), 0), (frozenset({1}), frozenset({0}), 0)),
            ((0, frozenset({0})), (1, frozenset({0}))),
        ],
        ids=["duplicated-robot", "overlapping-blocks", "block-order", "different-robots"],
    )
    def test_malformed_pair_rejected(self, sigma, sigma_prime):
        with pytest.raises(InvalidOrderingPairError):
            transposition_sequence(sigma, sigma_prime)

    def test_length_matches_bfs_oracle_exhaustively(self):
        # every (n, t) with n + t <= 5 <=> every (n, m) with n + m <= 5 and
        # t distinct obstacle values
        for n in range(1, 5):
            for t in range(1, 6 - n):
                patterns = all_patterns(n, t)
                distances = {}
                for sigma in patterns:
                    for sigma_prime in patterns:
                        produced = transposition_sequence(sigma, sigma_prime)
                        key = (sigma, sigma_prime)
                        distances[key] = len(produced)
                        assert distances[key] == _inversions(sigma, sigma_prime)
                # spot-check the BFS oracle on a deterministic subsample (the
                # full quadratic sweep is covered by the acceptance suite)
                sample = patterns[:: max(1, len(patterns) // 6)]
                for sigma in sample:
                    for sigma_prime in sample:
                        assert distances[(sigma, sigma_prime)] == bfs_swap_distance(
                            sigma, sigma_prime
                        )

    def test_resumed_scan_matches_restart_from_zero(self):
        rng = np.random.default_rng(34)
        for _ in range(300):
            n, t = int(rng.integers(1, 9)), int(rng.integers(0, 5))
            entries = _entries(n, t)
            sigma, sigma_prime = (_random_pattern(rng, entries) for _ in range(2))
            produced = [
                (s.left, s.right) if isinstance(s, CaseASwap) else (s.robot, s.block, s.side)
                for s in transposition_sequence(sigma, sigma_prime)
            ]
            assert produced == _restart_scan_swaps(sigma, sigma_prime)

    def test_blocks_never_swap(self):
        _, pair = self._pair(
            [[0.0, 1.0, 0.0], [3.0, 2.0, 0.0]],
            [[4.0, 3.0, 0.0], [7.0, 4.0, 0.0]],
            [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [6.0, 0.0, 0.0]],
        )
        swaps = transposition_sequence(pair.sigma, pair.sigma_prime)
        assert all(isinstance(s, CaseBSwap) for s in swaps)
        # robot 0 crosses two blocks, robot 1 one block; blocks keep their order
        assert len(swaps) == 3


def _random_pattern(rng, entries):
    """A random ordering of ``entries`` with the blocks kept in their order."""
    order = [entries[i] for i in rng.permutation(len(entries))]
    blocks = iter([e for e in entries if _is_block(e)])
    return tuple(next(blocks) if _is_block(e) else e for e in order)


def _restart_scan_swaps(sigma, sigma_prime):
    """Reference discipline: rescan from position 0 after every swap."""
    current = list(sigma)
    rank = {entry: pos for pos, entry in enumerate(sigma_prime)}
    swaps = []
    while True:
        for p in range(len(current) - 1):
            if rank[current[p]] > rank[current[p + 1]]:
                break
        else:
            return swaps
        left, right = current[p], current[p + 1]
        if not _is_block(left) and not _is_block(right):
            swaps.append((left, right))
        elif not _is_block(left):
            swaps.append((left, right, Side.RIGHT))
        else:
            swaps.append((right, left, Side.LEFT))
        current[p], current[p + 1] = right, left


def _inversions(sigma, sigma_prime):
    rank = {entry: pos for pos, entry in enumerate(sigma_prime)}
    seq = [rank[entry] for entry in sigma]
    return sum(
        1
        for i in range(len(seq))
        for k in range(i + 1, len(seq))
        if seq[i] > seq[k]
    )


class TestGenericSection:
    """Plans of generic queries: the swaps and the straight line on [0, 1]."""

    def test_order_preserving_query_is_straight(self):
        q = ConfigurationQuery(
            starts=[[0.0, 1.0, 0.0], [1.0, 2.0, 0.0]],
            goals=[[0.25, 3.0, 0.0], [1.5, 4.0, 0.0]],
            obstacles=[[9.0, 0.0, 0.0]],
        )
        path = plan(q, FrameMode.FIXED).path
        assert all(len(per_robot) == 1 for per_robot in path.segments)
        assert not path._columns.arc.any()

    def test_single_crossing_has_exactly_one_arc(self):
        q = ConfigurationQuery(
            starts=[[0.0, 1.0, 0.0]], goals=[[2.0, 2.0, 0.0]], obstacles=[[1.0, 0.0, 0.0]]
        )
        result = plan(q, FrameMode.FIXED)
        assert result.region.j == 2 * q.robot_count
        assert result.path._columns.arc.tolist().count(True) == 1

    def test_endpoints_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            q = random_query(rng, 2, 2, 3)
            path = plan(q, FrameMode.FIXED).path
            assert np.linalg.norm(path.configuration(0.0) - q.starts) <= 1e-9
            assert np.linalg.norm(path.configuration(1.0) - q.goals) <= 1e-9


class TestPlan:
    def test_identity_query_round_trip(self):
        # starts == goals is a degenerate query (start/goal projections
        # coincide); the plan must still return to the exact same points
        q = ConfigurationQuery(
            starts=[[0.0, 1.0, 0.0], [2.0, 2.0, 0.0]],
            goals=[[0.0, 1.0, 0.0], [2.0, 2.0, 0.0]],
            obstacles=[[5.0, 0.0, 0.0]],
        )
        res = plan(q, mode="fixed")
        assert res.domain_index == res.region.c == q.robot_count + res.region.t
        assert np.linalg.norm(res.path.configuration(0.0) - q.starts) == 0.0
        assert np.linalg.norm(res.path.configuration(1.0) - q.goals) <= 1e-9
        assert res.swap_count == 0
        assert certify_separation(res.path).passed

    @pytest.mark.parametrize("mode", ["fixed", "obstacle_pair", None])
    def test_mode_is_the_frame_mode(self, mode):
        # PlanResult.mode is read off the frame plan built; None picks the
        # default (obstacle-pair here: d = 2 and m = 2).
        q = ConfigurationQuery(
            starts=[[0.0, 1.0], [2.0, 3.0]], goals=[[5.0, 6.0], [1.5, 7.0]],
            obstacles=[[1.0, 5.0], [3.0, 5.5]],
        )
        res = plan(q, mode=mode)
        expected = default_mode(q) if mode is None else FrameMode(mode)
        assert res.mode is res.frame.mode is expected
        assert res.frame.e.tolist() == make_frame(q, expected).e.tolist()

    def test_generic_crossing_certified(self):
        q = ConfigurationQuery(
            starts=[[0.0, 1.0, 0.0]], goals=[[2.0, 0.0, 1.0]],
            obstacles=[[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]],
        )
        res = plan(q, mode="fixed")
        assert res.domain_index == 4
        assert certify_separation(res.path).passed

    def test_fully_degenerate_starts_with_desingularization(self):
        q = ConfigurationQuery(
            starts=[[0.0, 1.0, 0.0]], goals=[[0.0, 2.0, 0.0]], obstacles=[[0.0, 0.0, 1.0]]
        )
        res = plan(q, mode="fixed")
        assert res.domain_index == 1
        # the first window of the motion is the desingularization shift along e
        first = res.path.segments[0][0]
        assert first.t1 == Fraction(3, 3 * (res.swap_count + 3))
        fields = row_fields(path_rows(res.path)[0][0][2], 3)
        direction = fields["end"] - fields["start"]
        assert np.allclose(direction - (direction @ res.frame.e) * res.frame.e, 0.0)
        assert float(direction @ res.frame.e) > 0
        assert certify_separation(res.path).passed

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(32)
        q = random_query(rng, 2, 2, 3)
        first = plan(q, mode="fixed")
        second = plan(q, mode="fixed")
        assert serialize_plan(first) == serialize_plan(second)

    def test_default_mode_selection(self):
        q_even = ConfigurationQuery(
            starts=[[0.0, 1.0]], goals=[[5.0, 1.0]], obstacles=[[1.0, 0.0], [2.0, 0.0]]
        )
        assert default_mode(q_even) is FrameMode.OBSTACLE_PAIR
        q_odd = ConfigurationQuery(
            starts=[[0.0, 1.0, 0.0]], goals=[[5.0, 1.0, 0.0]],
            obstacles=[[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
        )
        assert default_mode(q_odd) is FrameMode.FIXED
        q_single = ConfigurationQuery(
            starts=[[0.0, 1.0]], goals=[[5.0, 1.0]], obstacles=[[1.0, 0.0]]
        )
        assert default_mode(q_single) is FrameMode.FIXED

    def test_plan_region_matches_classify(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            q = random_query(rng, 2, 2, 3)
            res = plan(q, mode="fixed")
            label = classify(q, make_frame(q, FrameMode.FIXED))
            assert res.region == label
            assert res.domain_index == label.c

    def test_relabeling_within_coincident_block_keeps_trajectory(self):
        starts = [[3.0, 1.0, 0.0]]
        goals = [[-3.0, 1.5, 0.0]]
        block = [[0.0, 0.0, 0.0], [0.0, 4.0, 0.0]]  # same first-axis value
        q1 = ConfigurationQuery(starts=starts, goals=goals, obstacles=block)
        q2 = ConfigurationQuery(starts=starts, goals=goals, obstacles=block[::-1])
        res1 = plan(q1, mode="fixed")
        res2 = plan(q2, mode="fixed")
        ts = np.linspace(0, 1, 257)
        p1 = res1.path.positions_at(0, ts)
        p2 = res2.path.positions_at(0, ts)
        assert np.array_equal(p1, p2)

    def test_swap_count_counts_inversions(self):
        q = ConfigurationQuery(
            starts=[[0.0, 1.0, 0.0], [1.0, 2.0, 0.0]],
            goals=[[1.5, 3.0, 0.0], [0.5, 4.0, 0.0]],
            obstacles=[[9.0, 0.0, 0.0]],
        )
        res = plan(q, mode="fixed")
        assert res.swap_count == 1

    def test_positive_snap_tolerance_is_rejected(self):
        # A degenerate query with float noise on the coincidence: planning
        # is exact and plans the generic query it sees; a tolerance that
        # would plan the snapped query instead is refused, naming the option.
        noisy = ConfigurationQuery(
            starts=[[1e-13, 1.0, 0.0]],
            goals=[[2.0, 2.0, 0.0]],
            obstacles=[[0.0, 0.0, 1.0], [4.0, 0.0, 0.0]],
        )
        exact = plan(noisy, mode="fixed")
        assert exact.region.j == 2
        assert certify_separation(exact.path).passed
        with pytest.raises(QueryValidationError, match="options.snap_tolerance must be 0"):
            plan(noisy, mode="fixed", snap_tol=1e-9)

    def test_obstacle_pair_plan_d2(self):
        q = ConfigurationQuery(
            starts=[[-1.0, 0.5]], goals=[[2.0, 0.7]], obstacles=[[0.0, 0.0], [1.0, 0.0]]
        )
        res = plan(q)
        assert res.mode is FrameMode.OBSTACLE_PAIR
        assert res.domain_index == 4
        assert certify_separation(res.path).passed

    def test_degenerate_suite_hits_every_region(self):
        for n, m in [(1, 1), (1, 2), (2, 2)]:
            for j in range(0, 2 * n + 1):
                for t in range(1, m + 1):
                    q = degenerate_query(n, m, 3, j, t)
                    res = plan(q, mode="fixed")
                    assert (res.region.j, res.region.t) == (j, t)
                    assert certify_separation(res.path).passed


def _is_rest(row, d):
    return len(row) == 2 * d and np.array_equal(row[:d], row[d:])


class TestPlannerFaults:
    """Queries the planner cannot serve are its own fault, named where they
    arise: InternalConsistencyError, never a raw error or a precondition
    error of the caller's.  Near ties it plans, but whose paths do not
    certify, are strict xfails naming the ROADMAP item that mends them."""

    def test_zero_radius_arc_names_robot_and_tick(self):
        # The starts project one subnormal apart; the Case A radius, half
        # the gap, rounds to 0.
        q = ConfigurationQuery(
            starts=[[0.0, 0.0], [5e-324, 1.0]], goals=[[2.0, 3.0], [1.0, 4.0]],
            obstacles=[[7.0, 0.0]],
        )
        message = r"^robot 0 has an invalid arc at t=1/6: arc radius must be positive$"
        with pytest.raises(InternalConsistencyError, match=message):
            plan(q)

    # A near-grid obstacle-pair query (seed 5 of the random search in
    # CHANGES.md): the sweep orders starts 1 and 2 on frame.axis, and their
    # e-projections round the other way.
    E_REVERSES = ConfigurationQuery(
        starts=[[1.999999999999, 1.000000000001], [0.499999999999, -0.499999999999],
                [1.500000000001, 1.000000000001]],
        goals=[[1.999999999999, 2.999999999999], [-1.499999999999, 3.000000000001],
               [-1e-12, -1.5]],
        obstacles=[[-1.000000000001, 1.499999999999], [-2.500000000001, 2.500000000001]],
    )

    def test_case_a_pair_the_sweep_ordered_but_e_reverses(self):
        # The swap places the pair by the sweep's comparison values, in the
        # sweep's order, so it plans with a positive arc radius.
        q = self.E_REVERSES
        assert default_mode(q) is FrameMode.OBSTACLE_PAIR
        frame = make_frame(q, FrameMode.OBSTACLE_PAIR)
        assert float(q.starts[1] @ frame.e) >= float(q.starts[2] @ frame.e)
        result = plan(q)
        assert result.swaps[0] == CaseASwap(left=1, right=2)
        assert all(radius > 0 for radius in case_a_radii(result))
        pairs = certify_separation(result.path, samples_per_segment=16).pairs
        assert all(p.sampled_min > 0 for p in pairs)

    @pytest.mark.xfail(
        strict=True,
        reason="robots 1 and 2 pass 1.1e-16 apart, within the rounding of their"
        " coordinates (ROADMAP item 15, the conditioning contract)",
    )
    def test_case_a_pair_the_sweep_ordered_but_e_reverses_certifies(self):
        assert certify_separation(plan(self.E_REVERSES).path, samples_per_segment=16).passed

    # Obstacle-pair mode: e runs from obstacle 0 to obstacle 1, so the line
    # through obstacle 0 parallel to e holds obstacle 1.
    DROP_ON_OBSTACLE = ConfigurationQuery(
        starts=[[-0.999999999999, -2.499999999999999]],
        goals=[[2.5000000000003, 1e-12]],
        obstacles=[[1e-15, 1e-15], [0.0, -2.499999999999999],
                   [-0.999999999999999, 3.0000000000003]],
    )

    def test_case_b_drop_through_the_frame_obstacles_plans(self):
        # Swap 1 carries robot 0 across obstacle 0; its drop onto the line
        # through obstacle 0 ends at t = 4/9.
        result = plan(self.DROP_ON_OBSTACLE, mode="obstacle_pair")
        assert result.swaps == (
            CaseBSwap(robot=0, block=frozenset({1}), side=Side.LEFT),
            CaseBSwap(robot=0, block=frozenset({0}), side=Side.LEFT),
        )
        assert result.path.den == 9

    @pytest.mark.xfail(
        strict=True,
        reason="the drop lands on obstacles[1] bit for bit: the swap does not"
        " keep off other obstacles on the line (ROADMAP item 13, clearances from"
        " the free slot)",
    )
    def test_case_b_drop_keeps_off_the_other_frame_obstacle(self):
        result = plan(self.DROP_ON_OBSTACLE, mode="obstacle_pair")
        pairs = certify_separation(result.path, samples_per_segment=16).pairs
        assert all(p.sampled_min != 0 for p in pairs)

    @pytest.mark.xfail(
        strict=True,
        raises=InternalConsistencyError,
        reason="swap 3384: starts[23] coincides with obstacles[60], a clearance"
        " halved to nothing below the n = m = 100 of ROADMAP item 1 (clearances that"
        " do not halve with each crossing)",
    )
    def test_eighty_robots_and_obstacles_plan(self):
        plan(random_query(np.random.default_rng(1), 80, 80, 3))


class TestPlanResultSwaps:
    @settings(max_examples=150, deadline=None)
    @given(small_queries())
    def test_swaps_sort_the_planned_ordering_pair(self, case):
        # the swaps sort the ordering pair of the query itself when it is
        # generic, else of its split; d in {2, 3, 4}, both modes, grid
        # (often degenerate) and float queries
        query, mode = case
        result = plan(query, mode=mode)
        frame = make_frame(query, mode)
        generic = classify(query, frame).j == 2 * query.robot_count
        pair = orderings(query if generic else desingularize(query, frame), frame)
        assert result.swaps == tuple(transposition_sequence(pair.sigma, pair.sigma_prime))
        assert result.swap_count == len(result.swaps)
        assert result.domain_index == result.region.c


class TestFlatSchedule:
    @settings(max_examples=150, deadline=None)
    @given(small_queries())
    def test_min_segment_duration_bound(self, case):
        # k swaps fill k + 1 equal windows, one third per stage; a degenerate
        # query plays that schedule between two more windows, its shifts
        query, mode = case
        res = plan(query, mode=mode)
        windows = 3 * (res.swap_count + 1)
        if res.region.j < 2 * query.robot_count:
            windows += 6
        durations = [seg.duration for per in res.path.segments for seg in per]
        assert min(durations) >= Fraction(1, windows)
        for per in path_rows(res.path):
            for (_, _, a), (_, _, b) in zip(per, per[1:]):
                assert not (_is_rest(a, query.dim) and _is_rest(b, query.dim))

    @pytest.mark.parametrize("n", [8, 10])
    def test_certificate_passes_at_64_samples(self, n):
        q = random_query(np.random.default_rng(0), n, n, 3)
        res = plan(q, mode="fixed")
        assert certify_separation(res.path, samples_per_segment=64).passed

    def test_many_swaps_plan_without_recursion(self):
        q = random_query(np.random.default_rng(0), 25, 25, 3)
        res = plan(q, mode="fixed")
        assert res.swap_count > 300
        assert np.array_equal(res.path.configuration(1.0), q.goals)

    def test_many_swaps_plan_at_fifty_robots(self):
        q = random_query(np.random.default_rng(0), 50, 50, 3)
        res = plan(q, mode="fixed")
        assert res.swap_count > 300
        assert np.array_equal(res.path.configuration(1.0), q.goals)

    def test_segments_built_only_for_moving_robots(self, monkeypatch):
        # a swap moves one or two robots; writing a rest for every idle
        # robot at every stage would cost about n rows per swap
        q = random_query(np.random.default_rng(0), 20, 20, 3)
        built = 0
        original = planner._append_segment

        def counting(*args):
            nonlocal built
            built += 1
            original(*args)

        monkeypatch.setattr(planner, "_append_segment", counting)
        res = plan(q, mode="fixed")
        emitted = len(res.path._columns.arc)
        assert res.swap_count > 200
        assert built <= 2 * emitted


def _scaled(query, scale):
    return ConfigurationQuery(
        starts=query.starts * scale, goals=query.goals * scale, obstacles=query.obstacles * scale
    )


class TestScale:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(small_queries(), st.integers(0, 12))
    def test_scaled_query_plans_like_the_unscaled_one(self, case, k):
        # Arc endpoints carry rounding in proportion to the coordinates, so
        # junctions are checked relative to the query's extent.  Fixed frames
        # compare first coordinates, which scaling keeps in order and tied
        # exactly, so region and swaps must not change.  (An obstacle-pair
        # frame compares rounded dot products, whose ties scaling can break.)
        query, _ = case
        base, res = plan(query, mode="fixed"), plan(_scaled(query, 10.0**k), mode="fixed")
        assert res.region == base.region
        assert res.swaps == base.swaps
        assert certify_separation(res.path, samples_per_segment=16).passed

    # A draw the property above once failed on at k = 12: start, goal and
    # obstacle share x = 0, so every gap is tied.  The split fell back to a
    # gap of 1.0 whatever the scale, and the robot passed the obstacle 0.4
    # apart at coordinates of 2e12; it now falls back to the query's extent.
    ALL_TIED = ConfigurationQuery(
        starts=[[0.0, -0.5]], goals=[[0.0, 2.0]], obstacles=[[0.0, 0.0]]
    )

    def test_all_tied_query_scaled_by_1e12_plans_like_the_unscaled_one(self):
        base = plan(self.ALL_TIED, mode="fixed")
        res = plan(_scaled(self.ALL_TIED, 1e12), mode="fixed")
        assert res.region == base.region
        assert res.swaps == base.swaps
        (pair,) = certify_separation(res.path, samples_per_segment=16).pairs
        assert pair.sampled_min > 0

    def test_all_tied_query_scaled_by_1e12_certifies(self):
        res = plan(_scaled(self.ALL_TIED, 1e12), mode="fixed")
        assert certify_separation(res.path, samples_per_segment=16).passed

    @pytest.mark.parametrize("k", [6, 8, 10, 12])
    def test_scaled_random_queries_plan_and_certify(self, k):
        for seed in range(20):
            q = random_query(np.random.default_rng(seed), 3, 3, 3)
            res = plan(_scaled(q, 10.0**k), mode="fixed")
            assert certify_separation(res.path, samples_per_segment=16).passed


def _reference_play_swaps(entries, query, frame, swaps, lo):
    """The planner's swap loop before it kept one sweep state: each swap is
    built by its checked form (``checked_swaps``) on the configuration the
    last one ended on, rebuilt and fully validated as a query after every
    swap, and the straight line is drawn once the orderings agree.  Stage j
    of swap i plays on tick lo + 3i + j."""
    tol, d = paths.endpoint_tol(query), query.dim
    current = query
    starts = np.array(query.starts)
    for i, swap in enumerate(swaps):
        if isinstance(swap, CaseASwap):
            stages = checked_case_a(current, frame, swap.left, swap.right)
        else:
            representative = planner._block_representative(current, swap.block)
            stages = checked_case_b(current, frame, swap.robot, representative, swap.side)
        assert len(stages) == 3
        for j, stage in enumerate(stages):
            t0 = lo + 3 * i + j
            for robot, row in stage.items():
                if not np.linalg.norm(paths.row_initial(row, d) - starts[robot]) <= tol:
                    raise InternalConsistencyError(f"stage does not chain for robot {robot}")
                starts[robot] = paths.row_final(row, d)
                planner._append_segment(entries[robot], t0, t0 + 1, row, d)
        current = ConfigurationQuery(starts, query.goals, query.obstacles)
    pair = orderings(current, frame)
    assert pair.sigma == pair.sigma_prime
    start = lo + 3 * len(swaps)
    for robot, goal in enumerate(query.goals):
        line = paths.line_row(current.starts[robot].tolist(), goal.tolist())
        planner._append_segment(entries[robot], start, start + 3, line, d)


def _reference_plan_text(query, mode):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(planner, "_play_swaps", _reference_play_swaps)
        return serialize_plan(plan(query, mode=mode))


class TestSweepState:
    """The swaps play on one sweep state, validated once."""

    @settings(max_examples=200, deadline=None)
    @given(small_queries())
    def test_plans_match_the_per_swap_reference(self, case):
        query, mode = case
        assert serialize_plan(plan(query, mode=mode)) == _reference_plan_text(query, mode)

    @settings(max_examples=200, deadline=None)
    @given(small_queries())
    def test_sweep_clearance_is_the_scanned_one(self, case):
        # each Case B swap's clearance, whose term (a) the sweep reads from
        # its list and its sorted goal values, is the float the O(n + m)
        # scan gives on the configuration the swap starts from
        query, mode = case
        seen, original = [], planner.swap_case_b

        def recording(starts, frame, robot, obstacle, side, values, distance):
            eta = geometry.clearance_eta(*values, frame, distance)
            seen.append((starts.copy(), frame, robot, side, eta))
            return original(starts, frame, robot, obstacle, side, values, distance)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(planner, "swap_case_b", recording)
            result = plan(query, mode=mode)
        generic = query
        if result.region.j < 2 * query.robot_count:
            generic = desingularize(query, result.frame)
        crossings = [swap for swap in result.swaps if isinstance(swap, CaseBSwap)]
        assert len(seen) == len(crossings)
        for (starts, frame, robot, side, eta), swap in zip(seen, crossings):
            current = ConfigurationQuery(starts, generic.goals, generic.obstacles)
            representative = planner._block_representative(generic, swap.block)
            assert eta.hex() == scanned_clearance(current, frame, robot, representative, side).hex()

    def test_plan_matches_the_per_swap_reference_at_twenty_robots(self):
        q = random_query(np.random.default_rng(0), 20, 20, 3)
        assert serialize_plan(plan(q, mode="fixed")) == _reference_plan_text(q, "fixed")

    @pytest.mark.parametrize(
        "query, swap_count, validations, tie_tables",
        [
            # No validation: the query was validated when it was built.
            (random_query(np.random.default_rng(0), 20, 20, 3), 205, 0, 3),
            # One validation, of the split (j = 4 < 2n).
            (random_rational_query(np.random.default_rng(0), 8, 8, 3, denominator=2, span=6),
             36, 1, 4),
        ],
        ids=["generic", "degenerate"],
    )
    def test_validations_do_not_grow_with_the_swaps(
        self, monkeypatch, query, swap_count, validations, tie_tables
    ):
        # The per-swap loop validated a fresh query and built a fresh tie
        # table after each of the 205 swaps of the generic query.
        calls = {"validate": 0, "ties": 0}

        def counting(name, function):
            def counted(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return counted

        validate = counting("validate", ConfigurationQuery.__post_init__)
        monkeypatch.setattr(ConfigurationQuery, "__post_init__", validate)
        ties = counting("ties", geometry._ties)
        for module in (geometry, planner):
            monkeypatch.setattr(module, "_ties", ties, raising=False)
        res = plan(query, mode="fixed")
        assert res.swap_count == swap_count
        assert calls["validate"] <= validations and calls["ties"] <= tie_tables, calls

    @pytest.mark.parametrize("mode", ["fixed", "obstacle_pair"])
    @pytest.mark.parametrize(
        "denominator, tables", [(None, 1), (2, 2)], ids=["generic", "degenerate"]
    )
    def test_one_tie_table_per_configuration(self, monkeypatch, mode, denominator, tables):
        # classify, orderings, the gap and the sweep read one table for the
        # query and one for its split; none of them writes it
        rng = np.random.default_rng(0)
        if denominator is None:
            query = random_query(rng, 6, 6, 4)
        else:
            query = random_rational_query(rng, 6, 6, 4, denominator=2, span=6)
        worked_out = []
        original = geometry._tie_table

        def counting(query, frame, snap_tol):
            worked_out.append((query, frame))
            return original(query, frame, snap_tol)

        monkeypatch.setattr(geometry, "_tie_table", counting)
        res = plan(query, mode=mode)
        assert res.swap_count > 0 and len(worked_out) == tables
        assert worked_out[0][0] is query
        for configuration, frame in worked_out:
            values, rank = geometry._ties(configuration, frame)
            again = original(configuration, frame, 0.0)
            assert (values.tobytes(), rank.tobytes()) == (again[0].tobytes(), again[1].tobytes())
            assert not values.flags.writeable and not rank.flags.writeable
        assert len(worked_out) == tables


def _check_slots(sweep, query, frame):
    """The sweep's list, ``where`` and ``beyond`` against O(n + m) scans of
    the comparison values of its running starts, the goals and the
    obstacles."""
    n = query.robot_count
    tables = (np.array(sweep.points), query.goals, query.obstacles)
    values = np.concatenate([points @ frame.axis for points in tables])
    assert np.array(sweep.listed).tobytes() == values.tobytes()
    order = sweep.order
    # every start and one obstacle per block, a crossed block's representative
    assert sorted(k for k in order if k < n) == list(range(n))
    assert all(k >= 2 * n for k in order if k >= n)
    for block, (o, _, _) in sweep.blocks.items():
        assert o == 2 * n + planner._block_representative(query, block) and o in order
    assert [values[k] for k in order] == sorted({*values[:n], *values[2 * n:]})
    assert sweep.where == {k: p for p, k in enumerate(order)}
    for place, k in enumerate(order):
        left = float(np.max(values[values < values[k]], initial=-np.inf))
        right = float(np.min(values[values > values[k]], initial=np.inf))
        assert sweep.beyond(place, Side.LEFT).hex() == left.hex()
        assert sweep.beyond(place, Side.RIGHT).hex() == right.hex()


def _play_with_slot_checks(query, mode):
    """Play ``query``'s swaps in the sweep, checking its slots after each;
    return how many swaps were checked and played."""
    result = plan(query, mode=mode)
    frame = result.frame
    if result.region.j < 2 * query.robot_count:
        query = desingularize(query, frame)
    checked, original = [], planner._Sweep.swap

    def swap(sweep, *args):
        original(sweep, *args)
        _check_slots(sweep, query, frame)
        checked.append(args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(planner._Sweep, "swap", swap)
        entries = [[] for _ in range(query.robot_count)]
        planner._play_swaps(entries, query, frame, list(result.swaps), 0)
    return len(checked), result.swap_count


class TestSlotStructure:
    """The sweep's sorted list stays the start ordering of the running
    starts, and answers what is next to each entry, after every swap."""

    @settings(max_examples=200, deadline=None)
    @given(small_queries())
    def test_slots_match_the_scans_after_every_swap(self, case):
        checked, played = _play_with_slot_checks(*case)
        assert checked == played

    def test_slots_match_the_scans_at_twenty_robots(self):
        q = random_query(np.random.default_rng(0), 20, 20, 3)
        assert _play_with_slot_checks(q, "fixed") == (205, 205)


class TestTicks:
    """Segment bounds are integer ticks over one denominator per path."""

    @pytest.mark.parametrize("half_grid", [False, True], ids=["generic", "grid"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_every_bound_is_a_tick_over_the_schedule_denominator(self, half_grid, data):
        # k swaps of three stages, then the straight line: 3(k + 1) ticks; a
        # degenerate query plays them between its two shifts of three ticks,
        # on 3(k + 3)
        query, mode = data.draw(small_queries(half_grid=half_grid))
        res = plan(query, mode=mode)
        den = 3 * (res.swap_count + 1)
        if res.region.j < 2 * query.robot_count:
            den += 6
        assert res.path.den == den
        for per in res.path.segments:
            for seg in per:
                assert seg.den == den
                assert type(seg.start) is int and type(seg.stop) is int
                assert (seg.t0, seg.t1) == (Fraction(seg.start, den), Fraction(seg.stop, den))
                assert seg.duration == seg.t1 - seg.t0

    @pytest.mark.parametrize("denominator", [None, 2], ids=["generic", "degenerate"])
    def test_plan_certify_and_serialize_run_no_fraction_code(self, denominator):
        rng = np.random.default_rng(0)
        if denominator is None:
            query = random_query(rng, 8, 8, 3)
        else:  # half-units in [-3, 3]: coincidences, so a split and 3(k + 3) ticks
            query = random_rational_query(rng, 8, 8, 3, denominator=2, span=6)
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == fractions.__file__:
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            result = plan(query, mode="fixed")
            certify_separation(result.path, samples_per_segment=64)
            serialize_plan(result)
        finally:
            sys.setprofile(None)
        assert result.swap_count > 0
        assert result.path.den == 3 * (result.swap_count + (1 if denominator is None else 3))
        assert calls == []
