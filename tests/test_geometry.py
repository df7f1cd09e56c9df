"""Frames, projections, classification, orderings, gaps and clearances."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parammp import (
    ConfigurationQuery,
    Frame,
    FrameMode,
    InternalConsistencyError,
    ModeUnsupportedError,
    NotGenericError,
    QueryValidationError,
    RegionLabel,
    Side,
    certify_separation,
    classify,
    classify_oracle,
    component_count,
    make_frame,
    orderings,
    plan,
    random_query,
)
from parammp.geometry import _ties, desingularization_gap
from parammp.planner import CaseASwap, CaseBSwap, _play_swaps
from checked_swaps import PreconditionError, checked_clearance
from hand_built_paths import case_a_radii


def q3(starts, goals, obstacles):
    return ConfigurationQuery(starts=starts, goals=goals, obstacles=obstacles)


def _blocks(sequence):
    """The obstacle blocks of an ordering, in order."""
    return [entry for entry in sequence if isinstance(entry, frozenset)]


class TestQueryValidation:
    def test_minimal_query_constructs(self):
        q = q3([[0.0, 1.0]], [[2.0, 3.0]], [[5.0, 5.0]])
        assert q.dim == 2 and q.robot_count == 1 and q.obstacle_count == 1

    def test_all_violations_reported_with_indices(self):
        with pytest.raises(QueryValidationError) as exc:
            ConfigurationQuery(
                starts=[[0.0, 0.0], [0.0, 0.0]],
                goals=[[1.0, 1.0], [2.0, 2.0]],
                obstacles=[[1.0, 1.0], [1.0, 1.0]],
            )
        message = str(exc.value)
        assert "starts[0] coincides with starts[1]" in message
        assert "obstacles[0] coincides with obstacles[1]" in message
        assert "goals[0] coincides with obstacles[0]" in message

    def test_goal_may_equal_start(self):
        q = q3([[0.0, 0.0]], [[0.0, 0.0]], [[1.0, 1.0]])
        assert np.array_equal(q.starts, q.goals)

    def test_zero_robots_rejected(self):
        with pytest.raises(QueryValidationError):
            ConfigurationQuery(starts=np.zeros((0, 2)), goals=np.zeros((0, 2)),
                               obstacles=[[1.0, 1.0]])

    def test_arrays_are_immutable(self):
        q = q3([[0.0, 1.0]], [[2.0, 3.0]], [[5.0, 5.0]])
        with pytest.raises(ValueError):
            q.starts[0, 0] = 7.0

    def test_callers_arrays_are_copied(self):
        starts = np.array([[0.0, 1.0]])
        goals = np.array([[2.0, 3.0]])
        obstacles = np.array([[5.0, 5.0]])
        q = ConfigurationQuery(starts, goals, obstacles)
        for arr in (starts, goals, obstacles):
            assert arr.flags.writeable
            assert not any(np.shares_memory(arr, mine) for mine in (q.starts, q.goals, q.obstacles))
        starts[0, 0] = 7.0
        assert q.starts[0, 0] == 0.0

    def test_arrays_are_row_blocks_of_one_read_only_table(self):
        q = q3([[0.0, 1.0], [1.0, 1.0]], [[2.0, 3.0], [0.0, 1.0]], [[5.0, 5.0]])
        table = q._points
        assert table.tolist() == [[0.0, 1.0], [1.0, 1.0], [2.0, 3.0], [0.0, 1.0], [5.0, 5.0]]
        assert not table.flags.writeable
        for arr in (q.starts, q.goals, q.obstacles):
            assert arr.base is table and not arr.flags.writeable

    def test_extent_is_the_largest_magnitude_of_the_three_arrays(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n, m, d = (int(k) for k in rng.integers((1, 1, 2), (30, 30, 5)))
            scale = float(rng.choice([1e-300, 1.0, 1e300]))
            q = random_query(rng, n, m, d, low=-scale, high=scale)
            arrays = (q.starts, q.goals, q.obstacles)
            assert q.extent == max(float(np.abs(np.array(a)).max()) for a in arrays)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_rejected(self, bad):
        with pytest.raises(QueryValidationError) as exc:
            q3([[0.0, 1.0]], [[2.0, 3.0]], [[5.0, 5.0], [1.0, bad]])
        assert exc.value.errors == ["obstacles[1] has a non-finite coordinate"]

    @pytest.mark.parametrize(
        "starts, message",
        [
            ([[0, 1], [2]], "starts: expected a 2-d array of numbers"),
            ([["a", 1]], "starts: expected a 2-d array of numbers"),
            ([[10**400, 1]], "starts: a coordinate is beyond float range"),
        ],
        ids=["ragged", "string", "huge-integer"],
    )
    def test_unconvertible_array_rejected(self, starts, message):
        # numpy's own ValueError / TypeError / OverflowError, reworded
        goals = [[1.0, 1.0], [3.0, 3.0]][: len(starts)]
        with pytest.raises(QueryValidationError) as exc:
            q3(starts, goals, [[5.0, 5.0]])
        assert exc.value.errors == [message]

    def test_coincidence_messages_match_pairwise_loops(self):
        # Reference: every pair compared with np.array_equal, in index order.
        def pairs(a, b, within):
            return [
                (i, k)
                for i in range(len(a))
                for k in range(i + 1 if within else 0, len(b))
                if np.array_equal(a[i], b[k])
            ]

        rng = np.random.default_rng(9)
        checked = 0
        for _ in range(500):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            pts = rng.integers(-1, 2, size=(2 * n + m, 2)).astype(float)
            pts[rng.random(pts.shape) < 0.2] = -0.0
            starts, goals, obstacles = pts[:n], pts[n:2 * n], pts[2 * n:]
            expected = [
                f"{name}[{i}] coincides with {name}[{k}]"
                for name, arr in (("starts", starts), ("goals", goals), ("obstacles", obstacles))
                for i, k in pairs(arr, arr, True)
            ] + [
                f"{name}[{i}] coincides with obstacles[{k}]"
                for name, arr in (("starts", starts), ("goals", goals))
                for i, k in pairs(arr, obstacles, False)
            ]
            try:
                ConfigurationQuery(starts, goals, obstacles)
                errors = []
            except QueryValidationError as exc:
                errors = exc.errors
            assert errors == expected
            checked += bool(expected)
        assert checked > 300


class TestMakeFrame:
    def test_fixed_d3_uses_first_two_axes(self):
        q = q3([[0.0, 1.0, 0.0]], [[2.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]])
        f = make_frame(q, FrameMode.FIXED)
        assert np.array_equal(f.e, [1.0, 0.0, 0.0])
        assert np.array_equal(f.e_perp, [0.0, 1.0, 0.0])

    def test_obstacle_pair_horizontal(self):
        q = q3([[5.0, 5.0]], [[6.0, 6.0]], [[0.0, 0.0], [2.0, 0.0]])
        f = make_frame(q, "obstacle_pair")
        assert np.allclose(f.e, [1.0, 0.0], atol=1e-15)
        assert np.allclose(f.e_perp, [0.0, 1.0], atol=1e-15)

    def test_obstacle_pair_vertical(self):
        q = q3([[5.0, 5.0]], [[6.0, 6.0]], [[0.0, 0.0], [0.0, 3.0]])
        f = make_frame(q, "obstacle_pair")
        assert np.allclose(f.e, [0.0, 1.0], atol=1e-15)
        assert np.allclose(f.e_perp, [-1.0, 0.0], atol=1e-15)

    def test_obstacle_pair_rejects_odd_dimension(self):
        q = q3([[0.0, 1.0, 0.0]], [[2.0, 0.0, 1.0]],
               [[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        with pytest.raises(ModeUnsupportedError):
            make_frame(q, FrameMode.OBSTACLE_PAIR)

    def test_obstacle_pair_rejects_single_obstacle(self):
        q = q3([[0.0, 1.0]], [[2.0, 0.0]], [[1.0, 0.0]])
        with pytest.raises(ModeUnsupportedError):
            make_frame(q, FrameMode.OBSTACLE_PAIR)

    def test_frame_orthonormality_random_directions(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            for d in (2, 4, 6):
                obstacles = rng.uniform(-5, 5, size=(2, d))
                q = ConfigurationQuery(
                    starts=rng.uniform(-5, 5, size=(1, d)),
                    goals=rng.uniform(-5, 5, size=(1, d)),
                    obstacles=obstacles,
                )
                f = make_frame(q, FrameMode.OBSTACLE_PAIR)
                assert abs(np.linalg.norm(f.e) - 1) < 1e-12
                assert abs(np.linalg.norm(f.e_perp) - 1) < 1e-12
                assert abs(float(f.e @ f.e_perp)) < 1e-12

    @pytest.mark.parametrize("flip", [False, True])
    def test_obstacle_pair_closer_than_norm_resolution_plans(self, flip):
        # |o1 - o0| = 1.17e-220: squaring it in the norm underflows to 0
        obstacles = [[0.0, 1.0], [1.17e-220, 1.0]]
        q = q3([[1.0, 0.0]], [[-1.0, 0.0]], obstacles[::-1] if flip else obstacles)
        res = plan(q, mode="obstacle_pair")
        assert res.region == RegionLabel(j=2, t=2)
        assert res.swap_count == 2

    @pytest.mark.parametrize(
        "e,e_perp,axis",
        [
            ([math.nan, 0.0], [0.0, 1.0], [1.0, 0.0]),
            ([1.0, 0.0], [0.0, math.nan], [1.0, 0.0]),
            ([1.0, 0.0], [0.0, 1.0], [math.nan, 0.0]),
        ],
    )
    def test_frame_with_nan_component_rejected(self, e, e_perp, axis):
        with pytest.raises(ValueError):
            Frame(e=e, e_perp=e_perp, mode=FrameMode.FIXED, axis=axis)

    @pytest.mark.parametrize(
        "e,e_perp,axis,message",
        [
            ([1.0, 1e-5], [0.0, 1.0], [1.0, 0.0], "e must be a unit vector"),
            ([1.0, 0.0], [0.0, 0.9], [1.0, 0.0], "e_perp must be a unit vector"),
            ([0.6, 0.8], [0.0, 1.0], [0.6, 0.8], "e and e_perp must be orthogonal"),
            ([1.0, 0.0], [0.0, 1.0], [-2.0, 0.0], "axis must point along e"),
            ([1.0, 0.0], [0.0, 1.0], [0.0, 3.0], "axis must point along e"),
            ([1.0, 0.0, 0.0], [0.0, 1.0], [1.0, 0.0, 0.0], "vectors of one length"),
            ([1.0, 0.0], [0.0, 1.0], [1.0, 0.0, 0.0], "vectors of one length"),
            ([[1.0, 0.0]], [[0.0, 1.0]], [[1.0, 0.0]], "vectors of one length"),
        ],
        ids=["e-not-unit", "e-perp-not-unit", "not-orthogonal", "axis-against-e",
             "axis-across-e", "e-perp-short", "axis-long", "matrices"],
    )
    def test_frame_checks_reject(self, e, e_perp, axis, message):
        with pytest.raises(ValueError, match=message):
            Frame(e=e, e_perp=e_perp, mode=FrameMode.FIXED, axis=axis)

    def test_frame_checks_accept_within_tolerance(self):
        # 1e-13 off unit length and orthogonality is within the 1e-12 bounds
        f = Frame(e=[1.0, 1e-13], e_perp=[-1e-13, 1.0 + 1e-13], mode=FrameMode.FIXED,
                  axis=[1e-300, 0.0])
        assert f.e.tolist() == [1.0, 1e-13] and f.axis.tolist() == [1e-300, 0.0]

    def test_callers_arrays_are_copied(self):
        e, e_perp, axis = np.array([0.6, 0.8]), np.array([-0.8, 0.6]), np.array([3.0, 4.0])
        f = Frame(e=e, e_perp=e_perp, mode=FrameMode.OBSTACLE_PAIR, axis=axis)
        for arr, mine in ((e, f.e), (e_perp, f.e_perp), (axis, f.axis)):
            assert arr.flags.writeable and not mine.flags.writeable
            assert not any(np.shares_memory(arr, x) for x in (f.e, f.e_perp, f.axis))
            assert mine.tolist() == arr.tolist()
        e[0] = 1.0
        assert f.e[0] == 0.6


class TestFrameDirection:
    """The unit direction ``Frame.e`` that every metric quantity projects on."""

    def test_fixed_frame_is_the_first_axis(self):
        q = q3([[0.0, 1.0, 0.0]], [[2.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]])
        f = make_frame(q, FrameMode.FIXED)
        assert f.e.tolist() == [1.0, 0.0, 0.0]

    def test_obstacle_pair_along_the_second_axis(self):
        q = q3([[5.0, 5.0]], [[6.0, 6.0]], [[0.0, 0.0], [0.0, 3.0]])
        f = make_frame(q, "obstacle_pair")
        assert f.e.tolist() == [0.0, 1.0]

    def test_obstacle_pair_oblique_unit_vector(self):
        # o1 - o0 = (3, 4), so e = (3/5, 4/5)
        q = q3([[5.0, 5.0]], [[6.0, 6.0]], [[0.0, 0.0], [3.0, 4.0]])
        f = make_frame(q, "obstacle_pair")
        assert f.e.tolist() == [0.6, 0.8]

    def test_residual_is_orthogonal(self):
        q = q3([[5.0, 5.0]], [[6.0, 6.0]], [[0.0, 0.0], [3.0, 4.0]])
        f = make_frame(q, "obstacle_pair")
        x = np.array([2.0, -9.0])
        residual = x - float(f.e @ x) * f.e
        assert abs(float(residual @ f.e)) < 1e-12


class TestClassify:
    def test_all_distinct(self):
        q = q3([[0.0, 1.0, 0.0]], [[2.0, 0.0, 1.0]],
               [[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        label = classify(q, make_frame(q, FrameMode.FIXED))
        assert (label.j, label.t, label.c) == (2, 2, 4)

    def test_single_projection_value(self):
        q = q3([[0.0, 1.0, 0.0]], [[0.0, 2.0, 0.0]], [[0.0, 0.0, 1.0]])
        label = classify(q, make_frame(q, FrameMode.FIXED))
        assert (label.j, label.t, label.c) == (0, 1, 1)

    def test_coincident_obstacles_and_robots(self):
        # q(o1) = q(o2) = 0, q(z) = q(z') = 1 -> two values, one from obstacles
        q = q3([[1.0, 1.0, 0.0]], [[1.0, 2.0, 0.0]],
               [[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])
        label = classify(q, make_frame(q, FrameMode.FIXED))
        assert (label.j, label.t, label.c) == (1, 1, 2)

    def test_snap_tolerance_merges_near_values(self):
        q = q3([[1e-13, 1.0, 0.0]], [[5.0, 2.0, 0.0]], [[0.0, 0.0, 1.0]])
        f = make_frame(q, FrameMode.FIXED)
        exact = classify(q, f)
        snapped = classify(q, f, snap_tol=1e-9)
        assert (exact.j, exact.t) == (2, 1)
        assert (snapped.j, snapped.t) == (1, 1)

    @pytest.mark.parametrize("snap_tol", [-1.0, math.nan, math.inf])
    def test_bad_snap_tolerance_rejected(self, snap_tol):
        # The oracle gives j=3; a negative tolerance used to yield j=4, and
        # plan accepted that label.
        q = ConfigurationQuery(
            starts=[[1.0, 1.0], [5.0, 2.0]], goals=[[1.0, 3.0], [6.0, 1.0]],
            obstacles=[[3.0, 0.0]],
        )
        f = make_frame(q, FrameMode.FIXED)
        assert classify_oracle(q, f) == RegionLabel(j=3, t=1)
        with pytest.raises(QueryValidationError, match="snap_tol: expected a finite number >= 0"):
            classify(q, f, snap_tol)
        with pytest.raises(QueryValidationError, match="options.snap_tolerance must be 0"):
            plan(q, snap_tol=snap_tol)

    def test_bounds_on_random_queries(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n, m, d = rng.integers(1, 4), rng.integers(1, 4), rng.integers(2, 5)
            q = ConfigurationQuery(
                starts=rng.uniform(-10, 10, size=(n, d)),
                goals=rng.uniform(-10, 10, size=(n, d)),
                obstacles=rng.uniform(-10, 10, size=(m, d)),
            )
            label = classify(q, make_frame(q, FrameMode.FIXED))
            assert 0 <= label.j <= 2 * n
            assert 1 <= label.t <= m
            assert 1 <= label.c <= 2 * n + m

    def test_obstacle_pair_mode_never_t1(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            q = ConfigurationQuery(
                starts=rng.uniform(-10, 10, size=(1, 2)),
                goals=rng.uniform(-10, 10, size=(1, 2)),
                obstacles=rng.uniform(-10, 10, size=(3, 2)),
            )
            label = classify(q, make_frame(q, FrameMode.OBSTACLE_PAIR))
            assert label.t >= 2
            assert label.c >= 2


class TestRigidMotionAndScale:
    def _base(self):
        return q3([[0.0, 1.0, 0.5]], [[2.0, 0.0, 1.0]],
                  [[1.0, 0.25, 0.0], [3.0, 0.0, 0.75]])

    def test_perpendicular_translation_invariance(self):
        q = self._base()
        f = make_frame(q, FrameMode.FIXED)
        shift = np.array([0.0, 2.5, -1.25])
        q2 = ConfigurationQuery(q.starts + shift, q.goals + shift, q.obstacles + shift)
        f2 = make_frame(q2, FrameMode.FIXED)
        assert classify(q, f) == classify(q2, f2)
        assert orderings(q, f).sigma == orderings(q2, f2).sigma
        assert desingularization_gap(q, f) == desingularization_gap(q2, f2)

    def test_translation_along_line_invariance(self):
        q = self._base()
        f = make_frame(q, FrameMode.FIXED)
        shift = np.array([4.0, 0.0, 0.0])
        q2 = ConfigurationQuery(q.starts + shift, q.goals + shift, q.obstacles + shift)
        f2 = make_frame(q2, FrameMode.FIXED)
        assert classify(q, f) == classify(q2, f2)
        assert abs(desingularization_gap(q, f) - desingularization_gap(q2, f2)) < 1e-12

    def test_scale_equivariance(self):
        q = self._base()
        f = make_frame(q, FrameMode.FIXED)
        scale = 2.0  # powers of two scale floats exactly
        q2 = ConfigurationQuery(q.starts * scale, q.goals * scale, q.obstacles * scale)
        f2 = make_frame(q2, FrameMode.FIXED)
        assert classify(q, f) == classify(q2, f2)
        assert desingularization_gap(q2, f2) == scale * desingularization_gap(q, f)
        eta = checked_clearance(q, f, 0, 0, Side.RIGHT)
        eta2 = checked_clearance(q2, f2, 0, 0, Side.RIGHT)
        assert eta2 == scale * eta


class TestOrderings:
    def test_single_robot_single_obstacle(self):
        q = q3([[0.0, 1.0, 0.0]], [[2.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]])
        pair = orderings(q, make_frame(q, FrameMode.FIXED))
        assert pair.sigma == (0, frozenset({0}))
        assert pair.sigma_prime == (frozenset({0}), 0)

    def test_order_preserving_two_robots(self):
        q = q3(
            [[0.0, 1.0, 0.0], [1.0, 2.0, 0.0]],
            [[0.5, 3.0, 0.0], [1.5, 4.0, 0.0]],
            [[5.0, 0.0, 0.0]],
        )
        pair = orderings(q, make_frame(q, FrameMode.FIXED))
        assert pair.sigma == pair.sigma_prime

    def test_coincident_obstacles_merge_into_one_block(self):
        q = q3([[1.0, 1.0, 0.0]], [[2.0, 0.0, 1.0]],
               [[0.0, 0.0, 1.0], [0.0, 5.0, 0.0]])
        pair = orderings(q, make_frame(q, FrameMode.FIXED))
        assert _blocks(pair.sigma) == [frozenset({0, 1})]
        assert _blocks(pair.sigma) == _blocks(pair.sigma_prime)

    def test_non_generic_raises(self):
        q = q3([[0.0, 1.0, 0.0]], [[0.0, 2.0, 0.0]], [[5.0, 0.0, 0.0]])
        with pytest.raises(NotGenericError):
            orderings(q, make_frame(q, FrameMode.FIXED))

    def test_blocks_identical_on_random_generic_queries(self):
        rng = np.random.default_rng(5)
        count = 0
        while count < 200:
            q = ConfigurationQuery(
                starts=rng.uniform(-10, 10, size=(2, 3)),
                goals=rng.uniform(-10, 10, size=(2, 3)),
                obstacles=rng.uniform(-10, 10, size=(3, 3)),
            )
            f = make_frame(q, FrameMode.FIXED)
            try:
                pair = orderings(q, f)
            except NotGenericError:
                continue
            count += 1
            assert _blocks(pair.sigma) == _blocks(pair.sigma_prime)


class TestDesingularizationGap:
    def test_enumerates_robot_obstacle_gaps(self):
        q = q3([[0.0, 1.0, 0.0]], [[2.0, 0.0, 1.0]], [[3.0, 0.0, 0.0]])
        assert desingularization_gap(q, make_frame(q, FrameMode.FIXED)) == 1.0

    def test_empty_positive_set_falls_back_to_the_extent(self):
        # every point projects to 0: the split scales with the query
        q = q3([[0.0, 1.0, 0.0]], [[0.0, 2.0, 0.0]], [[0.0, 0.0, 1.0]])
        assert desingularization_gap(q, make_frame(q, FrameMode.FIXED)) == 2.0
        big = q3([[0.0, 1e12, 0.0]], [[0.0, 2e12, 0.0]], [[0.0, 0.0, 1e12]])
        assert desingularization_gap(big, make_frame(big, FrameMode.FIXED)) == 2e12

    def test_desingularization_gap_includes_start_goal_family(self):
        q = q3(
            [[0.0, 1.0, 0.0], [10.0, 2.0, 0.0]],
            [[0.25, 3.0, 0.0], [30.0, 4.0, 0.0]],
            [[20.0, 0.0, 0.0]],
        )
        f = make_frame(q, FrameMode.FIXED)
        # The other families bottom out at the start-start gap of 10; only a
        # start-goal pair is 0.25 apart.
        assert desingularization_gap(q, f) == 0.25

    def test_always_positive_random(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            q = ConfigurationQuery(
                starts=rng.uniform(-10, 10, size=(2, 2)),
                goals=rng.uniform(-10, 10, size=(2, 2)),
                obstacles=rng.uniform(-10, 10, size=(2, 2)),
            )
            assert desingularization_gap(q, make_frame(q, FrameMode.FIXED)) > 0


class TestClearance:
    def test_far_side_projection_and_robot_gap(self):
        # obstacle at origin, far-side value at -3, q(z) = 2 -> min(3, 2) = 2
        q = q3([[2.0, 1.0, 0.0]], [[-3.0, 2.0, 0.0]], [[0.0, 0.0, 1.0]])
        f = make_frame(q, FrameMode.FIXED)
        assert checked_clearance(q, f, 0, 0, Side.LEFT) == 2.0

    def test_only_robot_gap_term(self):
        q = q3([[0.5, 1.0, 0.0]], [[0.75, 2.0, 0.0]], [[0.0, 0.0, 1.0]])
        f = make_frame(q, FrameMode.FIXED)
        assert checked_clearance(q, f, 0, 0, Side.LEFT) == 0.5

    def test_coincident_obstacle_dominates(self):
        q = q3(
            [[1.0, 1.0, 0.0]],
            [[2.0, 2.0, 0.0]],
            [[0.0, 0.0, 0.0], [0.0, 0.1, 0.0]],
        )
        f = make_frame(q, FrameMode.FIXED)
        eta = checked_clearance(q, f, 0, 0, Side.LEFT)
        assert abs(eta - 0.1) < 1e-12

    # The sweep checks a Case B swap's precondition before the clearance.

    def test_non_adjacent_raises(self):
        # robot start is separated from obstacle 1's block by obstacle 0's block
        q = q3([[0.0, 1.0, 0.0]], [[9.0, 2.0, 0.0]],
               [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        f = make_frame(q, FrameMode.FIXED)
        message = r"swap 0: starts\[0\] is not next below obstacles\[1\]"
        with pytest.raises(InternalConsistencyError, match=message):
            _play_swaps([[]], q, f, [CaseBSwap(0, frozenset({1}), Side.RIGHT)], 0)

    def test_wrong_side_raises(self):
        q = q3([[2.0, 1.0, 0.0]], [[-3.0, 2.0, 0.0]], [[0.0, 0.0, 1.0]])
        f = make_frame(q, FrameMode.FIXED)
        message = r"swap 0: starts\[0\] is not next below obstacles\[0\]"
        with pytest.raises(InternalConsistencyError, match=message):
            _play_swaps([[]], q, f, [CaseBSwap(0, frozenset({0}), Side.RIGHT)], 0)


@st.composite
def tie_queries(draw):
    """Queries with n, m <= 3 and d in {2, 3, 4}, in either frame mode, with
    coordinates that are floats in [-10, 10], on the half-unit grid of
    [-3, 3], or grid points moved by at most 1e-12."""
    mode = draw(st.sampled_from(FrameMode))
    pair = mode is FrameMode.OBSTACLE_PAIR
    d = draw(st.sampled_from((2, 4) if pair else (2, 3, 4)))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(2 if pair else 1, 3))
    grid = st.integers(-6, 6).map(lambda k: k / 2)
    coordinate = draw(
        st.sampled_from(
            [
                st.floats(-10, 10),
                grid,
                st.tuples(grid, st.floats(-1e-12, 1e-12)).map(sum),
            ]
        )
    )
    points = draw(
        st.lists(
            st.tuples(*[coordinate] * d),
            min_size=2 * n + m,
            max_size=2 * n + m,
            unique=True,
        )
    )
    try:
        query = ConfigurationQuery(points[:n], points[n : 2 * n], points[2 * n :])
    except QueryValidationError:  # e.g. 0.0 and -0.0 are one point
        query = None
    return query, mode


class TestTieTable:
    """At snap tolerance 0, every tie and order decision equals its pairwise
    definition on the comparison values ``x . axis``, the split's gap its
    formula on ``x . e`` and the clearance its formula on the comparison
    values over ``|axis|``."""

    def test_values_are_the_products_of_the_three_arrays(self):
        # One product per array, bit for bit as on standalone copies: one
        # product of the whole point table rounds differently on some queries
        # (one-robot obstacle-pair queries among them).
        rng = np.random.default_rng(4)
        for _ in range(200):
            d = int(rng.choice([2, 3, 4]))
            n, m = int(rng.integers(1, 4)), int(rng.integers(2, 5))
            query = random_query(rng, n, m, d)
            for mode in FrameMode if d % 2 == 0 else [FrameMode.FIXED]:
                frame = make_frame(query, mode)
                copies = (np.array(a) for a in (query.starts, query.goals, query.obstacles))
                expected = np.concatenate([a @ frame.axis for a in copies])
                assert _ties(query, frame)[0].tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(tie_queries())
    def test_decisions_match_pairwise_definitions(self, case):
        query, mode = case
        if query is None:
            return
        f = make_frame(query, mode)
        n, m = query.robot_count, query.obstacle_count
        # Projected as the library does (one matrix product per family): a
        # single-row dot product may round differently.
        cs, cg, co = ((arr @ f.axis).tolist() for arr in
                      (query.starts, query.goals, query.obstacles))
        qs, qg, qo = ((arr @ f.e).tolist() for arr in
                      (query.starts, query.goals, query.obstacles))
        values = cs + cg + co
        axis_norm = float(np.linalg.norm(f.axis))

        j = len(set(cs + cg) - set(co))
        t = len(set(co))
        assert classify(query, f) == RegionLabel(j=j, t=t)

        def gap(families):
            gaps = [
                abs(qa[i] - qb[k])
                for ca, qa, cb, qb in families
                for i in range(len(ca))
                for k in range(len(cb))
                if ca[i] != cb[k]
            ]
            return min(gaps) if gaps else query.extent

        listed = [(cs, qs, cs, qs), (cg, qg, cg, qg), (cs, qs, co, qo), (cg, qg, co, qo)]
        assert desingularization_gap(query, f) == gap(listed + [(cs, qs, cg, qg)])

        if j < 2 * n:
            with pytest.raises(NotGenericError):
                orderings(query, f)
            return

        def sequence(robot_values):
            blocks = {}
            for k, v in enumerate(co):
                blocks.setdefault(v, set()).add(k)
            entries = list(zip(robot_values, range(n)))
            entries += [(v, frozenset(ks)) for v, ks in blocks.items()]
            return tuple(entry for _, entry in sorted(entries, key=lambda e: e[0]))

        pair = orderings(query, f)
        assert pair.sigma == sequence(cs)
        assert pair.sigma_prime == sequence(cg)

        for r, o, side in itertools.product(range(n), range(m), Side):
            lo, hi = sorted((cs[r], co[o]))
            adjacent = not any(lo < v < hi for v in cs + co)
            wrong_side = cs[r] < co[o] if side is Side.LEFT else cs[r] > co[o]
            if not adjacent or wrong_side:
                with pytest.raises(PreconditionError):
                    checked_clearance(query, f, r, o, side)
                continue
            far = [v for v in values if (v < co[o] if side is Side.LEFT else v > co[o])]
            terms = [abs(cs[r] - co[o]) / axis_norm]
            if far:
                terms.append(min(abs(v - co[o]) for v in far) / axis_norm)
            terms += [
                float(np.linalg.norm(query.obstacles[k] - query.obstacles[o]))
                for k in range(m)
                if k != o and co[k] == co[o]
            ]
            assert checked_clearance(query, f, r, o, side) == min(terms)

    def test_snap_tolerance_ties_through_a_chain(self):
        # Obstacle at x = 0, starts at 0.08 and 0.16, tolerance 0.1: the start
        # at 0.16 is more than 0.1 from the obstacle, but classify ties it to
        # the obstacle through the start at 0.08 (single linkage).
        q = q3([[0.08, 1.0], [0.16, 2.0]], [[5.0, 1.0], [6.0, 1.0]], [[0.0, 0.0]])
        f = make_frame(q, FrameMode.FIXED)
        assert classify(q, f, snap_tol=0.1) == RegionLabel(j=2, t=1)
        assert classify(q, f) == RegionLabel(j=4, t=1)

    # The starts' comparison values differ (exact gap 1.0e-14), so the query
    # is generic, but their e-projections round to one float.
    NEAR_TIE = q3(
        [[-0.114, -8.991], [-7.595089999999999, -9.537572]],
        [[19.461999999999996, -35.222], [27.048999999999996, -26.438999999999997]],
        [[0.102, 4.507], [0.7, -3.678]],
    )

    def test_near_tie_in_comparison_values_plans_from_the_values(self):
        # The Case A swap places the pair by the values the sweep ordered it
        # on, so its arc has a positive radius, not the 0 of the e-projections.
        q = self.NEAR_TIE
        f = make_frame(q, FrameMode.OBSTACLE_PAIR)
        assert classify(q, f) == classify_oracle(q, f) == RegionLabel(j=4, t=2)
        assert float(q.starts[0] @ f.e) == float(q.starts[1] @ f.e)
        result = plan(q, mode="obstacle_pair")
        assert result.swaps == (CaseASwap(left=0, right=1),)
        assert all(radius > 0 for radius in case_a_radii(result))
        pairs = certify_separation(result.path, samples_per_segment=16).pairs
        assert all(p.sampled_min > 0 for p in pairs)

    @pytest.mark.xfail(
        strict=True,
        reason="the robot pair passes 2.2e-16 apart, within the rounding of its"
        " coordinates (ROADMAP item 15, the conditioning contract)",
    )
    def test_near_tie_in_comparison_values_certifies(self):
        result = plan(self.NEAR_TIE, mode="obstacle_pair")
        assert certify_separation(result.path, samples_per_segment=16).passed


class TestComponentCount:
    @pytest.mark.parametrize(
        "n,m,expected",
        [(2, 2, 288), (5, 3, 270_950_400), (1, 1, 4)],
    )
    def test_known_counts(self, n, m, expected):
        assert component_count(n, m) == expected

    def test_matches_direct_formula(self):
        for n, m in itertools.product(range(1, 5), range(1, 5)):
            expected = math.factorial(n + m) ** 2 // math.factorial(m)
            assert component_count(n, m) == expected

    def test_brute_force_enumeration_small(self):
        # Independent oracle: enumerate ordering pairs over distinct symbols
        # (t = m case) and count pairs inducing the same obstacle order.
        for n, m in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (1, 4)]:
            symbols = [("r", i) for i in range(n)] + [("o", j) for j in range(m)]
            pairs = 0
            for sigma in itertools.permutations(symbols):
                obstacle_order = [s for s in sigma if s[0] == "o"]
                for sigma_prime in itertools.permutations(symbols):
                    if [s for s in sigma_prime if s[0] == "o"] == obstacle_order:
                        pairs += 1
            assert pairs == component_count(n, m)

    def test_rejects_zero_counts(self):
        with pytest.raises(ValueError):
            component_count(0, 1)
