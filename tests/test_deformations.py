"""Elementary motions: straight-line sections, the two swap manoeuvres,
projection splitting, and how the planner draws the straight shifts to and
from the split query around its swaps.  Swaps are built by the checked forms
of ``checked_swaps``; the sweep's own checks run in ``planner._play_swaps``."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings

from parammp import (
    ConfigurationQuery,
    FrameMode,
    InternalConsistencyError,
    NotGenericError,
    Side,
    certify_separation,
    classify,
    degenerate_query,
    desingularize,
    make_frame,
    orderings,
    plan,
    planner,
)
from parammp.geometry import desingularization_gap
from parammp.paths import PiecewisePath, line_row, row_final, row_initial
from parammp.planner import CaseASwap, CaseBSwap
from checked_swaps import checked_case_a, checked_case_b, checked_clearance
from hand_built_paths import path_rows, row_at, row_fields
from query_strategies import small_queries

RNG_SAMPLES = 1000
TIME_SAMPLES = 1000


def fixed_frame(query):
    return make_frame(query, FrameMode.FIXED)


def sample_stages(starts, stages, ts):
    """(len(ts), n, d) array of the positions of ``starts`` while ``stages``
    (of rows) play on [0, 1], stage i of s on [i/s, (i+1)/s]; vectorized per
    stage."""
    ts = np.asarray(ts, dtype=float)
    out = np.tile(np.asarray(starts)[None, :, :], (len(ts), 1, 1))
    s, d = len(stages), out.shape[2]
    for i, stage in enumerate(stages):
        t0, t1 = i / s, (i + 1) / s
        inside = (ts >= t0) & (ts <= t1)
        after = ts > t1
        u = (ts[inside] - t0) / (t1 - t0)
        for robot, row in stage.items():
            out[inside, robot, :] = row_at(row, d, u)
            out[after, robot, :] = row_final(row, d)
    return out


def play_swaps(query, frame, swaps):
    """Play ``swaps`` and the straight line on ``query`` in the planner's
    sweep, into fresh per-robot entry lists, and return the ``(start tick,
    stop tick, row)`` entries of the path they write."""
    entries = [[] for _ in range(query.robot_count)]
    planner._play_swaps(entries, query, frame, swaps, 0)
    return path_rows(PiecewisePath.from_rows(query, 3 * (len(swaps) + 1), entries))


def end_query(query, stages):
    """The query ``stages`` end on: starts moved, goals and obstacles kept."""
    (starts,) = sample_stages(query.starts, stages, [1.0])
    return ConfigurationQuery(starts, query.goals, query.obstacles)


def one_crossing_query():
    """A generic query whose plan is one Case B swap: robot 0 crosses the
    obstacle toward its goal, then moves straight."""
    return ConfigurationQuery(
        starts=[[0.0, 0.0]], goals=[[1.0, 6.0]], obstacles=[[0.5, 5.0]]
    )


def sample_shift(points, split_points, ts):
    """(len(ts), n, d) array of the straight shifts from ``points`` to
    ``split_points``, at local times ``ts``."""
    ts = np.asarray(ts, dtype=float)[:, None, None]
    return points[None] + ts * (split_points - points)[None]


def pairwise_min_distance(positions, obstacles):
    """Minimum robot-robot and robot-obstacle distance over all sampled times."""
    n = positions.shape[1]
    best = np.inf
    for i in range(n):
        for k in range(i + 1, n):
            best = min(best, float(np.linalg.norm(positions[:, i] - positions[:, k], axis=1).min()))
        for obs in obstacles:
            best = min(best, float(np.linalg.norm(positions[:, i] - obs[None, :], axis=1).min()))
    return best


def random_generic_query(rng, n, m, d=3):
    from parammp import random_query

    while True:
        q = random_query(rng, n, m, d)
        f = fixed_frame(q)
        try:
            orderings(q, f)
            return q, f
        except NotGenericError:
            continue


class TestAffineSection:
    """The straight-line (affine) section the sweep ends on, valid when the
    start and goal orderings agree."""

    def test_identity_query_is_not_generic(self):
        # starts == goals makes every start projection coincide with its goal
        # projection, so the straight-line precondition cannot hold; the
        # planner reaches such queries through desingularization instead.
        q = ConfigurationQuery(
            starts=[[0.0, 1.0, 0.0]], goals=[[0.0, 1.0, 0.0]], obstacles=[[5.0, 0.0, 0.0]]
        )
        with pytest.raises(NotGenericError):
            orderings(q, fixed_frame(q))
        assert plan(q, FrameMode.FIXED).region.j < 2 * q.robot_count

    def test_midpoint_value(self):
        q = ConfigurationQuery(
            starts=[[0.0, 0.0]], goals=[[2.0, 2.0]], obstacles=[[5.0, 0.0]]
        )
        (((_, _, row),),) = play_swaps(q, fixed_frame(q), [])
        assert np.allclose(row_at(row, 2, [0.5]), [[1.0, 1.0]])

    def test_projection_order_preserved_throughout(self):
        q = ConfigurationQuery(
            starts=[[0.0, 0.0, 0.0], [1.0, 5.0, 0.0]],
            goals=[[2.0, 1.0, 1.0], [3.0, 6.0, 0.0]],
            obstacles=[[9.0, 0.0, 0.0]],
        )
        f = fixed_frame(q)
        ((_, _, first),), ((_, _, second),) = play_swaps(q, f, [])
        ts = np.linspace(0, 1, 101)
        assert (row_at(first, 3, ts) @ f.e < row_at(second, 3, ts) @ f.e).all()

    def test_rejects_order_swapping_query(self):
        q = ConfigurationQuery(
            starts=[[0.0, 0.0, 0.0], [1.0, 5.0, 0.0]],
            goals=[[3.0, 1.0, 1.0], [2.0, 6.0, 0.0]],
            obstacles=[[9.0, 0.0, 0.0]],
        )
        with pytest.raises(InternalConsistencyError, match="did not sort"):
            play_swaps(q, fixed_frame(q), [])


class TestSwapCaseA:
    def _query(self):
        # robots at q = 0 and 2, obstacle far right, goals beyond it
        return ConfigurationQuery(
            starts=[[0.0, 5.0], [2.0, 7.0]],
            goals=[[5.0, 0.0], [6.0, 1.0]],
            obstacles=[[10.0, 0.0]],
        )

    def test_endpoints_trade_positions(self):
        q = self._query()
        end = end_query(q, checked_case_a(q, fixed_frame(q), 0, 1))
        assert np.allclose(end.starts[0], q.starts[1], atol=1e-12)
        assert np.allclose(end.starts[1], q.starts[0], atol=1e-12)
        assert np.array_equal(end.goals, q.goals)

    def test_explicit_phase_two_midpoint(self):
        # e = (1,0): a = (0,0), b = (2,0), mid = (1,0), r = 1
        q = self._query()
        (config,) = sample_stages(q.starts, checked_case_a(q, fixed_frame(q), 0, 1), [0.5])
        assert np.allclose(config[0], [1.0, -1.0], atol=1e-12)
        assert np.allclose(config[1], [1.0, 1.0], atol=1e-12)

    def test_antipodal_during_phase_two(self):
        q = self._query()
        f = fixed_frame(q)
        stages = checked_case_a(q, f, 0, 1)
        r = 0.5 * abs(float((q.starts[1] - q.starts[0]) @ f.e))
        for config in sample_stages(q.starts, stages, np.linspace(1 / 3, 2 / 3, 101)):
            gap = np.linalg.norm(config[0] - config[1])
            assert abs(gap - 2 * r) <= 1e-9

    def test_non_adjacent_rejected(self):
        q = ConfigurationQuery(
            starts=[[0.0, 5.0], [2.0, 7.0]],
            goals=[[5.0, 0.0], [6.0, 1.0]],
            obstacles=[[1.0, 0.0]],  # obstacle projects between the robots
        )
        message = r"swap 0: starts\[0\] is not next below starts\[1\]"
        with pytest.raises(InternalConsistencyError, match=message):
            play_swaps(q, fixed_frame(q), [CaseASwap(0, 1)])

    def test_wrong_order_rejected(self):
        q = self._query()
        message = r"swap 0: starts\[1\] is not next below starts\[0\]"
        with pytest.raises(InternalConsistencyError, match=message):
            play_swaps(q, fixed_frame(q), [CaseASwap(1, 0)])

    def test_double_swap_restores_token_order(self):
        q = self._query()
        f = fixed_frame(q)
        sigma_before = orderings(q, f).sigma
        q2 = end_query(q, checked_case_a(q, f, 0, 1))
        q3 = end_query(q2, checked_case_a(q2, f, 1, 0))  # robot 1 is now the left one
        assert orderings(q3, f).sigma == sigma_before

    def test_random_inputs_collision_free_and_contained(self):
        rng = np.random.default_rng(20)
        ts = np.linspace(0, 1, TIME_SAMPLES + 1)
        phase2 = (ts >= 1 / 3) & (ts <= 2 / 3)
        done = 0
        while done < RNG_SAMPLES:
            q, f = random_generic_query(rng, 3, 2)
            pair = orderings(q, f)
            adjacent = None
            for a, b in zip(pair.sigma, pair.sigma[1:]):
                if isinstance(a, int) and isinstance(b, int):
                    adjacent = (a, b)
                    break
            if adjacent is None:
                continue
            done += 1
            stages = checked_case_a(q, f, *adjacent)
            positions = sample_stages(q.starts, stages, ts)
            assert pairwise_min_distance(positions, q.obstacles) > 0
            # both movers stay inside the projection interval during phase 2
            q_low = float(q.starts[adjacent[0]] @ f.e)
            q_high = float(q.starts[adjacent[1]] @ f.e)
            r = 0.5 * (q_high - q_low)
            for robot in adjacent:
                values = positions[phase2, robot, :] @ f.e
                assert values.min() >= q_low - 1e-9
                assert values.max() <= q_high + 1e-9
            gaps = np.linalg.norm(
                positions[phase2, adjacent[0], :] - positions[phase2, adjacent[1], :],
                axis=1,
            )
            assert np.max(np.abs(gaps - 2 * r)) <= 1e-9
            # fibrewise: only the two robots' starts move
            assert set().union(*stages) == set(adjacent)


class TestStartNeighbours:
    """The sweep refuses a swap exactly when its two entries are not
    neighbours, in the order it names them, in the start ordering
    ``orderings(q).sigma``."""

    @settings(max_examples=200, deadline=None)
    @given(small_queries())
    def test_sweep_refuses_exactly_the_swaps_of_non_neighbours(self, case):
        query, mode = case
        f = make_frame(query, mode)
        assume(classify(query, f).j == 2 * query.robot_count)
        sigma = orderings(query, f).sigma

        def name(entry):
            if isinstance(entry, int):
                return f"starts[{entry}]"
            return f"obstacles[{planner._block_representative(query, entry)}]"

        for below, above in itertools.permutations(sigma, 2):
            if isinstance(below, int) and isinstance(above, int):
                swap = CaseASwap(below, above)
            elif isinstance(below, int):
                swap = CaseBSwap(below, above, Side.RIGHT)
            elif isinstance(above, int):
                swap = CaseBSwap(above, below, Side.LEFT)
            else:
                continue  # blocks never swap
            refusal = f"swap 0: {name(below)} is not next below {name(above)} in the start ordering"
            # A swap the sweep plays may still fail later, at the straight
            # line.
            try:
                play_swaps(query, f, [swap])
                error = ""
            except InternalConsistencyError as exc:
                error = str(exc)
            neighbours = sigma.index(above) - sigma.index(below) == 1
            assert (error == refusal) != neighbours, (swap, error)


class TestSwapCaseB:
    def _query(self):
        # robot right of the obstacle, goal further right: swing to the left
        return ConfigurationQuery(
            starts=[[2.0, 3.0]], goals=[[5.0, 4.0]], obstacles=[[0.0, 0.0]]
        )

    def test_explicit_stage_values(self):
        q = self._query()
        f = fixed_frame(q)
        eta = checked_clearance(q, f, 0, 0, Side.LEFT)
        assert eta == 2.0
        stages = checked_case_b(q, f, 0, 0, Side.LEFT)
        at = sample_stages(q.starts, stages, [2 / 3, 5 / 6, 1.0])[:, 0]
        assert np.allclose(at, [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], atol=1e-12)

    def test_final_point_formula(self):
        q = self._query()
        f = fixed_frame(q)
        eta = checked_clearance(q, f, 0, 0, Side.LEFT)
        end = end_query(q, checked_case_b(q, f, 0, 0, Side.LEFT)).starts[0]
        expected = q.obstacles[0] - (eta / 2.0) * f.e
        assert np.linalg.norm(end - expected) <= 1e-12
        assert float(end @ f.e) < float(q.obstacles[0] @ f.e)

    def test_stage_one_keeps_projection(self):
        q = ConfigurationQuery(
            starts=[[2.0, 3.0, -1.0]], goals=[[5.0, 4.0, 2.0]], obstacles=[[0.0, 1.0, 1.0]]
        )
        f = fixed_frame(q)
        stages = checked_case_b(q, f, 0, 0, Side.LEFT)
        value = float(q.starts[0] @ f.e)
        for config in sample_stages(q.starts, stages, np.linspace(0, 1 / 3, 21)):
            assert abs(float(config[0] @ f.e) - value) <= 1e-12

    def test_mirrored_side(self):
        q = ConfigurationQuery(
            starts=[[-2.0, 3.0]], goals=[[-5.0, 4.0]], obstacles=[[0.0, 0.0]]
        )
        f = fixed_frame(q)
        eta = checked_clearance(q, f, 0, 0, Side.RIGHT)
        end = end_query(q, checked_case_b(q, f, 0, 0, Side.RIGHT)).starts[0]
        assert np.linalg.norm(end - (q.obstacles[0] + (eta / 2.0) * f.e)) <= 1e-12

    def test_random_inputs_keep_clearance(self):
        rng = np.random.default_rng(21)
        ts = np.linspace(0, 1, TIME_SAMPLES + 1)
        phase3 = ts >= 2 / 3
        done = 0
        while done < RNG_SAMPLES:
            q, f = random_generic_query(rng, 2, 2)
            pair = orderings(q, f)
            found = None
            for a, b in zip(pair.sigma, pair.sigma[1:]):
                if isinstance(a, int) and isinstance(b, frozenset):
                    found = (a, min(b), Side.RIGHT)
                    break
                if isinstance(a, frozenset) and isinstance(b, int):
                    found = (b, min(a), Side.LEFT)
                    break
            if found is None:
                continue
            done += 1
            robot, obstacle, side = found
            eta = checked_clearance(q, f, robot, obstacle, side)
            positions = sample_stages(q.starts, checked_case_b(q, f, robot, obstacle, side), ts)
            assert pairwise_min_distance(positions, q.obstacles) > 0
            # the arc keeps distance exactly eta/2 from the circled obstacle
            arc_gaps = np.linalg.norm(
                positions[phase3, robot, :] - q.obstacles[obstacle][None, :], axis=1
            )
            assert np.max(np.abs(arc_gaps - eta / 2.0)) <= 1e-9
            # projections stay between the landing point and the robot's start
            values = positions[:, robot, :] @ f.e
            q_obstacle = float(q.obstacles[obstacle] @ f.e)
            q_robot = float(q.starts[robot] @ f.e)
            low = min(q_robot, q_obstacle - eta / 2.0) if side is Side.LEFT else min(
                q_robot, q_obstacle
            )
            high = max(q_robot, q_obstacle + eta / 2.0) if side is Side.RIGHT else max(
                q_robot, q_obstacle
            )
            assert values.min() >= low - 1e-9
            assert values.max() <= high + 1e-9


class TestSwapCaseBCoincidentBlock:
    def test_arc_clears_every_block_member(self):
        # two obstacles share the projection value 0; the swing around the
        # lexicographically smaller one must stay eta/2 away from both
        q = ConfigurationQuery(
            starts=[[2.0, 0.5, 0.0]],
            goals=[[-4.0, 1.0, 0.0]],
            obstacles=[[0.0, 0.0, 0.0], [0.0, 1.5, 0.0]],
        )
        f = fixed_frame(q)
        eta = checked_clearance(q, f, 0, 0, Side.LEFT)
        assert eta <= 1.5  # bounded by the coincident-member distance
        stages = checked_case_b(q, f, 0, 0, Side.LEFT)
        ts = np.linspace(2 / 3, 1.0, 201)
        positions = sample_stages(q.starts, stages, ts)[:, 0, :]
        for obstacle in q.obstacles:
            gaps = np.linalg.norm(positions - obstacle[None, :], axis=1)
            assert gaps.min() >= eta / 2.0 - 1e-9
        # landing past the whole block
        end = end_query(q, stages)
        assert float(end.starts[0] @ f.e) < 0.0
        assert isinstance(orderings(end, f).sigma[0], int)


class TestDesingularize:
    def test_single_robot_shift_multipliers(self):
        # all projections coincide: the gap falls back to the query's extent,
        # 2, and the shifts are 1/3 and 2/3 of it
        q = ConfigurationQuery(
            starts=[[0.0, 1.0, 0.0]], goals=[[0.0, 2.0, 0.0]], obstacles=[[0.0, 0.0, 1.0]]
        )
        f = fixed_frame(q)
        assert desingularization_gap(q, f) == 2.0
        end = desingularize(q, f)
        assert np.allclose(end.starts[0], q.starts[0] + (2.0 / 3.0) * f.e, atol=1e-15)
        assert np.allclose(end.goals[0], q.goals[0] + (4.0 / 3.0) * f.e, atol=1e-15)

    def test_lands_in_generic_region_with_same_t(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            starts = rng.uniform(-5, 5, size=(n, 3))
            goals = rng.uniform(-5, 5, size=(n, 3))
            obstacles = rng.uniform(-5, 5, size=(m, 3))
            # force coincidences by copying first-axis values around
            starts[:, 0] = rng.choice([0.0, 1.0, 2.0], size=n)
            goals[:, 0] = rng.choice([0.0, 1.0, 2.0], size=n)
            obstacles[:, 0] = rng.choice([0.0, 1.0], size=m)
            q = ConfigurationQuery(starts=starts, goals=goals, obstacles=obstacles)
            f = fixed_frame(q)
            before = classify(q, f)
            after = classify(desingularize(q, f), f)
            assert after.j == 2 * n
            assert after.t == before.t

    def test_distinct_value_count_after(self):
        q = ConfigurationQuery(
            starts=[[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]],
            goals=[[0.0, 3.0, 0.0], [1.0, 4.0, 0.0]],
            obstacles=[[0.0, 0.0, 1.0], [1.0, 0.0, 2.0]],
        )
        f = fixed_frame(q)
        end = desingularize(q, f)
        values = np.concatenate([end.starts[:, 0], end.goals[:, 0], end.obstacles[:, 0]])
        label = classify(end, f)
        assert len(set(values.tolist())) == 2 * q.robot_count + label.t

    def test_obstacles_bitwise_constant(self):
        q = ConfigurationQuery(
            starts=[[0.0, 1.0, 0.0]], goals=[[0.0, 2.0, 0.0]], obstacles=[[0.0, 0.0, 1.0]]
        )
        split = desingularize(q, fixed_frame(q))
        assert split.obstacles.tobytes() == q.obstacles.tobytes()

    def test_no_collision_at_any_intermediate_time(self):
        rng = np.random.default_rng(24)
        ts = np.linspace(0, 1, TIME_SAMPLES + 1)
        for _ in range(200):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            starts = rng.uniform(-5, 5, size=(n, 3))
            goals = rng.uniform(-5, 5, size=(n, 3))
            starts[:, 0] = rng.choice([0.0, 1.0], size=n)
            goals[:, 0] = rng.choice([0.0, 1.0], size=n)
            q = ConfigurationQuery(
                starts=starts, goals=goals, obstacles=rng.uniform(-5, 5, size=(m, 3))
            )
            split = desingularize(q, fixed_frame(q))
            starts = sample_shift(q.starts, split.starts, ts)
            goals = sample_shift(q.goals, split.goals, ts)
            assert pairwise_min_distance(starts, q.obstacles) > 0
            assert pairwise_min_distance(goals, q.obstacles) > 0

    def test_overflowing_shift_is_internal_error(self):
        q = ConfigurationQuery(
            starts=[[-1e308, 0.0]], goals=[[1e308, 1.0]], obstacles=[[1e308, 0.0]]
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InternalConsistencyError, match="ended on an invalid query"):
                desingularize(q, fixed_frame(q))

    def test_motion_purely_along_line(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            starts = rng.uniform(-5, 5, size=(2, 3))
            goals = rng.uniform(-5, 5, size=(2, 3))
            starts[0, 0] = goals[0, 0] = 0.0
            q = ConfigurationQuery(
                starts=starts, goals=goals, obstacles=rng.uniform(-5, 5, size=(2, 3))
            )
            f = fixed_frame(q)
            split = desingularize(q, f)
            for original, shifted in [(q.starts, split.starts), (q.goals, split.goals)]:
                for moved in sample_shift(original, shifted, (0.25, 0.75, 1.0)):
                    delta = moved - original
                    perp = delta - (delta @ f.e)[:, None] * f.e[None, :]
                    assert np.max(np.abs(perp)) <= 1e-12


class TestEvaluateDeformation:
    """A swap's stages evaluated in local time, and the planner's checks when
    it plays them."""

    def test_time_zero_is_identity(self):
        q = one_crossing_query()
        stages = checked_case_b(q, fixed_frame(q), 0, 0, Side.RIGHT)
        for robot, row in stages[0].items():
            assert np.array_equal(row_initial(row, 2), q.starts[robot])
        assert np.array_equal(plan(q, FrameMode.FIXED).path.configuration(0), q.starts)

    def test_mid_stage_matches_closed_form(self):
        q = ConfigurationQuery(
            starts=[[0.0, 5.0], [2.0, 7.0]],
            goals=[[5.0, 0.0], [6.0, 1.0]],
            obstacles=[[10.0, 0.0]],
        )
        f = fixed_frame(q)
        stages = checked_case_a(q, f, 0, 1)
        for t in (0.1, 0.45, 0.8):
            (config,) = sample_stages(q.starts, stages, [t])
            if t <= 1 / 3:
                u = 3 * t
                expected = q.starts[0] + u * (float(q.starts[0] @ f.e) * f.e - q.starts[0])
            elif t <= 2 / 3:
                theta = (3 * t - 1) * math.pi
                a = float(q.starts[0] @ f.e)
                b = float(q.starts[1] @ f.e)
                mid = 0.5 * (a + b) * f.e
                expected = mid - 0.5 * (b - a) * (
                    math.cos(theta) * f.e + math.sin(theta) * f.e_perp
                )
            else:
                u = 3 * t - 2
                b_point = float(q.starts[1] @ f.e) * f.e
                expected = b_point + u * (q.starts[1] - b_point)
            assert np.allclose(config[0], expected, atol=1e-12)

    def test_wrong_query_rejected(self, monkeypatch):
        # Stages built for another configuration do not begin where the
        # robot stands when the planner plays them.
        q = one_crossing_query()
        other = ConfigurationQuery(
            starts=[[0.0, 1.0]], goals=q.goals, obstacles=q.obstacles
        )
        stages = checked_case_b(other, fixed_frame(other), 0, 0, Side.RIGHT)
        monkeypatch.setattr(planner, "swap_case_b", lambda *args: stages)
        with pytest.raises(InternalConsistencyError, match="robot 0 is discontinuous at its start"):
            plan(q, FrameMode.FIXED)

    def test_out_of_range_time(self):
        path = plan(one_crossing_query(), FrameMode.FIXED).path
        with pytest.raises(ValueError):
            path.configuration(1.5)


# Degenerate queries, each with the frame mode it is planned in.
DEGENERATE_QUERIES = [
    (degenerate_query(1, 1, 2, 1, 1), FrameMode.FIXED),
    (degenerate_query(3, 2, 3, 2, 2), FrameMode.FIXED),
    (degenerate_query(3, 3, 4, 3, 2, FrameMode.OBSTACLE_PAIR), FrameMode.OBSTACLE_PAIR),
    (
        ConfigurationQuery(
            starts=[[0.5, 1.0], [-1.0, 2.0], [1.5, -0.5]],
            goals=[[-1.0, -1.0], [1.5, 2.5], [0.5, -2.0]],
            obstacles=[[0.5, 0.0], [-1.5, 0.5]],
        ),
        FrameMode.FIXED,
    ),
]


def _degenerate_plans():
    for query, mode in DEGENERATE_QUERIES:
        result = plan(query, mode)
        assert result.region.j < 2 * query.robot_count
        yield query, desingularize(query, result.frame), result.path


class TestCompose:
    def test_thirds_boundaries_in_every_robot(self):
        for _, _, path in _degenerate_plans():
            for per_robot in path.segments:
                bounds = {seg.t0 for seg in per_robot} | {per_robot[-1].t1}
                assert {Fraction(1, 3), Fraction(2, 3)} <= bounds

    def test_value_at_one_third_is_deformed_start(self):
        for query, split, path in _degenerate_plans():
            for robot in range(query.robot_count):
                at = path.position(robot, Fraction(1, 3))
                assert np.array_equal(at, split.starts[robot])
                assert np.array_equal(path.position(robot, 0), query.starts[robot])
                assert np.array_equal(path.position(robot, 1), query.goals[robot])

    def test_goal_shifts_play_backward_on_last_third(self):
        for query, split, path in _degenerate_plans():
            d = query.dim
            for robot, per_robot in enumerate(path_rows(path)):
                start, stop, last = per_robot[-1]
                assert Fraction(start, path.den) == Fraction(2, 3) and stop == path.den
                assert np.array_equal(row_fields(last, d)["start"], split.goals[robot])
                assert np.array_equal(row_fields(last, d)["end"], query.goals[robot])
                assert Fraction(per_robot[-2][1], path.den) == Fraction(2, 3)
                assert np.array_equal(row_final(per_robot[-2][2], d), split.goals[robot])

    def test_stage_windows_split_the_given_window(self):
        # One swap and the straight line split [0, 1] in halves; the swap's
        # three stages fill equal thirds of [0, 1/2] in stage order.
        q = one_crossing_query()
        result = plan(q, FrameMode.FIXED)
        assert result.swap_count == 1
        stages = checked_case_b(q, result.frame, 0, 0, Side.RIGHT)
        (per_robot,) = result.path.segments
        (rows,) = path_rows(result.path)
        assert [(seg.t0, seg.t1) for seg in per_robot] == [
            (Fraction(0), Fraction(1, 6)),
            (Fraction(1, 6), Fraction(1, 3)),
            (Fraction(1, 3), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(1)),
        ]
        for (_, _, row), stage in zip(rows, stages):
            assert np.array_equal(row_initial(row, 2), row_initial(stage[0], 2))
            assert np.array_equal(row_final(row, 2), row_final(stage[0], 2))

    @settings(max_examples=100, deadline=None)
    @given(small_queries(max_size=3, half_grid=True))
    def test_shifts_are_straight_segments_along_the_line(self, case):
        query, mode = case
        result = plan(query, mode)
        assume(result.region.j < 2 * query.robot_count)
        split = desingularize(query, result.frame)
        e, d = result.frame.e, query.dim
        for robot, (per_robot, entries) in enumerate(
            zip(result.path.segments, path_rows(result.path))
        ):
            first, last = per_robot[0], per_robot[-1]
            assert (first.t0, first.t1) == (Fraction(0), Fraction(1, 3))
            assert (last.t0, last.t1) == (Fraction(2, 3), Fraction(1))
            first, last = (row_fields(entries[k][2], d) for k in (0, -1))
            assert first["kind"] == last["kind"] == "linear"
            assert np.array_equal(first["start"], query.starts[robot])
            assert np.array_equal(first["end"], split.starts[robot])
            assert np.array_equal(last["start"], split.goals[robot])
            assert np.array_equal(last["end"], query.goals[robot])
            for fields in (first, last):
                delta = fields["end"] - fields["start"]
                assert np.max(np.abs(delta - (delta @ e) * e)) <= 1e-12
        assert certify_separation(result.path, samples_per_segment=64).passed


class TestEndQuery:
    """The configuration a swap ends on, checked by the planner."""

    def test_landing_on_an_obstacle_is_internal_error(self, monkeypatch):
        q = one_crossing_query()
        stages = ({0: line_row(q.starts[0].tolist(), q.obstacles[0].tolist())},)
        monkeypatch.setattr(planner, "swap_case_b", lambda *args: stages)
        with pytest.raises(InternalConsistencyError, match="coincides with obstacles"):
            plan(q, FrameMode.FIXED)

    @pytest.mark.parametrize(
        "landing, message",
        [
            # valid points, but on the projection of goal 1: not generic
            ((1.5, 0.0), r"swap 0: starts\[0\] coincides with goals\[1\]"),
            # generic, but past start 1, its next neighbour: out of order
            ((2.5, 0.0), r"swap 0: obstacles\[0\] is not next below starts\[0\]"),
            # a NaN projection equals no value, its own included
            ((math.nan, 0.0), r"swap 0: starts\[0\] coincides with NaN"),
        ],
    )
    def test_a_bad_landing_fails_at_its_swap(self, monkeypatch, landing, message):
        # Swaps: robot 0 crosses obstacle 0, trades places with robot 1, then
        # crosses obstacle 1.  Swap 0 lands robot 0 at ``landing`` instead;
        # the planner must not go on to build the next swap on that.
        q = ConfigurationQuery(
            starts=[[0.0, 0.0], [2.0, 3.0]],
            goals=[[5.0, 6.0], [1.5, 7.0]],
            obstacles=[[1.0, 5.0], [3.0, 5.0]],
        )
        assert plan(q, FrameMode.FIXED).swap_count == 3
        monkeypatch.setattr(
            planner,
            "swap_case_b",
            lambda points, *args: ({0: line_row(points[0], landing)},),
        )
        with pytest.raises(InternalConsistencyError, match=message):
            plan(q, FrameMode.FIXED)

    @pytest.mark.parametrize(
        "left, right, message",
        [
            # on the projection of goal 1
            ((0.5, 3.0), (0.25, 0.0), r"swap 0: starts\[0\] coincides with goals\[1\]"),
            # generic, but past start 2, the next entry above the pair
            ((3.5, 3.0), (0.25, 0.0), r"swap 0: starts\[1\] is not next below starts\[0\]"),
            # generic, but past obstacle 0, the next entry below the pair
            ((0.75, 3.0), (-2.0, 0.0), r"swap 0: starts\[1\] is not next below starts\[0\]"),
            ((math.nan, 3.0), (0.25, 0.0), r"swap 0: starts\[0\] coincides with NaN"),
        ],
    )
    def test_a_bad_case_a_landing_fails_at_its_swap(self, monkeypatch, left, right, message):
        # One swap: robots 0 and 1 trade places (Case A) between obstacle 0
        # on their left and robot 2 and obstacle 1 on their right.  They land
        # at ``left`` and ``right`` instead.
        q = ConfigurationQuery(
            starts=[[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]],
            goals=[[2.5, 7.0], [0.5, 7.0], [4.0, 7.0]],
            obstacles=[[-1.0, 5.0], [5.0, 5.0]],
        )
        assert plan(q, FrameMode.FIXED).swaps == (planner.CaseASwap(left=0, right=1),)

        def stages(points, frame, left_robot, right_robot, values):
            return ({
                left_robot: line_row(points[left_robot], left),
                right_robot: line_row(points[right_robot], right),
            },)

        monkeypatch.setattr(planner, "swap_case_a", stages)
        with pytest.raises(InternalConsistencyError, match=message):
            plan(q, FrameMode.FIXED)

    @pytest.mark.parametrize(
        "landing, message",
        [
            # on start 2, which is not its neighbour
            ((4.0, 0.0), r"swap 0: starts\[0\] coincides with starts\[2\]$"),
            # on start 1, its next neighbour above
            ((2.0, 0.0), r"swap 0: starts\[0\] coincides with starts\[1\]$"),
        ],
    )
    def test_a_case_b_landing_on_a_start_fails_at_its_swap(self, monkeypatch, landing, message):
        # One swap: robot 0 crosses obstacle 0, landing between it and robot
        # 1.  It lands at ``landing`` instead.
        q = ConfigurationQuery(
            starts=[[0.0, 0.0], [2.0, 3.0], [4.0, 1.0]],
            goals=[[1.5, 6.0], [2.5, 7.0], [4.5, 2.0]],
            obstacles=[[1.0, 5.0], [3.0, 5.0]],
        )
        assert plan(q, FrameMode.FIXED).swap_count == 1
        monkeypatch.setattr(
            planner,
            "swap_case_b",
            lambda points, *args: ({0: line_row(points[0], landing)},),
        )
        with pytest.raises(InternalConsistencyError, match=message):
            plan(q, FrameMode.FIXED)

    def test_a_swap_of_entries_that_are_not_neighbours_fails_before_it(self, monkeypatch):
        # The query of the test above, with its swaps played in reverse:
        # robot 0 would first cross obstacle 1, which lies two entries away.
        q = ConfigurationQuery(
            starts=[[0.0, 0.0], [2.0, 3.0]],
            goals=[[5.0, 6.0], [1.5, 7.0]],
            obstacles=[[1.0, 5.0], [3.0, 5.0]],
        )
        swaps = planner.transposition_sequence
        monkeypatch.setattr(
            planner, "transposition_sequence", lambda *pair: swaps(*pair)[::-1]
        )
        message = r"swap 0: starts\[0\] is not next below obstacles\[1\] in the start ordering"
        with pytest.raises(InternalConsistencyError, match=message):
            plan(q, FrameMode.FIXED)

    def test_a_swap_list_that_stops_short_fails_before_the_straight_line(self, monkeypatch):
        # The three swaps of the query above less the last: robot 0, whose
        # goal lies above obstacle 1, is left below it.
        q = ConfigurationQuery(
            starts=[[0.0, 0.0], [2.0, 3.0]],
            goals=[[5.0, 6.0], [1.5, 7.0]],
            obstacles=[[1.0, 5.0], [3.0, 5.0]],
        )
        swaps = planner.transposition_sequence
        monkeypatch.setattr(
            planner, "transposition_sequence", lambda *pair: swaps(*pair)[:-1]
        )
        with pytest.raises(InternalConsistencyError, match="did not sort"):
            plan(q, FrameMode.FIXED)

    def test_a_split_that_is_not_generic_is_internal_error(self, monkeypatch):
        # Start 0 ties obstacle 0; a split that leaves it there is at fault.
        q = ConfigurationQuery(starts=[[0.0, 0.0]], goals=[[1.0, 0.0]], obstacles=[[0.0, 1.0]])
        monkeypatch.setattr(planner, "desingularize", lambda query, frame: query)
        message = "desingularization failed to reach a generic configuration"
        with pytest.raises(InternalConsistencyError, match=message):
            plan(q, FrameMode.FIXED)
