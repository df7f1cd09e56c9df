"""Elementary motions: straight-line sections, the two swap manoeuvres,
projection splitting, and how the planner plays a desingularization around
the swaps of its image."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from parammp import (
    ConfigurationQuery,
    Deformation,
    DeformationStage,
    FrameMode,
    InternalConsistencyError,
    LinearMove,
    NotGenericError,
    PiecewisePath,
    PreconditionError,
    Side,
    affine_section,
    classify,
    degenerate_query,
    desingularize,
    evaluate_deformation,
    make_frame,
    min_gap,
    orderings,
    plan,
    swap_case_a,
    swap_case_b,
)
from parammp.deformations import (
    append_goal_moves_backward,
    append_segment,
    append_start_moves,
)
from parammp.geometry import clearance_eta

RNG_SAMPLES = 1000
TIME_SAMPLES = 1000


def fixed_frame(query):
    return make_frame(query, FrameMode.FIXED)


def _sample_side(deformation, ts, base, which):
    ts = np.asarray(ts, dtype=float)
    out = np.tile(base[None, :, :], (len(ts), 1, 1))
    s = len(deformation.stages)
    for i, stage in enumerate(deformation.stages):
        t0, t1 = i / s, (i + 1) / s
        inside = (ts >= t0) & (ts <= t1)
        after = ts > t1
        u = (ts[inside] - t0) / (t1 - t0)
        moves = stage.start_moves if which == "start" else stage.goal_moves
        for robot, move in moves.items():
            out[inside, robot, :] = move.at_many(u)
            out[after, robot, :] = move.final
    return out


def sample_starts(deformation, ts):
    """(len(ts), n, d) array of start-side positions, vectorized per stage."""
    return _sample_side(deformation, ts, deformation.query.starts, "start")


def sample_goals(deformation, ts):
    return _sample_side(deformation, ts, deformation.query.goals, "goal")


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
    def test_identity_query_is_not_generic(self):
        # starts == goals makes every start projection coincide with its goal
        # projection, so the straight-line precondition cannot hold; the
        # planner reaches such queries through desingularization instead.
        q = ConfigurationQuery(
            starts=[[0.0, 1.0, 0.0]], goals=[[0.0, 1.0, 0.0]], obstacles=[[5.0, 0.0, 0.0]]
        )
        with pytest.raises(NotGenericError):
            affine_section(q, fixed_frame(q))

    def test_midpoint_value(self):
        q = ConfigurationQuery(
            starts=[[0.0, 0.0]], goals=[[2.0, 2.0]], obstacles=[[5.0, 0.0]]
        )
        path = affine_section(q, fixed_frame(q))
        assert np.allclose(path.position(0, 0.5), [1.0, 1.0])

    def test_projection_order_preserved_throughout(self):
        q = ConfigurationQuery(
            starts=[[0.0, 0.0, 0.0], [1.0, 5.0, 0.0]],
            goals=[[2.0, 1.0, 1.0], [3.0, 6.0, 0.0]],
            obstacles=[[9.0, 0.0, 0.0]],
        )
        f = fixed_frame(q)
        path = affine_section(q, f)
        for t in np.linspace(0, 1, 101):
            config = path.configuration(t)
            assert config[0] @ f.e < config[1] @ f.e

    def test_rejects_order_swapping_query(self):
        q = ConfigurationQuery(
            starts=[[0.0, 0.0, 0.0], [1.0, 5.0, 0.0]],
            goals=[[3.0, 1.0, 1.0], [2.0, 6.0, 0.0]],
            obstacles=[[9.0, 0.0, 0.0]],
        )
        with pytest.raises(PreconditionError):
            affine_section(q, fixed_frame(q))


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
        h = swap_case_a(q, fixed_frame(q), 0, 1)
        end = evaluate_deformation(h, q, 1.0)
        assert np.allclose(end.starts[0], q.starts[1], atol=1e-12)
        assert np.allclose(end.starts[1], q.starts[0], atol=1e-12)
        assert np.array_equal(end.goals, q.goals)

    def test_explicit_phase_two_midpoint(self):
        # e = (1,0): a = (0,0), b = (2,0), mid = (1,0), r = 1
        q = self._query()
        h = swap_case_a(q, fixed_frame(q), 0, 1)
        config = evaluate_deformation(h, q, 0.5)
        assert np.allclose(config.starts[0], [1.0, -1.0], atol=1e-12)
        assert np.allclose(config.starts[1], [1.0, 1.0], atol=1e-12)

    def test_antipodal_during_phase_two(self):
        q = self._query()
        f = fixed_frame(q)
        h = swap_case_a(q, f, 0, 1)
        r = 0.5 * abs(float((q.starts[1] - q.starts[0]) @ f.e))
        for t in np.linspace(1 / 3, 2 / 3, 101):
            config = evaluate_deformation(h, q, float(t))
            gap = np.linalg.norm(config.starts[0] - config.starts[1])
            assert abs(gap - 2 * r) <= 1e-9

    def test_non_adjacent_rejected(self):
        q = ConfigurationQuery(
            starts=[[0.0, 5.0], [2.0, 7.0]],
            goals=[[5.0, 0.0], [6.0, 1.0]],
            obstacles=[[1.0, 0.0]],  # obstacle projects between the robots
        )
        with pytest.raises(PreconditionError):
            swap_case_a(q, fixed_frame(q), 0, 1)

    def test_wrong_order_rejected(self):
        q = self._query()
        with pytest.raises(PreconditionError):
            swap_case_a(q, fixed_frame(q), 1, 0)

    def test_double_swap_restores_token_order(self):
        q = self._query()
        f = fixed_frame(q)
        sigma_before = orderings(q, f).start_pattern()
        h1 = swap_case_a(q, f, 0, 1)
        q2 = h1.end_query()
        h2 = swap_case_a(q2, f, 1, 0)  # robot 1 is now the left one
        q3 = h2.end_query()
        assert orderings(q3, f).start_pattern() == sigma_before

    def test_random_inputs_collision_free_and_contained(self):
        rng = np.random.default_rng(20)
        ts = np.linspace(0, 1, TIME_SAMPLES + 1)
        phase2 = (ts >= 1 / 3) & (ts <= 2 / 3)
        done = 0
        while done < RNG_SAMPLES:
            q, f = random_generic_query(rng, 3, 2)
            pair = orderings(q, f)
            from parammp import RobotStart

            adjacent = None
            for a, b in zip(pair.sigma, pair.sigma[1:]):
                if isinstance(a, RobotStart) and isinstance(b, RobotStart):
                    adjacent = (a.robot, b.robot)
                    break
            if adjacent is None:
                continue
            done += 1
            h = swap_case_a(q, f, *adjacent)
            positions = sample_starts(h, ts)
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
            # fibrewise: obstacles bitwise untouched
            assert h.end_query().obstacles is q.obstacles


class TestSwapCaseB:
    def _query(self):
        # robot right of the obstacle, goal further right: swing to the left
        return ConfigurationQuery(
            starts=[[2.0, 3.0]], goals=[[5.0, 4.0]], obstacles=[[0.0, 0.0]]
        )

    def test_explicit_stage_values(self):
        q = self._query()
        f = fixed_frame(q)
        eta = clearance_eta(q, f, 0, 0, Side.LEFT)
        assert eta == 2.0
        h = swap_case_b(q, f, 0, 0, Side.LEFT)
        assert np.allclose(evaluate_deformation(h, q, 2 / 3).starts[0], [1.0, 0.0], atol=1e-12)
        assert np.allclose(evaluate_deformation(h, q, 5 / 6).starts[0], [0.0, 1.0], atol=1e-12)
        assert np.allclose(evaluate_deformation(h, q, 1.0).starts[0], [-1.0, 0.0], atol=1e-12)

    def test_final_point_formula(self):
        q = self._query()
        f = fixed_frame(q)
        eta = clearance_eta(q, f, 0, 0, Side.LEFT)
        h = swap_case_b(q, f, 0, 0, Side.LEFT)
        end = h.end_query().starts[0]
        expected = q.obstacles[0] - (eta / 2.0) * f.e
        assert np.linalg.norm(end - expected) <= 1e-12
        assert float(end @ f.e) < float(q.obstacles[0] @ f.e)

    def test_stage_one_keeps_projection(self):
        q = ConfigurationQuery(
            starts=[[2.0, 3.0, -1.0]], goals=[[5.0, 4.0, 2.0]], obstacles=[[0.0, 1.0, 1.0]]
        )
        f = fixed_frame(q)
        h = swap_case_b(q, f, 0, 0, Side.LEFT)
        value = float(q.starts[0] @ f.e)
        for t in np.linspace(0, 1 / 3, 21):
            config = evaluate_deformation(h, q, float(t))
            assert abs(float(config.starts[0] @ f.e) - value) <= 1e-12

    def test_mirrored_side(self):
        q = ConfigurationQuery(
            starts=[[-2.0, 3.0]], goals=[[-5.0, 4.0]], obstacles=[[0.0, 0.0]]
        )
        f = fixed_frame(q)
        eta = clearance_eta(q, f, 0, 0, Side.RIGHT)
        h = swap_case_b(q, f, 0, 0, Side.RIGHT)
        end = h.end_query().starts[0]
        assert np.linalg.norm(end - (q.obstacles[0] + (eta / 2.0) * f.e)) <= 1e-12

    def test_random_inputs_keep_clearance(self):
        from parammp import ObstacleBlock, RobotStart

        rng = np.random.default_rng(21)
        ts = np.linspace(0, 1, TIME_SAMPLES + 1)
        phase3 = ts >= 2 / 3
        done = 0
        while done < RNG_SAMPLES:
            q, f = random_generic_query(rng, 2, 2)
            pair = orderings(q, f)
            found = None
            for a, b in zip(pair.sigma, pair.sigma[1:]):
                if isinstance(a, RobotStart) and isinstance(b, ObstacleBlock):
                    found = (a.robot, min(b.obstacles), Side.RIGHT)
                    break
                if isinstance(a, ObstacleBlock) and isinstance(b, RobotStart):
                    found = (b.robot, min(a.obstacles), Side.LEFT)
                    break
            if found is None:
                continue
            done += 1
            robot, obstacle, side = found
            eta = clearance_eta(q, f, robot, obstacle, side)
            h = swap_case_b(q, f, robot, obstacle, side)
            positions = sample_starts(h, ts)
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
        eta = clearance_eta(q, f, 0, 0, Side.LEFT)
        assert eta <= 1.5  # bounded by the coincident-member distance
        h = swap_case_b(q, f, 0, 0, Side.LEFT)
        ts = np.linspace(2 / 3, 1.0, 201)
        positions = sample_starts(h, ts)[:, 0, :]
        for obstacle in q.obstacles:
            gaps = np.linalg.norm(positions - obstacle[None, :], axis=1)
            assert gaps.min() >= eta / 2.0 - 1e-9
        # landing past the whole block
        end = h.end_query()
        assert float(end.starts[0] @ f.e) < 0.0
        pattern = orderings(end, f).start_pattern()
        assert pattern[0][0] == "r"


class TestDesingularize:
    def test_single_robot_shift_multipliers(self):
        # all projections coincide: gap falls back to 1, shifts are 1/3 and 2/3
        q = ConfigurationQuery(
            starts=[[0.0, 1.0, 0.0]], goals=[[0.0, 2.0, 0.0]], obstacles=[[0.0, 0.0, 1.0]]
        )
        f = fixed_frame(q)
        assert min_gap(q, f) == 1.0
        h = desingularize(q, f)
        end = h.end_query()
        assert np.allclose(end.starts[0], q.starts[0] + (1.0 / 3.0) * f.e, atol=1e-15)
        assert np.allclose(end.goals[0], q.goals[0] + (2.0 / 3.0) * f.e, atol=1e-15)

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
            end = desingularize(q, f).end_query()
            after = classify(end, f)
            assert after.j == 2 * n
            assert after.t == before.t

    def test_distinct_value_count_after(self):
        q = ConfigurationQuery(
            starts=[[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]],
            goals=[[0.0, 3.0, 0.0], [1.0, 4.0, 0.0]],
            obstacles=[[0.0, 0.0, 1.0], [1.0, 0.0, 2.0]],
        )
        f = fixed_frame(q)
        end = desingularize(q, f).end_query()
        values = np.concatenate([end.starts[:, 0], end.goals[:, 0], end.obstacles[:, 0]])
        label = classify(end, f)
        assert len(set(values.tolist())) == 2 * q.robot_count + label.t

    def test_obstacles_bitwise_constant(self):
        q = ConfigurationQuery(
            starts=[[0.0, 1.0, 0.0]], goals=[[0.0, 2.0, 0.0]], obstacles=[[0.0, 0.0, 1.0]]
        )
        h = desingularize(q, fixed_frame(q))
        for t in np.linspace(0, 1, 11):
            config = evaluate_deformation(h, q, float(t))
            assert config.obstacles is q.obstacles

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
            h = desingularize(q, fixed_frame(q))
            assert pairwise_min_distance(sample_starts(h, ts), q.obstacles) > 0
            assert pairwise_min_distance(sample_goals(h, ts), q.obstacles) > 0

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
            h = desingularize(q, f)
            for t in (0.25, 0.75, 1.0):
                config = evaluate_deformation(h, q, t)
                for moved, original in [
                    (config.starts, q.starts),
                    (config.goals, q.goals),
                ]:
                    delta = moved - original
                    perp = delta - (delta @ f.e)[:, None] * f.e[None, :]
                    assert np.max(np.abs(perp)) <= 1e-12


class TestEvaluateDeformation:
    def test_time_zero_is_identity(self):
        q = ConfigurationQuery(
            starts=[[2.0, 3.0]], goals=[[5.0, 4.0]], obstacles=[[0.0, 0.0]]
        )
        h = swap_case_b(q, fixed_frame(q), 0, 0, Side.LEFT)
        config = evaluate_deformation(h, q, 0.0)
        assert np.array_equal(config.starts, q.starts)
        assert np.array_equal(config.goals, q.goals)

    def test_mid_stage_matches_closed_form(self):
        q = ConfigurationQuery(
            starts=[[0.0, 5.0], [2.0, 7.0]],
            goals=[[5.0, 0.0], [6.0, 1.0]],
            obstacles=[[10.0, 0.0]],
        )
        f = fixed_frame(q)
        h = swap_case_a(q, f, 0, 1)
        for t in (0.1, 0.45, 0.8):
            config = evaluate_deformation(h, q, t)
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
            assert np.allclose(config.starts[0], expected, atol=1e-12)

    def test_wrong_query_rejected(self):
        q = ConfigurationQuery(
            starts=[[2.0, 3.0]], goals=[[5.0, 4.0]], obstacles=[[0.0, 0.0]]
        )
        other = ConfigurationQuery(
            starts=[[2.5, 3.0]], goals=[[5.0, 4.0]], obstacles=[[0.0, 0.0]]
        )
        h = swap_case_b(q, fixed_frame(q), 0, 0, Side.LEFT)
        with pytest.raises(PreconditionError):
            evaluate_deformation(h, other, 0.5)

    def test_out_of_range_time(self):
        q = ConfigurationQuery(
            starts=[[2.0, 3.0]], goals=[[5.0, 4.0]], obstacles=[[0.0, 0.0]]
        )
        h = swap_case_b(q, fixed_frame(q), 0, 0, Side.LEFT)
        with pytest.raises(ValueError):
            evaluate_deformation(h, q, 1.5)


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
        for query, h, path in _degenerate_plans():
            deformed = h.end_query()
            for robot in range(query.robot_count):
                at = path.position(robot, Fraction(1, 3))
                assert np.array_equal(at, deformed.starts[robot])
                assert np.array_equal(path.position(robot, 0), query.starts[robot])
                assert np.array_equal(path.position(robot, 1), query.goals[robot])

    def test_goal_shifts_play_backward_on_last_third(self):
        for query, h, path in _degenerate_plans():
            deformed = h.end_query()
            for robot, per_robot in enumerate(path.segments):
                last = per_robot[-1]
                assert (last.t0, last.t1) == (Fraction(2, 3), Fraction(1))
                assert np.array_equal(last.move.start, deformed.goals[robot])
                assert np.array_equal(last.move.end, query.goals[robot])
                assert per_robot[-2].t1 == Fraction(2, 3)
                assert np.array_equal(per_robot[-2].move.final, deformed.goals[robot])

    def test_stage_windows_split_the_given_window(self):
        # A three-stage motion fills equal thirds of the window it is played
        # on: forward on [0, 1/3], backward on [2/3, 1], the goal side's last
        # stage first.
        q = ConfigurationQuery(
            starts=[[0.0, 0.0]], goals=[[1.0, 6.0]], obstacles=[[5.0, 5.0]]
        )
        start_track = [[0.0, 0.0], [0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]
        goal_track = [[1.0, 6.0], [1.0, 5.0], [1.0, 4.0], [1.0, 3.0]]
        h = Deformation(
            query=q,
            stages=tuple(
                DeformationStage(
                    start_moves={0: LinearMove(start_track[k], start_track[k + 1])},
                    goal_moves={0: LinearMove(goal_track[k], goal_track[k + 1])},
                )
                for k in range(3)
            ),
        )
        segments = [[]]
        append_start_moves(segments, h, Fraction(0), Fraction(1, 3))
        middle = LinearMove([0.0, 3.0], [1.0, 3.0])
        append_segment(segments[0], 0, Fraction(1, 3), Fraction(2, 3), middle)
        append_goal_moves_backward(segments, h, Fraction(2, 3), Fraction(1))
        (per_robot,) = PiecewisePath(query=q, segments=segments).segments
        assert [(seg.t0, seg.t1) for seg in per_robot] == [
            (Fraction(0), Fraction(1, 9)),
            (Fraction(1, 9), Fraction(2, 9)),
            (Fraction(2, 9), Fraction(1, 3)),
            (Fraction(1, 3), Fraction(2, 3)),
            (Fraction(2, 3), Fraction(7, 9)),
            (Fraction(7, 9), Fraction(8, 9)),
            (Fraction(8, 9), Fraction(1)),
        ]
        # goal side backward: from the deformed goal back to the query's goal
        assert [seg.move.start.tolist() for seg in per_robot[4:]] == goal_track[:0:-1]
        assert np.array_equal(per_robot[-1].move.end, q.goals[0])


class TestEndQuery:
    def test_landing_on_an_obstacle_is_internal_error(self):
        q = ConfigurationQuery(
            starts=[[2.0, 3.0]], goals=[[5.0, 4.0]], obstacles=[[0.0, 0.0]]
        )
        h = Deformation(
            query=q,
            stages=(DeformationStage(start_moves={0: LinearMove([2.0, 3.0], [0.0, 0.0])}),),
        )
        with pytest.raises(InternalConsistencyError, match="coincides with obstacles"):
            h.end_query()
