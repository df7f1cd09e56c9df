"""Certificates, partition sweeps, continuity probes and the exact oracle."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from parammp import (
    ArcMove,
    ConfigurationQuery,
    FrameMode,
    LinearMove,
    PathSegment,
    PiecewisePath,
    QueryPerturbation,
    RegionCrossingError,
    certify_separation,
    check_partition,
    classify,
    classify_oracle,
    continuity_probe,
    degenerate_query,
    evaluate_path,
    make_frame,
    plan,
    random_query,
    random_rational_query,
)
from parammp.verification import MAX_SAMPLES_PER_SEGMENT
from query_strategies import small_queries


class TestEvaluatePath:
    def _plan(self):
        q = ConfigurationQuery(
            starts=[[0.0, 1.0, 0.0]], goals=[[2.0, 0.0, 1.0]],
            obstacles=[[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]],
        )
        return q, plan(q, mode="fixed")

    def test_endpoints(self):
        q, res = self._plan()
        robots0, obstacles0 = evaluate_path(res.path, 0.0)
        robots1, obstacles1 = evaluate_path(res.path, 1.0)
        assert np.array_equal(robots0, q.starts)
        assert np.linalg.norm(robots1 - q.goals) <= 1e-9
        assert np.array_equal(obstacles0, q.obstacles)
        assert np.array_equal(obstacles1, q.obstacles)

    def test_segment_boundaries_agree(self):
        _, res = self._plan()
        for seg_list in res.path.segments:
            for left, right in zip(seg_list, seg_list[1:]):
                boundary = left.t1
                a = left.at(boundary)
                b = right.at(boundary)
                assert np.linalg.norm(a - b) <= 1e-9

    def test_out_of_range(self):
        _, res = self._plan()
        with pytest.raises(ValueError):
            evaluate_path(res.path, -0.1)


class TestCertificate:
    def test_planner_outputs_certify(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            q = random_query(rng, 2, 2, 3)
            res = plan(q, mode="fixed")
            cert = certify_separation(res.path)
            assert cert.passed
            for pair in cert.pairs:
                assert pair.certified_lower_bound <= pair.sampled_min

    def test_constructed_violation_fails(self):
        # robot driven straight through the obstacle at the midpoint
        q = ConfigurationQuery(
            starts=[[-1.0, 0.0]], goals=[[1.0, 0.0]], obstacles=[[0.0, 0.0]]
        )
        segments = (
            (
                PathSegment(
                    robot=0,
                    t0=Fraction(0),
                    t1=Fraction(1),
                    move=LinearMove(np.array([-1.0, 0.0]), np.array([1.0, 0.0])),
                ),
            ),
        )
        path = PiecewisePath(query=q, segments=segments)
        cert = certify_separation(path)
        assert not cert.passed
        assert cert.pair("robot-obstacle", 0, 0).certified_lower_bound <= 0.0

    def test_doubling_samples_never_loosens(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            q = random_query(rng, 1, 2, 3)
            res = plan(q, mode="fixed")
            coarse = certify_separation(res.path, samples_per_segment=16)
            fine = certify_separation(res.path, samples_per_segment=32)
            for cp, fp in zip(coarse.pairs, fine.pairs):
                assert fp.certified_lower_bound >= cp.certified_lower_bound - 1e-12

    def test_certified_pass_survives_denser_resampling(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            q = random_query(rng, 2, 1, 3)
            res = plan(q, mode="fixed")
            cert = certify_separation(res.path, samples_per_segment=64)
            assert cert.passed
            dense = certify_separation(res.path, samples_per_segment=640)
            for pair, lower in zip(dense.pairs, cert.pairs):
                assert pair.sampled_min >= lower.certified_lower_bound - 1e-9

    def test_too_few_samples_rejected(self):
        q = ConfigurationQuery(
            starts=[[-1.0, 0.0]], goals=[[1.0, 3.0]], obstacles=[[0.0, 5.0]]
        )
        res = plan(q, mode="fixed")
        with pytest.raises(ValueError):
            certify_separation(res.path, samples_per_segment=1)

    def test_too_many_samples_rejected(self):
        q = ConfigurationQuery(
            starts=[[-1.0, 0.0]], goals=[[1.0, 3.0]], obstacles=[[0.0, 5.0]]
        )
        res = plan(q, mode="fixed")
        with pytest.raises(ValueError, match=f"<= {MAX_SAMPLES_PER_SEGMENT}"):
            certify_separation(res.path, samples_per_segment=MAX_SAMPLES_PER_SEGMENT + 1)
        assert certify_separation(res.path, samples_per_segment=MAX_SAMPLES_PER_SEGMENT).passed

    @pytest.mark.parametrize("samples", [64.0, "64", None])
    def test_non_integer_samples_rejected(self, samples):
        q = ConfigurationQuery(
            starts=[[-1.0, 0.0]], goals=[[1.0, 3.0]], obstacles=[[0.0, 5.0]]
        )
        res = plan(q, mode="fixed")
        with pytest.raises(ValueError, match="integer"):
            certify_separation(res.path, samples_per_segment=samples)
        assert certify_separation(res.path, samples_per_segment=np.int64(64)).passed


def _segment(robot, t0, t1, move):
    return PathSegment(robot=robot, t0=Fraction(t0), t1=Fraction(t1), move=move)


def _line(start, end):
    return LinearMove(np.array(start, dtype=float), np.array(end, dtype=float))


class TestSharedGrid:
    @settings(max_examples=100, deadline=None)
    @given(small_queries(max_size=3))
    def test_certified_bound_is_below_every_distance(self, case):
        query, mode = case
        path = plan(query, mode=mode).path
        cert = certify_separation(path)
        ts = np.linspace(0.0, 1.0, 2048)
        at = np.stack([path.positions_at(r, ts) for r in range(path.robot_count)], axis=1)
        for pair in cert.pairs:
            other = (
                at[:, pair.second]
                if pair.kind == "robot-robot"
                else path.obstacles[pair.second]
            )
            true_min = np.linalg.norm(at[:, pair.first] - other, axis=1).min()
            assert pair.certified_lower_bound <= pair.sampled_min
            assert pair.certified_lower_bound <= true_min + 1e-12

    @pytest.mark.parametrize(
        "second_move",
        [
            _line([1.0, 1.0], [-1.0, 1.0]),
            ArcMove(
                center=np.array([0.0, 1.0]),
                radius=1.0,
                basis_u=np.array([1.0, 0.0]),
                basis_v=np.array([0.0, 1.0]),
                angle_start=0.0,
                angle_end=np.pi,
            ),
        ],
        ids=["linear", "arc"],
    )
    def test_third_robot_splitting_the_window_never_lowers_a_bound(self, second_move):
        # robots 0 and 1 each follow one segment on [0, 1]; robot 2 rests far
        # away except on [1/3, 3/5], so it cuts their one window into three
        two = (
            (_segment(0, 0, 1, _line([-1.0, 0.0], [1.0, 0.0])),),
            (_segment(1, 0, 1, second_move),),
        )
        three = two + (
            (
                _segment(2, 0, Fraction(1, 3), _line([5.0, 5.0], [5.0, 5.0])),
                _segment(2, Fraction(1, 3), Fraction(3, 5), _line([5.0, 5.0], [6.0, 5.0])),
                _segment(2, Fraction(3, 5), 1, _line([6.0, 5.0], [6.0, 5.0])),
            ),
        )
        goal = second_move.final
        path_two = PiecewisePath(
            query=ConfigurationQuery(
                starts=[[-1.0, 0.0], [1.0, 1.0]],
                goals=[[1.0, 0.0], goal],
                obstacles=[[0.0, -5.0]],
            ),
            segments=two,
        )
        path_three = PiecewisePath(
            query=ConfigurationQuery(
                starts=[[-1.0, 0.0], [1.0, 1.0], [5.0, 5.0]],
                goals=[[1.0, 0.0], goal, [6.0, 5.0]],
                obstacles=[[0.0, -5.0]],
            ),
            segments=three,
        )
        for samples in (4, 16, 64):
            alone = certify_separation(path_two, samples).pair("robot-robot", 0, 1)
            split = certify_separation(path_three, samples).pair("robot-robot", 0, 1)
            assert alone.passes and split.passes
            assert split.certified_lower_bound >= alone.certified_lower_bound - 1e-12


class TestCheckPartition:
    def test_random_queries_fill_top_region(self):
        report = check_partition(1, 2, 3, mode="fixed", trials=500, seed=7)
        assert report.out_of_range == 0
        assert report.histogram == {4: 500}  # random reals are a.s. distinct

    def test_degenerate_suite_covers_every_index(self):
        n, m = 1, 2
        realized = set()
        for j in range(0, 2 * n + 1):
            for t in range(1, m + 1):
                q = degenerate_query(n, m, 3, j, t)
                frame = make_frame(q, FrameMode.FIXED)
                label = classify(q, frame)
                assert (label.j, label.t) == (j, t)
                realized.add(label.c)
        assert realized == set(range(1, 2 * n + m + 1))

    def test_obstacle_pair_mode_has_no_low_indices(self):
        report = check_partition(1, 2, 2, mode="obstacle_pair", trials=300, seed=8)
        assert report.out_of_range == 0
        assert all(c >= 2 for c in report.histogram)


class TestContinuityProbe:
    def _generic_query(self):
        return ConfigurationQuery(
            starts=[[0.0, 1.0, 0.0]], goals=[[2.0, 0.0, 1.0]],
            obstacles=[[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]],
        )

    def _direction(self, q):
        rng = np.random.default_rng(44)
        return QueryPerturbation(
            dstarts=rng.normal(size=q.starts.shape),
            dgoals=rng.normal(size=q.goals.shape),
            dobstacles=np.zeros(q.obstacles.shape),
        )

    def test_zero_epsilon_gives_zero(self):
        q = self._generic_query()
        d = self._direction(q)
        assert continuity_probe(q, d, [0.0], mode="fixed") == [0.0]

    def test_distances_decrease_with_epsilon(self):
        q = self._generic_query()
        d = self._direction(q)
        values = continuity_probe(q, d, [1e-2, 1e-3, 1e-4], mode="fixed")
        assert values[0] > values[1] > values[2] > 0
        assert values[2] <= 1e5 * 1e-4

    def test_region_crossing_raises(self):
        q = self._generic_query()
        # push the robot's start projection across the first obstacle's value
        direction = QueryPerturbation(
            dstarts=np.array([[1.0, 0.0, 0.0]]) * 2.0,
            dgoals=np.zeros((1, 3)),
            dobstacles=np.zeros((2, 3)),
        )
        with pytest.raises(RegionCrossingError):
            continuity_probe(q, direction, [1.0], mode="fixed")


class TestClassifyOracle:
    def test_agreement_on_random_rational_queries(self):
        rng = np.random.default_rng(45)
        for _ in range(500):
            q = random_rational_query(rng, 2, 2, 3)
            frame = make_frame(q, FrameMode.FIXED)
            assert classify(q, frame) == classify_oracle(q, frame)

    def test_agreement_obstacle_pair_mode(self):
        rng = np.random.default_rng(46)
        for _ in range(500):
            q = random_rational_query(rng, 1, 2, 2)
            frame = make_frame(q, FrameMode.OBSTACLE_PAIR)
            assert classify(q, frame) == classify_oracle(q, frame)

    def test_all_coincident(self):
        q = ConfigurationQuery(
            starts=[[0.0, 1.0, 0.0]], goals=[[0.0, 2.0, 0.0]], obstacles=[[0.0, 0.0, 1.0]]
        )
        frame = make_frame(q, FrameMode.FIXED)
        label = classify_oracle(q, frame)
        assert (label.j, label.t, label.c) == (0, 1, 1)

    def test_generic_rational_query(self):
        q = ConfigurationQuery(
            starts=[[0.5, 1.0, 0.0]], goals=[[1.25, 2.0, 0.0]], obstacles=[[2.75, 0.0, 1.0]]
        )
        frame = make_frame(q, FrameMode.FIXED)
        assert classify_oracle(q, frame).j == 2
