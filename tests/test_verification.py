"""Certificates, partition sweeps, continuity probes and the exact oracle."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    make_frame,
    plan,
    random_query,
    random_rational_query,
)
from parammp import verification
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
        robots0 = res.path.configuration(0.0)
        robots1 = res.path.configuration(1.0)
        assert np.array_equal(robots0, q.starts)
        assert np.linalg.norm(robots1 - q.goals) <= 1e-9
        assert np.array_equal(res.path.obstacles, q.obstacles)

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
            res.path.configuration(-0.1)


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
                    start=0,
                    stop=1,
                    den=1,
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

    def test_fifty_robots_and_obstacles_certify(self):
        q = random_query(np.random.default_rng(0), 50, 50, 3)
        assert certify_separation(plan(q, mode="fixed").path, samples_per_segment=64).passed

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


def _segments(robots):
    """Per-robot lists of (t0, t1, move) as segments on ticks over the least
    common denominator of all the bounds."""
    bounds = [Fraction(t) for per in robots for t0, t1, _ in per for t in (t0, t1)]
    den = math.lcm(*(t.denominator for t in bounds))
    return [
        [PathSegment(int(t0 * den), int(t1 * den), den, move) for t0, t1, move in per]
        for per in robots
    ]


def _line(start, end):
    return LinearMove(np.array(start, dtype=float), np.array(end, dtype=float))


def _hand_path(obstacles, robots):
    """A path from per-robot lists of (t0, t1, move); the query's starts and
    goals are each robot's first and last points."""
    segments = _segments(robots)
    query = ConfigurationQuery(
        starts=[per[0].move.initial for per in segments],
        goals=[per[-1].move.final for per in segments],
        obstacles=obstacles,
    )
    return PiecewisePath(query=query, segments=segments)


def _mover_split_by_others():
    # robot 0 follows one segment while robots 1 and 2 cut [0, 1] at 1/5,
    # 1/3, 2/5 and 3/4, so that segment spans five union windows
    return _hand_path(
        [[0.0, -2.0], [5.0, 5.0]],
        [
            [(0, 1, _line([-1.0, 0.0], [1.0, 0.0]))],
            [
                (0, Fraction(1, 5), _line([0.0, 2.0], [0.0, 2.0])),
                (Fraction(1, 5), Fraction(2, 5), _line([0.0, 2.0], [0.0, 3.0])),
                (Fraction(2, 5), Fraction(3, 4), _line([0.0, 3.0], [0.0, 3.0])),
                (Fraction(3, 4), 1, _line([0.0, 3.0], [1.0, 3.0])),
            ],
            [
                (0, Fraction(1, 3), _line([3.0, -1.0], [3.0, 1.0])),
                (Fraction(1, 3), 1, _line([3.0, 1.0], [3.0, 1.0])),
            ],
        ],
    )


def _back_to_back_rests():
    # robot 0 rests at one point on two unmerged segments, then moves
    return _hand_path(
        [[0.0, -2.0]],
        [
            [
                (0, Fraction(1, 4), _line([-1.0, 0.0], [-1.0, 0.0])),
                (Fraction(1, 4), Fraction(1, 2), _line([-1.0, 0.0], [-1.0, 0.0])),
                (Fraction(1, 2), 1, _line([-1.0, 0.0], [1.0, 0.5])),
            ],
            [
                (0, Fraction(1, 3), _line([2.0, 2.0], [0.0, 2.0])),
                (Fraction(1, 3), Fraction(2, 3), _line([0.0, 2.0], [0.0, 2.0])),
                (Fraction(2, 3), 1, _line([0.0, 2.0], [-2.0, 1.0])),
            ],
        ],
    )


def _rest_on_whole_interval():
    # robot 0 never moves while robot 1 swings round it on a half circle
    arc = ArcMove(
        center=np.array([0.0, 0.0]),
        radius=2.0,
        basis_u=np.array([1.0, 0.0]),
        basis_v=np.array([0.0, 1.0]),
        angle_start=0.0,
        angle_end=np.pi,
    )
    return _hand_path(
        [[4.0, 4.0], [-4.0, 0.5]],
        [
            [(0, 1, _line([0.0, 0.0], [0.0, 0.0]))],
            [
                (0, Fraction(1, 4), _line([3.0, 0.0], [2.0, 0.0])),
                (Fraction(1, 4), Fraction(1, 2), arc),
                (Fraction(1, 2), 1, _line(arc.final, [-1.0, -1.0])),
            ],
        ],
    )


def _zero_sweep_arc():
    # robot 0 holds still on an arc whose angles are equal, between two moves
    hold = ArcMove(
        center=np.array([0.5, 1.0]),
        radius=0.5,
        basis_u=np.array([1.0, 0.0]),
        basis_v=np.array([0.0, 1.0]),
        angle_start=1.0,
        angle_end=1.0,
    )
    return _hand_path(
        [[0.0, -3.0], [3.0, 3.0]],
        [
            [
                (0, Fraction(1, 2), _line([-1.0, 1.0], hold.initial)),
                (Fraction(1, 2), Fraction(3, 4), hold),
                (Fraction(3, 4), 1, _line(hold.final, [2.0, 0.0])),
            ],
            [
                (0, Fraction(2, 3), _line([-2.0, -1.0], [1.5, -1.0])),
                (Fraction(2, 3), 1, _line([1.5, -1.0], [1.5, -1.0])),
            ],
        ],
    )


def _all_pairs_reference(path, samples):
    """(sampled_min, certified_lower_bound) per pair, in certificate order,
    from a window loop that samples every pair in every union-grid window and
    bounds it by the two-sided Lipschitz cone: the sampled certifier that the
    closed forms replaced."""
    n, m, d = path.robot_count, path.obstacles.shape[0], path.query.dim
    segments = [seg for per_robot in path.segments for seg in per_robot]
    cuts = sorted({Fraction(0)} | {seg.t1 for seg in segments})
    constant = np.zeros((len(segments) + 1, d))
    bounded = np.zeros(len(segments) + 1)
    for index, seg in enumerate(segments):
        if isinstance(seg.move, LinearMove):
            constant[index] = (seg.move.end - seg.move.start) / float(seg.duration)
        else:
            arc = seg.move
            bounded[index] = arc.radius * abs(arc.angle_end - arc.angle_start) / float(seg.duration)
    first, second = np.triu_indices(n, 1)
    first = np.concatenate([first, np.repeat(np.arange(n), m)])
    second = np.concatenate([second, n + np.tile(np.arange(m), n)])
    sampled = np.full(len(first), np.inf)
    cone_min = np.full(len(first), np.inf)
    at = np.empty((samples + 1, n + m, d))
    at[:, n:] = path.obstacles
    offsets = np.cumsum([0] + [len(per_robot) for per_robot in path.segments])
    for lo, hi in zip(cuts, cuts[1:]):
        # each robot's active segment is its first one ending after lo
        active = [
            offset + next(k for k, seg in enumerate(per_robot) if lo < seg.t1)
            for offset, per_robot in zip(offsets, path.segments)
        ]
        body = np.array(active + [len(segments)] * m)
        ts = np.linspace(float(lo), float(hi), samples + 1)
        at[:, :n] = np.stack([segments[s].at_many(ts) for s in body[:n]], axis=1)
        f = np.sqrt(sum((at[:, first, c] - at[:, second, c]) ** 2 for c in range(d)))
        a, b = body[first], body[second]
        speed = np.linalg.norm(constant[a] - constant[b], axis=1) + bounded[a] + bounded[b]
        h = (float(hi) - float(lo)) / samples
        cone = 0.5 * (f[:-1] + f[1:] - speed * h)
        sampled = np.minimum(sampled, f.min(axis=0))
        cone_min = np.minimum(cone_min, cone.min(axis=0))
    certified = np.minimum(sampled, cone_min)
    return list(zip(sampled.tolist(), certified.tolist()))


def _margin(path):
    """A rounding tolerance: far above the certifier's margin (some hundred
    ulps of the path's coordinates), far below any sampling slack."""
    points = (path.query.starts, path.query.goals, path.obstacles)
    return 1e-12 * (1 + max(np.abs(p).max() for p in points))


def _assert_no_looser_than_reference(path, samples):
    # bounds can only tighten: each pair's bound is at least the sampled
    # reference's less the margin, and its sampled_min at most the
    # reference's plus it
    cert = certify_separation(path, samples)
    margin = _margin(path)
    for pair, (sampled, certified) in zip(cert.pairs, _all_pairs_reference(path, samples)):
        assert pair.certified_lower_bound >= certified - margin
        assert pair.sampled_min <= sampled + margin


class TestSharedGrid:
    @settings(max_examples=100, deadline=None)
    @given(small_queries(max_size=3))
    def test_certified_bound_is_below_every_distance(self, case):
        query, mode = case
        path = plan(query, mode=mode).path
        cert = certify_separation(path)
        ts = np.linspace(0.0, 1.0, 4096)
        at = np.stack([path.positions_at(r, ts) for r in range(path.robot_count)], axis=1)
        for pair in cert.pairs:
            other = (
                at[:, pair.second]
                if pair.kind == "robot-robot"
                else path.obstacles[pair.second]
            )
            true_min = np.linalg.norm(at[:, pair.first] - other, axis=1).min()
            assert pair.certified_lower_bound <= pair.sampled_min
            assert pair.certified_lower_bound <= true_min

    @settings(max_examples=100, deadline=None)
    @given(small_queries(), st.sampled_from([2, 64]))
    @example(  # two lines 2e-7 apart: the minimizer's error exceeds the window
        (
            ConfigurationQuery(
                starts=[[0, 0], [0, 1]], goals=[[0, 2], [0, 3]], obstacles=[[1e-6, 0]]
            ),
            FrameMode.FIXED,
        ),
        2,
    )
    def test_no_looser_than_all_pairs_reference(self, case, samples):
        query, mode = case
        _assert_no_looser_than_reference(plan(query, mode=mode).path, samples)

    @pytest.mark.parametrize("samples", [2, 16, 64])
    @pytest.mark.parametrize(
        "build",
        [_mover_split_by_others, _back_to_back_rests, _rest_on_whole_interval, _zero_sweep_arc],
    )
    def test_hand_built_paths_no_looser_than_all_pairs_reference(self, build, samples):
        _assert_no_looser_than_reference(build(), samples)

    def test_only_touched_entries_are_evaluated_in_blocks(self, monkeypatch):
        # a swap moves one or two robots: a window evaluates only the pairs of
        # the robots that move or change segment there, and no block of work
        # exceeds the budget
        path = plan(random_query(np.random.default_rng(0), 20, 20, 3), mode="fixed").path
        sizes = []
        original = verification._Bodies.minima

        def counting(bodies, a, *args):
            sizes.append(len(a))
            return original(bodies, a, *args)

        monkeypatch.setattr(verification._Bodies, "minima", counting)
        assert certify_separation(path).passed
        segments = sum(len(per_robot) for per_robot in path.segments)
        assert max(sizes) <= verification._BLOCK
        assert sum(sizes) <= 2 * segments * (20 + 20)

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
        three = _segments(
            [
                [(0, 1, _line([-1.0, 0.0], [1.0, 0.0]))],
                [(0, 1, second_move)],
                [
                    (0, Fraction(1, 3), _line([5.0, 5.0], [5.0, 5.0])),
                    (Fraction(1, 3), Fraction(3, 5), _line([5.0, 5.0], [6.0, 5.0])),
                    (Fraction(3, 5), 1, _line([6.0, 5.0], [6.0, 5.0])),
                ],
            ]
        )
        two = three[:2]
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


def _half_circle(center, radius, angle_start):
    return ArcMove(
        center=np.array(center, dtype=float),
        radius=radius,
        basis_u=np.array([1.0, 0.0]),
        basis_v=np.array([0.0, 1.0]),
        angle_start=angle_start,
        angle_end=angle_start + np.pi,
    )


def _dense_robot_distance(path, first, second):
    ts = np.linspace(0.0, 1.0, 1 << 14)
    gap = path.positions_at(first, ts) - path.positions_at(second, ts)
    return np.linalg.norm(gap, axis=1).min()


class TestClosedForms:
    def test_line_passing_an_obstacle_is_exact(self):
        # the nearest point, (0, 1e-3) at t = 1/3, lies between the samples;
        # the sampled cone gave 7.5e-7 at 2 samples and 2.4e-5 at 64
        path = _hand_path([[0.0, 0.0]], [[(0, 1, _line([-1.0, 1e-3], [2.0, 1e-3]))]])
        pair = certify_separation(path, samples_per_segment=2).pair("robot-obstacle", 0, 0)
        assert 1e-3 - 1e-12 <= pair.certified_lower_bound <= pair.sampled_min <= 1e-3

    def test_crossing_between_floats_fails(self):
        # the robot runs straight through the obstacle at x = 0.1, but the
        # evaluated nearest point misses it by rounding; the margin makes the
        # certificate fail all the same
        path = _hand_path([[0.1, 0.0]], [[(0, 1, _line([-1.0, 0.0], [1.0, 0.0]))]])
        cert = certify_separation(path, samples_per_segment=2)
        assert cert.pairs[0].sampled_min > 0.0
        assert not cert.passed

    def test_rest_that_starts_off_the_previous_end_is_evaluated(self):
        # the rest begins 5e-10 nearer the obstacle than the move ended,
        # within the path's endpoint tolerance: changing segment touches the
        # robot, so the nearer rest bounds the pair
        path = _hand_path(
            [[0.0, 0.0]],
            [
                [
                    (0, Fraction(1, 2), _line([-1.0, 1.0], [0.0, 1.0])),
                    (Fraction(1, 2), 1, _line([0.0, 1.0 - 5e-10], [0.0, 1.0 - 5e-10])),
                ]
            ],
        )
        pair = certify_separation(path).pair("robot-obstacle", 0, 0)
        assert pair.certified_lower_bound == pair.sampled_min == 1.0 - 5e-10

    def test_arc_against_point_with_minimum_inside_the_window(self):
        # a unit half circle passes nearest the obstacle at angle 1, t = 1/pi
        arc = _half_circle([0.0, 0.0], 1.0, 0.0)
        obstacle = 2.0 * np.array([np.cos(1.0), np.sin(1.0)])
        path = _hand_path([obstacle], [[(0, 1, arc)]])
        pair = certify_separation(path, samples_per_segment=2).pair("robot-obstacle", 0, 0)
        assert 1.0 - 1e-12 <= pair.certified_lower_bound <= pair.sampled_min <= 1.0 + 1e-12
        reference = _all_pairs_reference(path, 2)[0][1]
        assert reference < 0.8  # the cone between three samples

    @pytest.mark.parametrize(
        "second_move",
        [_line([-3.0, 1.5], [1.0, 2.5]), _half_circle([0.5, 3.0], 1.2, np.pi)],
        ids=["arc-line", "arc-arc"],
    )
    @pytest.mark.parametrize("samples", [4, 64])
    def test_fallback_pairs_against_dense_reference(self, second_move, samples):
        # an arc against a moving line or a second, non-antipodal arc has no
        # closed form and keeps the sampled cone
        arc = _half_circle([0.0, 0.0], 1.0, 0.0)
        path = _hand_path([[0.0, -5.0]], [[(0, 1, arc)], [(0, 1, second_move)]])
        pair = certify_separation(path, samples).pair("robot-robot", 0, 1)
        dense = _dense_robot_distance(path, 0, 1)
        assert 0 < pair.certified_lower_bound <= pair.sampled_min
        assert pair.certified_lower_bound <= dense
        _assert_no_looser_than_reference(path, samples)

    def test_overflowing_distances_fail_quietly(self):
        # finite coordinates whose differences overflow: a failing
        # certificate, with no warning and no exception
        path = _hand_path([[-1e308, 0.0]], [[(0, 1, _line([1e308, 0.0], [1e308, 1.0]))]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = certify_separation(path)
        assert not cert.passed


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
