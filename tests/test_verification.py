"""Certificates, partition sweeps, continuity probes and the exact oracle."""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parammp import (
    CaseASwap,
    ConfigurationQuery,
    FrameMode,
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
from parammp import arc_row, line_row, verification
from parammp.paths import DURATION, T0, VECTORS, row_final, row_initial
from parammp.verification import MAX_SAMPLES_PER_SEGMENT
from certify_reference import keep_all, reference_bodies
from hand_built_paths import extreme_path, path_rows, row_at, row_fields
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
        for entries in path_rows(res.path):
            for (_, _, left), (_, _, right) in zip(entries, entries[1:]):
                gap = np.subtract(row_final(left, 3), row_initial(right, 3))
                assert np.linalg.norm(gap) <= 1e-9

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
        path = PiecewisePath.from_rows(q, 1, [[(0, 1, line_row([-1.0, 0.0], [1.0, 0.0]))]])
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
        # every pair of a planned path has a closed form, so the sample count
        # changes nothing
        q = random_query(np.random.default_rng(0), 50, 50, 3)
        path = plan(q, mode="fixed").path
        cert = certify_separation(path, samples_per_segment=64)
        assert cert.passed
        assert certify_separation(path, samples_per_segment=2).pairs == cert.pairs

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

    @pytest.mark.parametrize("samples", [64.0, "64", None, True, np.True_])
    def test_non_integer_samples_rejected(self, samples):
        q = ConfigurationQuery(
            starts=[[-1.0, 0.0]], goals=[[1.0, 3.0]], obstacles=[[0.0, 5.0]]
        )
        res = plan(q, mode="fixed")
        with pytest.raises(ValueError, match="integer"):
            certify_separation(res.path, samples_per_segment=samples)
        assert certify_separation(res.path, samples_per_segment=np.int64(64)).passed


def _entries(robots):
    """The least common denominator of all the bounds of per-robot lists of
    (t0, t1, row), and the lists as entries on ticks over it."""
    bounds = [Fraction(t) for per in robots for t0, t1, _ in per for t in (t0, t1)]
    den = math.lcm(*(t.denominator for t in bounds))
    return den, [[(int(t0 * den), int(t1 * den), row) for t0, t1, row in per] for per in robots]


_line = line_row


def _hand_path(obstacles, robots):
    """A path from per-robot lists of (t0, t1, row); the query's starts and
    goals are each robot's first and last points."""
    den, entries = _entries(robots)
    d = len(obstacles[0])
    query = ConfigurationQuery(
        starts=[row_initial(per[0][2], d) for per in entries],
        goals=[row_final(per[-1][2], d) for per in entries],
        obstacles=obstacles,
    )
    return PiecewisePath.from_rows(query, den, entries)


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
    arc = arc_row([0.0, 0.0], 2.0, [1.0, 0.0], [0.0, 1.0], 0.0, np.pi)
    return _hand_path(
        [[4.0, 4.0], [-4.0, 0.5]],
        [
            [(0, 1, _line([0.0, 0.0], [0.0, 0.0]))],
            [
                (0, Fraction(1, 4), _line([3.0, 0.0], [2.0, 0.0])),
                (Fraction(1, 4), Fraction(1, 2), arc),
                (Fraction(1, 2), 1, _line(row_final(arc, 2), [-1.0, -1.0])),
            ],
        ],
    )


def _zero_sweep_arc():
    # robot 0 holds still on an arc whose angles are equal, between two moves
    hold = arc_row([0.5, 1.0], 0.5, [1.0, 0.0], [0.0, 1.0], 1.0, 1.0)
    return _hand_path(
        [[0.0, -3.0], [3.0, 3.0]],
        [
            [
                (0, Fraction(1, 2), _line([-1.0, 1.0], row_initial(hold, 2))),
                (Fraction(1, 2), Fraction(3, 4), hold),
                (Fraction(3, 4), 1, _line(row_final(hold, 2), [2.0, 0.0])),
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
    rows = [row for per_robot in path_rows(path) for _, _, row in per_robot]
    cuts = sorted({Fraction(0)} | {seg.t1 for seg in segments})
    constant = np.zeros((len(segments) + 1, d))
    bounded = np.zeros(len(segments) + 1)
    for index, (seg, row) in enumerate(zip(segments, rows)):
        f = row_fields(row, d)
        if f["kind"] == "linear":
            constant[index] = (f["end"] - f["start"]) / float(seg.duration)
        else:
            sweep = abs(f["angle_end"] - f["angle_start"])
            bounded[index] = f["radius"] * sweep / float(seg.duration)
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
        at[:, :n] = np.stack(
            [
                row_at(rows[s], d, (ts - segments[s].start / path.den) / float(segments[s].duration))
                for s in body[:n]
            ],
            axis=1,
        )
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
            arc_row([0.0, 1.0], 1.0, [1.0, 0.0], [0.0, 1.0], 0.0, np.pi),
        ],
        ids=["linear", "arc"],
    )
    def test_third_robot_splitting_the_window_never_lowers_a_bound(self, second_move):
        # robots 0 and 1 each follow one segment on [0, 1]; robot 2 rests far
        # away except on [1/3, 3/5], so it cuts their one window into three
        den, three = _entries(
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
        goal = row_final(second_move, 2)
        path_two = PiecewisePath.from_rows(
            ConfigurationQuery(
                starts=[[-1.0, 0.0], [1.0, 1.0]],
                goals=[[1.0, 0.0], goal],
                obstacles=[[0.0, -5.0]],
            ),
            den,
            two,
        )
        path_three = PiecewisePath.from_rows(
            ConfigurationQuery(
                starts=[[-1.0, 0.0], [1.0, 1.0], [5.0, 5.0]],
                goals=[[1.0, 0.0], goal, [6.0, 5.0]],
                obstacles=[[0.0, -5.0]],
            ),
            den,
            three,
        )
        for samples in (4, 16, 64):
            alone = certify_separation(path_two, samples).pair("robot-robot", 0, 1)
            split = certify_separation(path_three, samples).pair("robot-robot", 0, 1)
            assert alone.passes and split.passes
            assert split.certified_lower_bound >= alone.certified_lower_bound - 1e-12


def _arc(center, radius, angle_start, angle_end, basis_u=(1.0, 0.0), basis_v=(0.0, 1.0)):
    return arc_row(center, radius, basis_u, basis_v, angle_start, angle_end)


def _half_circle(center, radius, angle_start, **basis):
    """A half turn whose sweep is exactly float pi, as a Case A arc's is."""
    angle_end = angle_start + np.pi
    assert Fraction(angle_end) - Fraction(angle_start) == Fraction(np.pi)
    return _arc(center, radius, angle_start, angle_end, **basis)


_O = [0.0, 0.0]
# An odd multiple of 2^-52: _X + pi rounds, and then less _X rounds to pi.
_X = 1.5 + 2.0**-52


def _twin_pairs(path):
    """Robot pairs (i, k) that follow a Case A twin on some window, decided
    in exact arithmetic: arcs on one window that share center, radius and
    basis, each sweep float pi and start float pi apart."""
    pi, d = Fraction(np.pi), path.query.dim
    arcs = [
        (robot, (start, stop), f)
        for robot, entries in enumerate(path_rows(path))
        for start, stop, row in entries
        for f in [row_fields(row, d)]
        if f["kind"] == "arc" and Fraction(f["angle_end"]) - Fraction(f["angle_start"]) == pi
    ]
    return {
        (i, k)
        for i, window, s in arcs
        for k, other, t in arcs
        if i < k
        and window == other
        and s["radius"] == t["radius"]
        and all(np.array_equal(s[name], t[name]) for name in ("center", "basis_u", "basis_v"))
        and abs(Fraction(s["angle_start"]) - Fraction(t["angle_start"])) == pi
    }


class _ConeReached(Exception):
    pass


@contextmanager
def _cone_raises():
    """Certification in this context raises _ConeReached if it samples."""

    def cone(*args):
        raise _ConeReached

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification._Bodies, "_cone", staticmethod(cone))
        yield


@contextmanager
def _unpruned():
    """Certification in this context certifies every touched entry."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "_may_set_minimum", keep_all)
        yield mp


def _assert_matches_reference_kernel(path, samples):
    # on the unpruned pass, every pair bit for bit as the reference kernel
    # gives it, except pairs with a Case A twin entry, whose bounds may only
    # rise, up to sampled_min
    with _unpruned() as mp:
        cert = certify_separation(path, samples)
        mp.setattr(verification, "_Bodies", reference_bodies)
        reference = certify_separation(path, samples)
    twins = _twin_pairs(path)
    for pair, ref in zip(cert.pairs, reference.pairs):
        if pair.kind == "robot-robot" and (pair.first, pair.second) in twins:
            assert ref.certified_lower_bound <= pair.certified_lower_bound <= pair.sampled_min
        else:
            assert repr((pair.sampled_min, pair.certified_lower_bound)) == repr(
                (ref.sampled_min, ref.certified_lower_bound)
            )


def _dense_robot_distance(path, first, second):
    ts = np.linspace(0.0, 1.0, 1 << 14)
    gap = path.positions_at(first, ts) - path.positions_at(second, ts)
    return np.linalg.norm(gap, axis=1).min()


def _pair_query(starts, goals, obstacles):
    """A ``small_queries`` case in the obstacle-pair frame."""
    query = ConfigurationQuery(starts=starts, goals=goals, obstacles=obstacles)
    return query, FrameMode.OBSTACLE_PAIR


def _exact_straight_minima(path):
    """Each pair's squared minimum distance on a path of straight segments,
    in Fraction: on each window of the union grid, between the float bounds
    the certifier reads, a robot follows one segment's formula origin + (t -
    t0) / duration * step, so each pair's relative position is c + t v
    there."""
    columns, d, den = path._columns, path.query.dim, path.den
    table, ticks = columns.table, sorted({0, *columns.stop.tolist()})

    def affine(column):
        g = [Fraction(x) for x in table[:, column]]
        t0, duration = g[T0], g[DURATION]
        steps = g[VECTORS + d : VECTORS + 2 * d]
        return [(o - t0 / duration * s, s / duration) for o, s in zip(g[VECTORS:], steps)]

    fixed = [[(Fraction(x), Fraction(0)) for x in o] for o in path.obstacles.tolist()]
    n, least = path.robot_count, {}
    for start, stop in zip(ticks, ticks[1:]):
        lo, hi = (Fraction(float(np.float64(t) / den)) for t in (start, stop))
        rows = [
            next(k for k in range(lo_k, lo_k + count) if columns.stop[k] >= stop)
            for lo_k, count in zip(columns.first.tolist(), columns.counts.tolist())
        ]
        bodies = [affine(k) for k in rows] + fixed
        for first, second in [(i, k) for i in range(n) for k in range(i + 1, n + len(fixed))]:
            c, v = zip(*[(a - b, x - y) for (a, x), (b, y) in zip(bodies[first], bodies[second])])
            vv = sum(x * x for x in v)
            times = [lo, hi]
            if vv and lo < -sum(a * x for a, x in zip(c, v)) / vv < hi:
                times.append(-sum(a * x for a, x in zip(c, v)) / vv)
            square = min(sum((a + t * x) ** 2 for a, x in zip(c, v)) for t in times)
            key = ("robot-robot", first, second) if second < n else ("robot-obstacle", first, second - n)
            least[key] = min(least.get(key, square), square)
    return least


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

    def test_planner_case_a_pair_is_recognised(self):
        # two robots trade places with no obstacle between them: one Case A
        # swap, at distance 1 throughout, which the sampled cone bounded by
        # 0.21 at 2 samples; closed forms leave no sampling slack
        query = ConfigurationQuery(
            starts=[[0.0, 0.0], [1.0, 0.5]], goals=[[1.3, 2.0], [-0.3, 2.5]], obstacles=[[5.0, 5.0]]
        )
        result = plan(query, mode="fixed")
        assert result.swaps == (CaseASwap(0, 1),)
        assert _twin_pairs(result.path) == {(0, 1)}
        with _cone_raises():
            pair = certify_separation(result.path, 2).pair("robot-robot", 0, 1)
        dense = _dense_robot_distance(result.path, 0, 1)
        assert dense - 1e-6 <= pair.certified_lower_bound <= pair.sampled_min <= dense + 1e-12

    @pytest.mark.parametrize(
        "robots",
        [
            pytest.param(
                [
                    [(0, 1, _half_circle(_O, 1.0, np.pi - 1.5))],
                    [(0, 1, _half_circle(_O, 1.0, -_X))],
                ],
                id="angle-gap-rounds-to-pi",
            ),
            pytest.param(
                [
                    [(0, 1, _arc(_O, 1.0, _X, _X + np.pi))],
                    [(0, 1, _half_circle(_O, 1.0, _X - np.pi))],
                ],
                id="sweep-rounds-to-pi",
            ),
            pytest.param(
                [
                    [(0, 1, _half_circle(_O, 1.0, 0.0))],
                    [(0, 1, _half_circle(_O, np.nextafter(1.0, 2.0), np.pi))],
                ],
                id="radius-one-ulp-off",
            ),
            pytest.param(
                [
                    [
                        (0, Fraction(1, 2), _half_circle(_O, 0.5, 0.0)),
                        (Fraction(1, 2), 1, _line([-0.5, 0.0], [-0.5, 0.0])),
                    ],
                    [
                        (0, Fraction(1, 4), _line([-0.5, 0.0], [-0.5, 0.0])),
                        (Fraction(1, 4), Fraction(3, 4), _half_circle(_O, 0.5, np.pi)),
                        (Fraction(3, 4), 1, _line([0.5, 0.0], [0.5, 0.0])),
                    ],
                ],
                id="shifted-window",
            ),
            pytest.param(
                [
                    [(0, 1, _half_circle(_O, 1.0, 0.0))],
                    [(0, 1, _half_circle(_O, 1.0, np.pi, basis_u=[1.0, 1e-13]))],
                ],
                id="basis-off",
            ),
        ],
    )
    def test_near_twins_are_sampled(self, robots):
        path = _hand_path([[0.0, -5.0]], robots)
        assert not _twin_pairs(path)
        with pytest.raises(_ConeReached), _cone_raises():
            certify_separation(path, 4)
        pair = certify_separation(path, 4).pair("robot-robot", 0, 1)
        assert 0 < pair.certified_lower_bound <= _dense_robot_distance(path, 0, 1)

    def test_twin_bound_is_below_the_true_distance(self):
        # both arcs share a basis 9e-13 off orthonormal, within BASIS_TOL: the
        # pair comes as close as 2 r sqrt(1 - 9e-13), the bound allows for
        # 2 r sqrt(1 - 3 beta)
        skew = dict(basis_u=[1.0, 0.0], basis_v=[9e-13, 1.0])
        path = _hand_path(
            [[0.0, -5.0]],
            [
                [(0, 1, _half_circle([0.5, 0.5], 2.0, 0.0, **skew))],
                [(0, 1, _half_circle([0.5, 0.5], 2.0, np.pi, **skew))],
            ],
        )
        assert _twin_pairs(path) == {(0, 1)}
        with _cone_raises():
            pair = certify_separation(path, 2).pair("robot-robot", 0, 1)
        assert 4.0 * (1 - 2e-12) <= pair.certified_lower_bound <= pair.sampled_min
        assert pair.certified_lower_bound < _dense_robot_distance(path, 0, 1)

    @settings(max_examples=100, deadline=None)
    @given(small_queries())
    # Clearances of about 1e-13 next to motions of 1 to 7 (robots 6e-14
    # apart leaving an obstacle, an arc of radius 1.5 passing a robot 5e-13
    # off its circle, a robot stopping 2e-14 short of an obstacle it heads
    # for): the closed forms' minimizer margins exceed them.
    @example(
        _pair_query([[0, 0], [0, 1], [0, 2]], [[0, 3.135286], [0, -1], [0, -6]], [[2, 0], [0, 1e-6]])
    )
    @example(
        _pair_query([[0, 0], [0, 3], [3, 0]], [[0, -1], [1, 0], [0, 1]], [[0, 1e-6], [4, 0]])
    )
    @example(
        _pair_query([[0, 1], [0, 7], [7, 0]], [[0, 0], [0, -1], [0, -2]], [[-4, 0], [0, 1e-6]])
    )
    def test_planner_paths_never_reach_the_sampled_cone(self, case):
        query, mode = case
        path = plan(query, mode=mode).path
        with _cone_raises():
            assert certify_separation(path, 2).passed

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([2, 3]),
        st.sampled_from(["beside", "stops short", "leaves", "stops beside"]),
        st.floats(-16, -9),
        st.sampled_from([1.0, 7.0, 20.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_straight_bounds_never_exceed_the_exact_minimum(self, d, place, power, scale, seed):
        # robot 0 moves from p to q past an obstacle and robot 1 shadows it,
        # each 10**power times the scale away, on random ticks: every bound
        # is at most the exact minimum of the formula's floats
        rng = np.random.default_rng(seed)
        p, q = rng.uniform(-scale, scale, (2, d))
        gap = scale * 10**power
        along = (q - p) / np.linalg.norm(q - p)
        side = rng.normal(size=d)
        side -= side.dot(along) * along
        side /= np.linalg.norm(side)
        obstacle = {
            "beside": p + rng.uniform(0.2, 0.8) * (q - p) + gap * side,
            "stops short": q + gap * along,
            "leaves": p - gap * along,
            "stops beside": q + gap * side,
        }[place]
        shadow = gap * rng.choice([-1.5, 1.5, 3.0]) * (along if place == "stops short" else side)
        far = [rng.uniform(-scale, scale, d) + 3 * scale * (i + 1) for i in range(4)]
        den = int(rng.integers(3, 40))
        k1, k2 = sorted(rng.choice(np.arange(1, den), size=2, replace=False).tolist())
        robots = [
            [(0, k1, _line(s, a)), (k1, k2, _line(a, b)), (k2, den, _line(b, g))]
            for s, a, b, g in [
                (far[0], p, q, far[1]),
                (far[2], p + shadow, q + shadow, far[3]),
            ]
        ]
        robots = [[(t0, t1, tuple(np.array(row).tolist())) for t0, t1, row in r] for r in robots]
        query = ConfigurationQuery(
            starts=[far[0], far[2]], goals=[far[1], far[3]], obstacles=[obstacle, p + 30 * scale]
        )
        path = PiecewisePath.from_rows(query, den, robots)
        exact = _exact_straight_minima(path)
        for pair in certify_separation(path, 2).pairs:
            bound = pair.certified_lower_bound
            assert bound <= 0 or Fraction(bound) ** 2 <= exact[pair.kind, pair.first, pair.second]

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(-3, 3),
        st.floats(0.1, 10),
        st.floats(-np.pi, np.pi),
        st.floats(0.3, 3.2),
        st.floats(-16, -9),
        st.booleans(),
    )
    def test_arc_point_bound_never_exceeds_the_circle_distance(
        self, x, radius, angle, sweep, power, outside
    ):
        # a point 10**power times the radius off an arc's circle, at an
        # angle inside its sweep, on the unit basis: the arc's minimum is
        # | |point - center| - radius | exactly
        center = [x, 1.0]
        arc = _arc(center, radius, angle, angle + sweep)
        away = radius * (1 + (10**power if outside else -(10**power)))
        theta = angle + sweep / 2
        point = [x + away * math.cos(theta), 1.0 + away * math.sin(theta)]
        path = _hand_path([point], [[(0, 1, arc)]])
        bound = Fraction(certify_separation(path, 2).pair("robot-obstacle", 0, 0).certified_lower_bound)
        r = Fraction(radius)
        square = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(point, center))
        if bound > 0:
            assert (r + bound) ** 2 <= square if outside else square <= (r - bound) ** 2

    def test_overflowing_distances_fail_quietly(self):
        # finite coordinates whose differences overflow: a failing
        # certificate, with no warning and no exception
        path = _hand_path([[-1e308, 0.0]], [[(0, 1, _line([1e308, 0.0], [1e308, 1.0]))]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = certify_separation(path)
        assert not cert.passed


def _case_a_twins():
    # robots 0 and 1 trade places on one circle; robot 2 moves below them
    # before and after, and rests while they turn
    return _hand_path(
        [[0.0, -4.0]],
        [
            [
                (0, Fraction(1, 3), _line([-2.0, 0.0], [-1.0, 0.0])),
                (Fraction(1, 3), Fraction(2, 3), _half_circle([0.0, 0.0], 1.0, np.pi)),
                (Fraction(2, 3), 1, _line([1.0, 0.0], [2.0, 1.0])),
            ],
            [
                (0, Fraction(1, 3), _line([2.0, 0.0], [1.0, 0.0])),
                (Fraction(1, 3), Fraction(2, 3), _half_circle([0.0, 0.0], 1.0, 0.0)),
                (Fraction(2, 3), 1, _line([-1.0, 0.0], [-2.0, -1.0])),
            ],
            [
                (0, Fraction(1, 3), _line([-3.0, -2.0], [0.0, -2.0])),
                (Fraction(1, 3), Fraction(2, 3), _line([0.0, -2.0], [0.0, -2.0])),
                (Fraction(2, 3), 1, _line([0.0, -2.0], [3.0, -1.0])),
            ],
        ],
    )


def _fallback_pairs():
    # an arc against a moving line and against a second, non-antipodal arc
    arc = _half_circle([0.0, 0.0], 1.0, 0.0)
    return _hand_path(
        [[0.0, -5.0]],
        [
            [(0, 1, arc)],
            [(0, 1, _line([-3.0, 1.5], [1.0, 2.5]))],
            [(0, 1, _half_circle([0.5, 3.0], 1.2, np.pi))],
        ],
    )


def _slide_to_an_obstacle():
    # as a Case B slide does, a robot stops just short of an obstacle: its
    # minimizer is the window's end, whose distance decides the margin
    return _hand_path([[10.0, 1.0]], [[(0, 1, _line([9.5, 1.0], [10.0 - 1e-6, 1.0]))]])


class TestReferenceKernel:
    @settings(max_examples=100, deadline=None)
    @given(small_queries(), st.sampled_from([2, 64]))
    def test_planner_paths_match_the_reference_kernel(self, case, samples):
        query, mode = case
        _assert_matches_reference_kernel(plan(query, mode=mode).path, samples)

    @pytest.mark.parametrize("samples", [2, 16, 64])
    @pytest.mark.parametrize(
        "build",
        [
            _mover_split_by_others,
            _back_to_back_rests,
            _rest_on_whole_interval,
            _zero_sweep_arc,
            _case_a_twins,
            _fallback_pairs,
            _slide_to_an_obstacle,
        ],
    )
    def test_hand_built_paths_match_the_reference_kernel(self, build, samples):
        _assert_matches_reference_kernel(build(), samples)


def _assert_block_independent(path, samples):
    # every float as the default block size gives it, whatever the block
    # size: each entry's arithmetic reads its own operands alone
    def floats(cert):
        return [(p.sampled_min.hex(), p.certified_lower_bound.hex()) for p in cert.pairs]

    expected = floats(certify_separation(path, samples))
    for block in (1, 37):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verification, "_BLOCK", block)
            assert floats(certify_separation(path, samples)) == expected


class TestBlocks:
    @settings(max_examples=100, deadline=None)
    @given(small_queries(), st.sampled_from([2, 64]))
    def test_planner_paths_do_not_depend_on_the_block_size(self, case, samples):
        query, mode = case
        _assert_block_independent(plan(query, mode=mode).path, samples)

    @pytest.mark.parametrize("samples", [2, 16])
    @pytest.mark.parametrize(
        "build",
        [
            _mover_split_by_others,
            _back_to_back_rests,
            _rest_on_whole_interval,
            _zero_sweep_arc,
            _case_a_twins,
            _fallback_pairs,
            extreme_path,
        ],
    )
    def test_hand_built_paths_do_not_depend_on_the_block_size(self, build, samples):
        _assert_block_independent(build(), samples)

    def test_a_minimizer_at_a_window_end_is_not_evaluated_again(self, monkeypatch):
        # the robot leaves the obstacle, so its minimizer is the window's
        # start: one evaluation, of the position table, and none at t*
        path = _hand_path([[0.0, 0.0]], [[(0, 1, _line([1.0, 0.0], [2.0, 0.0]))]])
        columns = []
        original = verification.evaluate

        def counting(g, t):
            columns.append(g.shape[1])
            return original(g, t)

        monkeypatch.setattr(verification, "evaluate", counting)
        pair = certify_separation(path).pair("robot-obstacle", 0, 0)
        assert pair.sampled_min == 1.0 and 1.0 - 1e-12 < pair.certified_lower_bound < 1.0
        assert columns == [3]  # the robot at 0 and at 1, the obstacle once


def _fast_pass():
    # robot 0 sweeps past the obstacle at 1e-3 in the middle of its first
    # window, whose ends lie about 1 away; its second window ends 0.5 away,
    # below those ends, so only the cone's speed term keeps the first window
    return _hand_path(
        [[0.0, 0.0]],
        [
            [
                (0, Fraction(1, 2), _line([-1.0, 1e-3], [1.0, 1e-3])),
                (Fraction(1, 2), 1, _line([1.0, 1e-3], [0.5, 0.0])),
            ]
        ],
    )


def _assert_pruned_as_unpruned(path, samples):
    # against the unpruned pass: every sampled_min the same float, and
    # every bound at least the unpruned one and at most sampled_min
    cert = certify_separation(path, samples)
    with _unpruned():
        unpruned = certify_separation(path, samples)
    for pair, full in zip(cert.pairs, unpruned.pairs):
        assert pair.sampled_min.hex() == full.sampled_min.hex()
        assert full.certified_lower_bound <= pair.certified_lower_bound <= pair.sampled_min


class TestBroadPhase:
    @settings(max_examples=100, deadline=None)
    @given(small_queries(), st.sampled_from([2, 64]))
    def test_planner_paths_certify_as_unpruned(self, case, samples):
        query, mode = case
        _assert_pruned_as_unpruned(plan(query, mode=mode).path, samples)

    @pytest.mark.parametrize("samples", [2, 16])
    @pytest.mark.parametrize(
        "build",
        [
            _mover_split_by_others,
            _back_to_back_rests,
            _rest_on_whole_interval,
            _zero_sweep_arc,
            _case_a_twins,
            _fallback_pairs,
            _slide_to_an_obstacle,
            _fast_pass,
            extreme_path,
        ],
    )
    def test_hand_built_paths_certify_as_unpruned(self, build, samples):
        _assert_pruned_as_unpruned(build(), samples)

    def test_a_fast_pass_between_far_window_ends_is_kept(self):
        pair = certify_separation(_fast_pass(), 2).pair("robot-obstacle", 0, 0)
        assert 1e-3 - 1e-12 <= pair.certified_lower_bound <= pair.sampled_min <= 1e-3

    def test_a_cone_that_rounds_above_its_nearer_end_is_kept(self):
        # straight away from the obstacle: the cone equals the start's
        # distance exactly, and rounds 4.4e-16 above it; without the margin
        # the pair's one entry would be skipped and its bound lost
        start, end = [2.692, -1.129], [5.281704, -2.215098]
        path = _hand_path([[0.0, 0.0]], [[(0, 1, _line(start, end))]])
        pair = certify_separation(path, 2).pair("robot-obstacle", 0, 0)
        assert pair.sampled_min == math.hypot(*start)
        assert pair.sampled_min - 1e-12 < pair.certified_lower_bound < pair.sampled_min

    def test_cones_that_are_not_finite_are_kept(self):
        cone = np.array([np.nan, np.inf, -np.inf, 2.0, 1.0, 0.5])
        kept = verification._may_set_minimum(cone, np.ones(len(cone)))
        assert kept.tolist() == [True, True, True, False, True, True]

    def test_most_entries_of_a_large_plan_are_skipped(self, monkeypatch):
        # of the 40,831 touched entries of a 20-robot plan, the swapping
        # pairs' and little else reach the closed forms (4,458)
        path = plan(random_query(np.random.default_rng(0), 20, 20, 3), mode="fixed").path
        sizes = []
        original = verification._Bodies.minima

        def counting(bodies, a, *args):
            sizes.append(len(a))
            return original(bodies, a, *args)

        monkeypatch.setattr(verification._Bodies, "minima", counting)
        certify_separation(path)
        pruned = sum(sizes)
        sizes.clear()
        with _unpruned():
            certify_separation(path)
        assert pruned < sum(sizes) / 5


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
