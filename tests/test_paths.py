"""Segment algebra: moves, path tiling, and closed-form evaluation."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from parammp import ArcMove, ConfigurationQuery, InternalConsistencyError, LinearMove, PathSegment, PiecewisePath
from parammp.errors import DimensionMismatchError


def make_path(segments_per_robot, starts, goals, obstacles):
    query = ConfigurationQuery(starts=starts, goals=goals, obstacles=obstacles)
    return PiecewisePath(query=query, segments=segments_per_robot)


def linear_segment(t0, t1, p0, p1, den=42):
    """A straight segment on [t0, t1] (Fractions or (num, den) tuples), on
    ticks over ``den``, which every bound's denominator must divide."""
    t0 = Fraction(*t0) if isinstance(t0, tuple) else Fraction(t0)
    t1 = Fraction(*t1) if isinstance(t1, tuple) else Fraction(t1)
    assert (t0 * den).denominator == (t1 * den).denominator == 1
    return PathSegment(
        start=int(t0 * den),
        stop=int(t1 * den),
        den=den,
        move=LinearMove(np.array(p0, dtype=float), np.array(p1, dtype=float)),
    )


class TestMoves:
    def test_linear_midpoint(self):
        move = LinearMove(np.array([0.0, 0.0]), np.array([2.0, 2.0]))
        assert np.allclose(move.at(0.5), [1.0, 1.0])

    def test_linear_endpoints_bitwise(self):
        start = np.array([0.1, 0.2, 0.3])
        end = np.array([0.4, 0.5, 0.6])
        move = LinearMove(start, end)
        assert np.array_equal(move.at(0.0), start)
        assert np.array_equal(move.at(1.0), end)

    def test_arc_quarter_circle(self):
        move = ArcMove(
            center=np.zeros(2),
            radius=2.0,
            basis_u=np.array([1.0, 0.0]),
            basis_v=np.array([0.0, 1.0]),
            angle_start=0.0,
            angle_end=math.pi / 2,
        )
        assert np.allclose(move.at(0.0), [2.0, 0.0])
        assert np.allclose(move.at(1.0), [0.0, 2.0], atol=1e-15)
        assert np.allclose(move.at(0.5), [math.sqrt(2), math.sqrt(2)])

    def test_arc_end_points_evaluated_once(self):
        move = ArcMove(
            center=np.array([0.5, -1.0, 2.0]),
            radius=0.3,
            basis_u=np.array([0.0, 1.0, 0.0]),
            basis_v=np.array([0.0, 0.0, 1.0]),
            angle_start=0.25,
            angle_end=0.25 + math.pi,
        )
        assert move.initial is move.initial and move.final is move.final
        assert np.array_equal(move.initial, move.at(0.0))
        assert np.array_equal(move.final, move.at(1.0))
        assert not move.initial.flags.writeable and not move.final.flags.writeable

    def test_arc_rejects_nan_radius(self):
        with pytest.raises(ValueError, match="radius"):
            ArcMove(
                center=np.zeros(2),
                radius=math.nan,
                basis_u=np.array([1.0, 0.0]),
                basis_v=np.array([0.0, 1.0]),
                angle_start=0.0,
                angle_end=1.0,
            )

    @pytest.mark.parametrize("field", ["center", "basis_u", "basis_v"])
    def test_arc_rejects_points_of_mixed_dimension(self, field):
        fields = dict(
            center=np.zeros(3), basis_u=np.array([1.0, 0.0, 0.0]),
            basis_v=np.array([0.0, 1.0, 0.0]),
        )
        fields[field] = np.append(fields[field], 0.0)
        with pytest.raises(ValueError, match="one dimension"):
            ArcMove(radius=1.0, angle_start=0.0, angle_end=1.0, **fields)

    @pytest.mark.parametrize(
        "basis_u, basis_v",
        [
            ([1.0, 0.0], [0.5, 0.5]),
            ([math.nan, 0.0], [0.0, 1.0]),
            ([1.0, 0.0], [math.nan, 1.0]),
            ([math.inf, 0.0], [0.0, 1.0]),
            ([1.0, 0.0], [0.0, -math.inf]),
            ([1.0 + 1e-11, 0.0], [0.0, 1.0]),
            ([1.0, 0.0], [0.0, 1.0 - 1e-11]),
            ([1.0, 0.0], [1e-11, 1.0]),
        ],
    )
    def test_arc_rejects_basis_not_orthonormal(self, basis_u, basis_v):
        with pytest.raises(ValueError, match="orthonormal"):
            ArcMove(
                center=np.zeros(2),
                radius=1.0,
                basis_u=np.array(basis_u),
                basis_v=np.array(basis_v),
                angle_start=0.0,
                angle_end=1.0,
            )

    @pytest.mark.parametrize(
        "basis_u, basis_v",
        [
            ([1.0 + 1e-13, 0.0], [0.0, 1.0 - 1e-13]),
            ([1.0, 1e-13], [-1e-13, 1.0]),
            ([1.0, 0.0, -0.0], [1e-13, -0.0, 1.0]),
        ],
    )
    def test_arc_accepts_basis_within_tolerance(self, basis_u, basis_v):
        move = ArcMove(
            center=np.zeros(len(basis_u)),
            radius=1.0,
            basis_u=np.array(basis_u),
            basis_v=np.array(basis_v),
            angle_start=0.0,
            angle_end=1.0,
        )
        assert np.array_equal(move.initial, basis_u)

    @pytest.mark.parametrize(
        "start, end, constant",
        [
            ([0.0, -0.0], [-0.0, 0.0], True),
            ([1.0, 2.0], [1.0, math.nextafter(2.0, 3.0)], False),
            ([math.nan, 0.0], [math.nan, 0.0], False),
        ],
    )
    def test_linear_is_constant_compares_values(self, start, end, constant):
        assert LinearMove(np.array(start), np.array(end)).is_constant() is constant

    def test_at_many_matches_at(self):
        move = LinearMove(np.array([0.0, 1.0]), np.array([4.0, -3.0]))
        us = np.linspace(0, 1, 11)
        batch = move.at_many(us)
        for u, row in zip(us, batch):
            assert np.allclose(row, move.at(u), atol=1e-15)


class TestPathSegment:
    def test_float_window_matches_exact_bounds(self):
        seg = linear_segment((1, 7), (5, 21), [0.1, 0.2], [0.7, -0.3])
        ts = np.linspace(1 / 7, 5 / 21, 9)
        u = (ts - float(Fraction(1, 7))) / float(Fraction(5, 21) - Fraction(1, 7))
        assert np.array_equal(seg.at_many(ts), seg.move.at_many(u))
        assert seg.local(0.2) == (0.2 - float(Fraction(1, 7))) / float(seg.duration)

    def test_ticks_must_be_integers(self):
        move = LinearMove(np.zeros(2), np.ones(2))
        with pytest.raises(TypeError, match="integer ticks"):
            PathSegment(start=Fraction(0), stop=1, den=1, move=move)
        with pytest.raises(TypeError, match="integer ticks"):
            PathSegment(start=0, stop=1.0, den=1, move=move)

    @pytest.mark.parametrize("start, stop, den", [(1, 1, 3), (2, 1, 3), (-1, 1, 3), (0, 4, 3), (0, 1, 0)])
    def test_window_must_be_nonempty_within_unit_interval(self, start, stop, den):
        with pytest.raises(ValueError, match="empty or off"):
            PathSegment(start=start, stop=stop, den=den, move=LinearMove(np.zeros(2), np.ones(2)))


class TestPiecewisePath:
    def _two_piece(self):
        segments = (
            (
                linear_segment(0, (1, 2), [0.0, 0.0], [1.0, 1.0]),
                linear_segment((1, 2), 1, [1.0, 1.0], [2.0, 0.0]),
            ),
        )
        return make_path(segments, [[0.0, 0.0]], [[2.0, 0.0]], [[9.0, 9.0]])

    def test_evaluation_at_boundaries(self):
        path = self._two_piece()
        assert np.array_equal(path.position(0, 0.0), [0.0, 0.0])
        assert np.array_equal(path.position(0, 1.0), [2.0, 0.0])
        assert np.allclose(path.position(0, 0.5), [1.0, 1.0])

    def test_adjacent_segments_agree_at_junction(self):
        path = self._two_piece()
        left = path.segments[0][0].at(0.5)
        right = path.segments[0][1].at(0.5)
        assert np.linalg.norm(left - right) <= 1e-9

    def test_segment_at_compares_exactly_with_ticks(self):
        segments = (
            (
                linear_segment(0, (1, 3), [0.0, 0.0], [1.0, 1.0]),
                linear_segment((1, 3), 1, [1.0, 1.0], [2.0, 0.0]),
            ),
        )
        path = make_path(segments, [[0.0, 0.0]], [[2.0, 0.0]], [[9.0, 9.0]])
        first, second = segments[0]
        assert 1 / 3 < Fraction(1, 3)  # the float lies just before the tick
        assert path.segment_at(0, 1 / 3) is first
        assert path.segment_at(0, Fraction(1, 3)) is second
        assert path.segment_at(0, np.int64(1)) is second
        assert np.array_equal(path.position(0, Fraction(1, 3)), [1.0, 1.0])

    def test_denominators_must_agree(self):
        segments = (
            (linear_segment(0, 1, [0.0, 0.0], [2.0, 0.0], den=6),),
            (linear_segment(0, 1, [0.0, 1.0], [2.0, 1.0], den=3),),
        )
        with pytest.raises(InternalConsistencyError, match="robot 1 has a gap/overlap at t=0"):
            make_path(segments, [[0.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [2.0, 1.0]], [[9.0, 9.0]])

    def test_time_out_of_range(self):
        path = self._two_piece()
        with pytest.raises(ValueError):
            path.position(0, 1.5)

    @pytest.mark.parametrize("t", [-1.0, 1.5, math.nan])
    def test_times_outside_unit_interval_rejected(self, t):
        path = self._two_piece()
        with pytest.raises(ValueError):
            path.positions_at(0, np.array([0.5, t]))
        with pytest.raises(ValueError):
            path.position(0, t)

    def test_gap_rejected(self):
        segments = (
            (
                linear_segment(0, (1, 3), [0.0, 0.0], [1.0, 1.0]),
                linear_segment((1, 2), 1, [1.0, 1.0], [2.0, 0.0]),
            ),
        )
        with pytest.raises(InternalConsistencyError):
            make_path(segments, [[0.0, 0.0]], [[2.0, 0.0]], [[9.0, 9.0]])

    def test_discontinuity_rejected(self):
        segments = (
            (
                linear_segment(0, (1, 2), [0.0, 0.0], [1.0, 1.0]),
                linear_segment((1, 2), 1, [1.5, 1.0], [2.0, 0.0]),
            ),
        )
        with pytest.raises(InternalConsistencyError):
            make_path(segments, [[0.0, 0.0]], [[2.0, 0.0]], [[9.0, 9.0]])

    @staticmethod
    def _two_robot_points():
        """Per robot, per segment: [start, end] of a path on ticks over 3 in
        which robot 0 moves once and robot 1 moves on [0, 1/3] and [1/3, 1]."""
        return [
            [[[0.0, 0.0], [2.0, 0.0]]],
            [[[0.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [2.0, 1.0]]],
        ]

    @staticmethod
    def _two_robot_path(points):
        windows = [[(0, 3)], [(0, 1), (1, 3)]]
        segments = [
            [
                linear_segment((start, 3), (stop, 3), p0, p1, den=3)
                for (start, stop), (p0, p1) in zip(per_windows, per_points)
            ]
            for per_windows, per_points in zip(windows, points)
        ]
        return make_path(
            segments, [[0.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [2.0, 1.0]], [[9.0, 9.0]]
        )

    @pytest.mark.parametrize(
        "robot, index, end, message",
        [
            (1, 1, 0, "robot 1 is discontinuous at t=1/3"),
            (0, 0, 0, "robot 0 is discontinuous at its start"),
            (1, 1, 1, "robot 1 is discontinuous at its goal"),
        ],
    )
    def test_junction_errors_name_the_robot_and_the_time(self, robot, index, end, message):
        points = self._two_robot_points()
        points[robot][index][end] = [3.0, math.nan]
        with pytest.raises(InternalConsistencyError, match=message):
            self._two_robot_path(points)

    def test_nan_junction_rejected(self):
        # both sides of the junction agree, but a NaN equals nothing
        points = self._two_robot_points()
        points[1][0][1][0] = points[1][1][0][0] = math.nan
        with pytest.raises(InternalConsistencyError, match="discontinuous"):
            self._two_robot_path(points)

    def test_cut_segment_point_rejected(self):
        # both ends of the junction are cut, so the segments still chain
        points = self._two_robot_points()
        points[1][0][1] = points[1][1][0] = [1.0]
        with pytest.raises(DimensionMismatchError, match="must have 2 coordinates"):
            self._two_robot_path(points)

    def test_arc_of_other_dimension_rejected(self):
        # a half circle from (0, 0) to (2, 0), written with points in 3-space
        arc = ArcMove(
            center=np.array([1.0, 0.0, 0.0]), radius=1.0,
            basis_u=np.array([-1.0, 0.0, 0.0]), basis_v=np.array([0.0, 1.0, 0.0]),
            angle_start=0.0, angle_end=math.pi,
        )
        segments = ((PathSegment(0, 1, 1, arc),),)
        with pytest.raises(DimensionMismatchError, match="must have 2 coordinates"):
            make_path(segments, [[0.0, 0.0]], [[2.0, 0.0]], [[9.0, 9.0]])

    def test_wrong_endpoint_rejected(self):
        segments = ((linear_segment(0, 1, [0.0, 0.0], [2.0, 0.5]),),)
        with pytest.raises(InternalConsistencyError):
            make_path(segments, [[0.0, 0.0]], [[2.0, 0.0]], [[9.0, 9.0]])

    def test_positions_at_matches_scalar_evaluation(self):
        path = self._two_piece()
        ts = np.linspace(0, 1, 33)
        batch = path.positions_at(0, ts)
        for t, row in zip(ts, batch):
            assert np.allclose(row, path.position(0, t), atol=1e-14)

    def test_obstacles_shared_with_query(self):
        path = self._two_piece()
        assert path.obstacles is path.query.obstacles
