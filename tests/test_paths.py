"""Segment algebra: moves, path tiling, and closed-form evaluation."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parammp import (
    ArcMove,
    ConfigurationQuery,
    InternalConsistencyError,
    LinearMove,
    PathSegment,
    PiecewisePath,
    certify_separation,
    plan,
    planner,
    random_query,
    serialize_plan,
)
from parammp.errors import DimensionMismatchError
from parammp.paths import arc_row
from hand_built_paths import extreme_path
from query_strategies import small_queries


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

    @settings(max_examples=200, deadline=None)
    @given(
        center=st.lists(st.floats(-1e150, 1e150), min_size=2, max_size=4),
        radius=st.one_of(
            st.floats(1e-300, 1e150), st.floats(1e-300, 1e150).map(np.float64)
        ),
        turn=st.floats(-math.pi, math.pi),
        angles=st.tuples(
            st.one_of(st.sampled_from([-0.0, 0.0, math.pi]), st.floats(-10, 10)),
            st.one_of(st.sampled_from([-0.0, 0.0, math.pi]), st.floats(-10, 10)),
        ),
        numpy_angles=st.booleans(),
    )
    def test_arc_end_points_are_its_evaluations_bit_for_bit(
        self, center, radius, turn, angles, numpy_angles
    ):
        # end points in Python floats equal at(0.0) and at(1.0) in numpy
        basis_u, basis_v = np.zeros(len(center)), np.zeros(len(center))
        basis_u[:2] = math.cos(turn), math.sin(turn)
        basis_v[:2] = -math.sin(turn), math.cos(turn)
        if numpy_angles:
            angles = tuple(map(np.float64, angles))
        move = ArcMove(np.array(center), radius, basis_u, basis_v, *angles)
        assert move.initial.tobytes() == move.at(0.0).tobytes()
        assert move.final.tobytes() == move.at(1.0).tobytes()

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

    @pytest.mark.parametrize(
        "robot, index, end, message",
        [
            (1, 1, 0, "robot 1 is discontinuous at t=1/3"),
            (0, 0, 0, "robot 0 is discontinuous at its start"),
            (1, 0, 0, "robot 1 is discontinuous at its start"),
            (1, 1, 1, "robot 1 is discontinuous at its goal"),
        ],
    )
    def test_finite_junction_gaps_name_the_robot_and_the_time(self, robot, index, end, message):
        points = self._two_robot_points()
        points[robot][index][end] = [point + 0.5 for point in points[robot][index][end]]
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

    def test_column_points_rejected(self):
        # every point a (2, 1) column: each has two entries, but not one axis
        points = [
            [[[[x] for x in point] for point in seg] for seg in per]
            for per in self._two_robot_points()
        ]
        with pytest.raises(DimensionMismatchError, match="must have 2 coordinates"):
            self._two_robot_path(points)

    @pytest.mark.parametrize(
        "row", [(0.0, 0.0, 1.0), (0.0, 0.0, 1.0, 1.0, 5.0), (0.0, 0.0, (1.0,), 1.0)],
        ids=["short", "long", "nested"],
    )
    def test_planner_row_of_other_length_rejected(self, row):
        query = ConfigurationQuery(starts=[[0.0, 0.0]], goals=[[1.0, 1.0]], obstacles=[[9.0, 9.0]])
        with pytest.raises(DimensionMismatchError, match="must have 2 coordinates"):
            PiecewisePath.from_rows(query, 1, [[[0, 1, row]]])

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


    def test_denominator_above_2_53_rejected(self):
        den = 2**53 + 1
        segments = ((PathSegment(0, den, den, LinearMove(np.zeros(2), np.ones(2))),),)
        with pytest.raises(InternalConsistencyError, match="above 2\\*\\*53"):
            make_path(segments, [[0.0, 0.0]], [[1.0, 1.0]], [[9.0, 9.0]])


def _scan(path, robot, t):
    """segment_at by a linear scan over the robot's segments."""
    num, den = (Fraction(t) * path.den).as_integer_ratio()
    for seg in path.segments[robot]:
        if num < seg.stop * den:
            return seg
    return path.segments[robot][-1]


def _same_segment(a, b):
    """Whether two segments have the same ticks, kind and floats, bit for bit."""
    if (a.start, a.stop, a.den, type(a.move)) != (b.start, b.stop, b.den, type(b.move)):
        return False
    if isinstance(a.move, LinearMove):
        fields = ("start", "end")
    else:
        fields = ("center", "radius", "basis_u", "basis_v", "angle_start", "angle_end")
    return all(
        np.asarray(getattr(a.move, f), float).tobytes()
        == np.asarray(getattr(b.move, f), float).tobytes()
        for f in fields
    )


def _assert_columns_reproduce_segments(path):
    # the table holds every segment's ticks, kind and fields bit for bit
    columns = path._columns
    segments = [seg for per_robot in path.segments for seg in per_robot]
    rows = []
    for seg in segments:
        move = seg.move
        if isinstance(move, ArcMove):
            fields = [move.center, [move.radius], move.basis_u, move.basis_v]
            rows.append(np.concatenate(fields + [[move.angle_start, move.angle_end]]))
        else:
            rows.append(np.concatenate([move.start, move.end]))
    assert columns.start.tolist() == [seg.start for seg in segments]
    assert columns.stop.tolist() == [seg.stop for seg in segments]
    assert columns.arc.tolist() == [isinstance(seg.move, ArcMove) for seg in segments]
    assert columns.counts.tolist() == list(map(len, path.segments))
    assert columns.first.tolist() == np.cumsum([0] + columns.counts.tolist()[:-1]).tolist()
    for row, block_row in zip(rows, columns.block):
        assert block_row[: len(row)].tobytes() == row.tobytes()
        assert not block_row[len(row) :].any()
    assert columns.floats.tobytes() == np.concatenate(rows).tobytes()


class TestColumns:
    @settings(max_examples=100, deadline=None)
    @given(small_queries())
    def test_planned_paths(self, case):
        query, mode = case
        _assert_columns_reproduce_segments(plan(query, mode=mode).path)

    def test_hand_built_path(self):
        path = extreme_path()
        _assert_columns_reproduce_segments(path)
        assert math.copysign(1.0, path._columns.block[0, -2]) == -1.0  # angle_start -0.0

    @settings(max_examples=100, deadline=None)
    @given(small_queries())
    def test_planned_table_is_the_table_of_its_segments(self, case):
        # The table the planner writes equals, bit for bit, the one gathered
        # again from its (lazily built) segments; and a path never asked for
        # its segments evaluates like the hand-built one, building only the
        # segments it reads.
        query, mode = case
        planned = plan(query, mode=mode).path
        again = PiecewisePath(query=query, segments=planned.segments)
        for name in ("ticks", "arc", "counts", "first", "block"):
            mine, theirs = getattr(planned._columns, name), getattr(again._columns, name)
            assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape), name
            assert mine.tobytes() == theirs.tobytes(), name
        fresh = plan(query, mode=mode).path
        den = fresh.den
        times = [Fraction(k, 2 * den) for k in range(2 * den + 1)]
        times += [float(t) for t in times]
        samples = np.linspace(0.0, 1.0, 4 * den + 1)
        for robot in range(query.robot_count):
            for t in times:
                assert _same_segment(fresh.segment_at(robot, t), again.segment_at(robot, t))
                assert fresh.position(robot, t).tobytes() == again.position(robot, t).tobytes()
            mine, theirs = fresh.positions_at(robot, samples), again.positions_at(robot, samples)
            assert mine.tobytes() == theirs.tobytes()
        assert "segments" not in fresh.__dict__

    def test_certifier_and_writer_read_no_segment_objects(self, monkeypatch):
        # the table is written by the planner; planning, certification and
        # the plan text never build a segment object or read a segment's move
        query = random_query(np.random.default_rng(0), 8, 8, 3)
        result = plan(query, mode="fixed")
        cert, text = certify_separation(result.path), serialize_plan(result)

        def no_move(seg):
            raise AssertionError("a segment's move was read")

        def no_object(*args, **kwargs):
            raise AssertionError("a segment object was built")

        monkeypatch.setattr(PathSegment, "move", property(no_move), raising=False)
        for cls in (PathSegment, LinearMove, ArcMove):
            monkeypatch.setattr(cls, "__init__", no_object)
        assert certify_separation(result.path) == cert
        assert serialize_plan(result) == text
        again = plan(query, mode="fixed")
        assert certify_separation(again.path) == cert
        assert serialize_plan(again) == text


class TestArcRows:
    """Arc rows the planner writes are checked as whole columns when the path
    is built: a bad one is the planner's fault, named by robot and tick."""

    # One swap: robots 0 and 1 trade places (Case A) on [0, 1/2], on their
    # shared half-circle on [1/6, 1/3].  Their last stage starts from the
    # arc's points again, so a bad arc changes no landing the sweep checks.
    QUERY = ConfigurationQuery(
        starts=[[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]],
        goals=[[2.5, 7.0], [0.5, 7.0], [4.0, 7.0]],
        obstacles=[[-1.0, 5.0], [5.0, 5.0]],
    )

    @pytest.mark.parametrize(
        "radius, basis_u, basis_v, fault",
        [
            (0.0, (1.0, 0.0), (0.0, 1.0), "arc radius must be positive"),
            (math.nan, (1.0, 0.0), (0.0, 1.0), "arc radius must be positive"),
            (-0.5, (1.0, 0.0), (0.0, 1.0), "arc radius must be positive"),
            (0.5, (1.0 + 1e-9, 0.0), (0.0, 1.0), "arc basis must be orthonormal"),
            (0.5, (1.0, 0.0), (0.0, 2.0), "arc basis must be orthonormal"),
            (0.5, (1.0, 0.0), (0.6, 0.8), "arc basis must be orthonormal"),
            (0.5, (math.nan, 0.0), (0.0, 1.0), "arc basis must be orthonormal"),
        ],
        ids=["zero", "nan", "negative", "long-u", "long-v", "skew", "nan-basis"],
    )
    def test_a_bad_arc_row_is_internal_error(self, monkeypatch, radius, basis_u, basis_v, fault):
        assert plan(self.QUERY, mode="fixed").swaps == (planner.CaseASwap(left=0, right=1),)
        swap = planner.swap_case_a

        def bad_arc(*args):
            drop, turn, rise = swap(*args)
            arc = arc_row((0.5, 0.0), radius, basis_u, basis_v, math.pi, 2 * math.pi)
            return drop, {**turn, 0: arc}, rise

        monkeypatch.setattr(planner, "swap_case_a", bad_arc)
        message = f"^robot 0 has an invalid arc at t=1/6: {fault}$"
        with pytest.raises(InternalConsistencyError, match=message):
            plan(self.QUERY, mode="fixed")

    def test_a_hand_built_arc_keeps_its_value_errors(self):
        with pytest.raises(ValueError, match="arc radius must be positive"):
            ArcMove(np.zeros(2), 0.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.0, 1.0)
        with pytest.raises(ValueError, match="arc basis must be orthonormal"):
            ArcMove(np.zeros(2), 1.0, np.array([1.0, 0.0]), np.array([0.6, 0.8]), 0.0, 1.0)


class TestSegmentAt:
    @pytest.mark.parametrize(
        "path",
        [
            plan(random_query(np.random.default_rng(0), 8, 8, 3), mode="fixed").path,
            extreme_path(),
        ],
        ids=["planned", "hand-built"],
    )
    def test_matches_a_linear_scan(self, path):
        den = path.den
        times = [Fraction(k, 2 * den) for k in range(2 * den + 1)]
        times += [float(t) for t in times] + [1, 1.0, np.float64(1.0), np.int64(0)]
        for robot in range(path.robot_count):
            for t in times:
                assert _same_segment(path.segment_at(robot, t), _scan(path, robot, t)), (robot, t)
