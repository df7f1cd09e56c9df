"""Path tables: building from rows, tiling, and the one position formula."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parammp import (
    ConfigurationQuery,
    InternalConsistencyError,
    PiecewisePath,
    arc_row,
    certify_separation,
    line_row,
    plan,
    planner,
    random_query,
    random_rational_query,
    serialize_plan,
)
from parammp import paths
from parammp.errors import DimensionMismatchError
from parammp.paths import evaluate, row_final, row_initial
from certify_reference import reference_table
from hand_built_paths import extreme_path, extreme_rows, path_rows, row_at
from query_strategies import small_queries


def make_path(rows, starts, goals, obstacles, den=42):
    """The path on ticks over ``den`` of per-robot ``(start, stop, row)``
    entries."""
    query = ConfigurationQuery(starts=starts, goals=goals, obstacles=obstacles)
    return PiecewisePath.from_rows(query, den, rows)


def linear_entry(t0, t1, p0, p1, den=42):
    """A straight segment's entry on [t0, t1] (Fractions or (num, den)
    tuples), on ticks over ``den``, which every bound's denominator must
    divide."""
    t0 = Fraction(*t0) if isinstance(t0, tuple) else Fraction(t0)
    t1 = Fraction(*t1) if isinstance(t1, tuple) else Fraction(t1)
    assert (t0 * den).denominator == (t1 * den).denominator == 1
    return (int(t0 * den), int(t1 * den), line_row(p0, p1))


def one_segment_path(row, d=2, den=1):
    """The one-robot path that follows ``row``, a row in R^d, on [0, 1]."""
    far = [1e300] * d
    return make_path([[(0, den, row)]], [row_initial(row, d)], [row_final(row, d)], [far], den)


QUARTER = arc_row([0.0, 0.0], 2.0, [1.0, 0.0], [0.0, 1.0], 0.0, math.pi / 2)


class TestRows:
    """Rows and their checks when a path is built: a bad row is the
    builder's fault, named as the table words it."""

    def test_linear_midpoint(self):
        path = one_segment_path(line_row([0.0, 0.0], [2.0, 2.0]))
        assert np.allclose(path.position(0, 0.5), [1.0, 1.0])

    def test_linear_endpoints_bitwise(self):
        start, end = [0.1, 0.2, 0.3], [0.4, 0.5, 0.6]
        path = one_segment_path(line_row(start, end), d=3)
        assert path.position(0, 0.0).tobytes() == np.array(start).tobytes()
        assert path.position(0, 1.0).tobytes() == np.array(end).tobytes()

    def test_arc_quarter_circle(self):
        path = one_segment_path(QUARTER)
        assert np.allclose(path.position(0, 0.0), [2.0, 0.0])
        assert np.allclose(path.position(0, 1.0), [0.0, 2.0], atol=1e-15)
        assert np.allclose(path.position(0, 0.5), [math.sqrt(2), math.sqrt(2)])

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
    def test_arc_end_points_are_the_formulas_values(
        self, center, radius, turn, angles, numpy_angles
    ):
        # arc_row's end points, in Python floats, are what the formula gives
        # in numpy at local times 0 and 1, bit for bit
        d = len(center)
        basis_u, basis_v = [0.0] * d, [0.0] * d
        basis_u[:2] = math.cos(turn), math.sin(turn)
        basis_v[:2] = -math.sin(turn), math.cos(turn)
        if numpy_angles:
            angles = tuple(map(np.float64, angles))
        row = arc_row(center, radius, basis_u, basis_v, *angles)
        path = one_segment_path(row, d)
        ends = evaluate(path._columns.table, np.array([[0.0], [1.0]]))[:, :, 0].T
        assert ends[0].tobytes() == np.array(row_initial(row, d)).tobytes()
        assert ends[1].tobytes() == np.array(row_final(row, d)).tobytes()

    @pytest.mark.parametrize("radius", [math.nan, 0.0, -1.0])
    def test_arc_radius_must_be_positive(self, radius):
        row = arc_row([0.0, 0.0], radius, [1.0, 0.0], [0.0, 1.0], 0.0, 1.0)
        message = "^robot 0 has an invalid arc at t=0: arc radius must be positive$"
        with pytest.raises(InternalConsistencyError, match=message):
            make_path([[(0, 1, row)]], [[1.0, 0.0]], [[0.5, 0.8]], [[9.0, 9.0]], den=1)

    @pytest.mark.parametrize("field", ["center", "basis_u", "basis_v"])
    def test_arc_fields_of_mixed_dimension_rejected(self, field):
        fields = dict(center=[0.0] * 3, basis_u=[1.0, 0.0, 0.0], basis_v=[0.0, 1.0, 0.0])
        fields[field] = fields[field] + [0.0]
        row = arc_row(radius=1.0, angle_start=0.0, angle_end=1.0, **fields)
        query = ConfigurationQuery(
            starts=[[1.0, 0.0, 0.0]], goals=[[0.5, 0.8, 0.0]], obstacles=[[9.0, 9.0, 9.0]]
        )
        with pytest.raises(DimensionMismatchError, match="must have 3 coordinates"):
            PiecewisePath.from_rows(query, 1, [[(0, 1, row)]])

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
    def test_arc_basis_must_be_orthonormal(self, basis_u, basis_v):
        row = arc_row([0.0, 0.0], 1.0, basis_u, basis_v, 0.0, 1.0)
        message = "^robot 0 has an invalid arc at t=0: arc basis must be orthonormal$"
        with pytest.raises(InternalConsistencyError, match=message):
            make_path([[(0, 1, row)]], [[1.0, 0.0]], [[0.5, 0.8]], [[9.0, 9.0]], den=1)

    @pytest.mark.parametrize(
        "basis_u, basis_v",
        [
            ([1.0 + 1e-13, 0.0], [0.0, 1.0 - 1e-13]),
            ([1.0, 1e-13], [-1e-13, 1.0]),
            ([1.0, 0.0, -0.0], [1e-13, -0.0, 1.0]),
        ],
    )
    def test_arc_basis_within_tolerance_accepted(self, basis_u, basis_v):
        d = len(basis_u)
        row = arc_row([0.0] * d, 1.0, basis_u, basis_v, 0.0, 1.0)
        path = one_segment_path(row, d)
        assert np.array_equal(path.position(0, 0.0), basis_u)

    @pytest.mark.parametrize(
        "ticks, den",
        [
            ((0, Fraction(1, 2), 1), 1),  # tiles [0, 1], but would truncate to [0, 0]
            ((0, 0.5, 1), 1),
            ((0, 1, 2), 2.0),
        ],
    )
    def test_ticks_must_be_integers(self, ticks, den):
        first, middle, last = ticks
        rows = [
            [
                (first, middle, line_row([0.0, 0.0], [1.0, 0.0])),
                (middle, last, line_row([1.0, 0.0], [2.0, 0.0])),
            ]
        ]
        with pytest.raises(TypeError, match="integer ticks"):
            make_path(rows, [[0.0, 0.0]], [[2.0, 0.0]], [[9.0, 9.0]], den=den)

    @pytest.mark.parametrize(
        "start, stop, den, message",
        [
            (1, 1, 3, "robot 0 has a gap/overlap at t=0"),
            (2, 1, 3, "robot 0 has a gap/overlap at t=0"),
            (-1, 1, 3, "robot 0 has a gap/overlap at t=0"),
            (0, 4, 3, "robot 0 segments do not span \\[0, 1\\]"),
            (0, 1, 0, "robot 0 segments do not span \\[0, 1\\]"),
        ],
    )
    def test_window_must_be_nonempty_within_unit_interval(self, start, stop, den, message):
        entry = (start, stop, line_row([0.0, 0.0], [1.0, 1.0]))
        with pytest.raises(InternalConsistencyError, match=f"^{message}$"):
            make_path([[entry]], [[0.0, 0.0]], [[1.0, 1.0]], [[9.0, 9.0]], den=den)


class TestPiecewisePath:
    def _two_piece(self):
        rows = (
            (
                linear_entry(0, (1, 2), [0.0, 0.0], [1.0, 1.0]),
                linear_entry((1, 2), 1, [1.0, 1.0], [2.0, 0.0]),
            ),
        )
        return make_path(rows, [[0.0, 0.0]], [[2.0, 0.0]], [[9.0, 9.0]])

    def test_evaluation_at_boundaries(self):
        path = self._two_piece()
        assert np.array_equal(path.position(0, 0.0), [0.0, 0.0])
        assert np.array_equal(path.position(0, 1.0), [2.0, 0.0])
        assert np.allclose(path.position(0, 0.5), [1.0, 1.0])

    def test_adjacent_segments_agree_at_junction(self):
        (left, right), = path_rows(self._two_piece())
        assert np.linalg.norm(np.subtract(row_final(left[2], 2), row_initial(right[2], 2))) <= 1e-9

    def test_segment_at_compares_exactly_with_ticks(self):
        rows = (
            (
                linear_entry(0, (1, 3), [0.0, 0.0], [1.0, 1.0]),
                linear_entry((1, 3), 1, [1.0, 1.0], [2.0, 0.0]),
            ),
        )
        path = make_path(rows, [[0.0, 0.0]], [[2.0, 0.0]], [[9.0, 9.0]])
        first, second = (0, 14, 42, 0), (14, 42, 42, 1)  # start, stop, den, row
        assert 1 / 3 < Fraction(1, 3)  # the float lies just before the tick
        assert path.segment_at(0, 1 / 3) == first
        assert path.segment_at(0, Fraction(1, 3)) == second
        assert path.segment_at(0, np.int64(1)) == second
        assert np.array_equal(path.position(0, Fraction(1, 3)), [1.0, 1.0])

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
        rows = (
            (
                linear_entry(0, (1, 3), [0.0, 0.0], [1.0, 1.0]),
                linear_entry((1, 2), 1, [1.0, 1.0], [2.0, 0.0]),
            ),
        )
        with pytest.raises(InternalConsistencyError):
            make_path(rows, [[0.0, 0.0]], [[2.0, 0.0]], [[9.0, 9.0]])

    def test_discontinuity_rejected(self):
        rows = (
            (
                linear_entry(0, (1, 2), [0.0, 0.0], [1.0, 1.0]),
                linear_entry((1, 2), 1, [1.5, 1.0], [2.0, 0.0]),
            ),
        )
        with pytest.raises(InternalConsistencyError):
            make_path(rows, [[0.0, 0.0]], [[2.0, 0.0]], [[9.0, 9.0]])

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
        rows = [
            [
                (start, stop, line_row(p0, p1))
                for (start, stop), (p0, p1) in zip(per_windows, per_points)
            ]
            for per_windows, per_points in zip(windows, points)
        ]
        return make_path(
            rows, [[0.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [2.0, 1.0]], [[9.0, 9.0]], den=3
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
        arc = arc_row([1.0, 0.0, 0.0], 1.0, [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.0, math.pi)
        with pytest.raises(DimensionMismatchError, match="must have 2 coordinates"):
            make_path([[(0, 1, arc)]], [[0.0, 0.0]], [[2.0, 0.0]], [[9.0, 9.0]], den=1)

    def test_wrong_endpoint_rejected(self):
        rows = ((linear_entry(0, 1, [0.0, 0.0], [2.0, 0.5]),),)
        with pytest.raises(InternalConsistencyError):
            make_path(rows, [[0.0, 0.0]], [[2.0, 0.0]], [[9.0, 9.0]])

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
        rows = [[(0, den, line_row([0.0, 0.0], [1.0, 1.0]))]]
        with pytest.raises(InternalConsistencyError, match="above 2\\*\\*53"):
            make_path(rows, [[0.0, 0.0]], [[1.0, 1.0]], [[9.0, 9.0]], den=den)


def _scan(path, robot, t):
    """segment_at by a linear scan over the robot's segments."""
    num, den = (Fraction(t) * path.den).as_integer_ratio()
    for seg in path.segments[robot]:
        if num < seg.stop * den:
            return seg
    return path.segments[robot][-1]


def _assert_same_table(path, other):
    """Whether two paths have the same table, bit for bit."""
    assert path.den == other.den
    for name in ("ticks", "arc", "counts", "first", "rows", "ends"):
        mine, theirs = getattr(path._columns, name), getattr(other._columns, name)
        assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape), name
        assert mine.tobytes() == theirs.tobytes(), name


def _assert_table_holds_its_rows(path, rows):
    # the table holds every entry's ticks, kind and floats bit for bit: its
    # rows, read-only, their end points, and the plan-JSON fields (a line's
    # row, an arc's without its end points) that the writer reads
    columns, d = path._columns, path.query.dim
    entries = [entry for per_robot in rows for entry in per_robot]
    assert columns.start.tolist() == [start for start, _, _ in entries]
    assert columns.stop.tolist() == [stop for _, stop, _ in entries]
    assert columns.arc.tolist() == [len(row) == 5 * d + 3 for _, _, row in entries]
    assert columns.counts.tolist() == list(map(len, rows))
    assert columns.first.tolist() == np.cumsum([0] + columns.counts.tolist()[:-1]).tolist()
    assert columns.rows.tobytes() == np.concatenate([row for _, _, row in entries]).tobytes()
    assert not columns.rows.flags.writeable
    ends = np.array([row[-2 * d :] for _, _, row in entries])
    assert columns.ends.tobytes() == ends.tobytes()
    fields = [row[: 3 * d + 3] if len(row) > 2 * d else row for _, _, row in entries]
    assert columns.floats.tobytes() == np.concatenate(fields).tobytes()


def _assert_body_table_is_its_plan_json(path):
    table, reference = path._columns.table, reference_table(path)
    assert table.shape == reference.shape
    assert [x.hex() for x in table.ravel().tolist()] == [
        x.hex() for x in reference.ravel().tolist()
    ]
    assert not table.flags.writeable


class TestColumns:
    @settings(max_examples=100, deadline=None)
    @given(small_queries())
    def test_planned_table_is_built_again_from_its_rows(self, case):
        # the table the planner writes equals, bit for bit, the one built
        # again from the rows read back from it, and both evaluate alike
        query, mode = case
        planned = plan(query, mode=mode).path
        rows = path_rows(planned)
        _assert_table_holds_its_rows(planned, rows)
        again = PiecewisePath.from_rows(query, planned.den, rows)
        _assert_same_table(planned, again)
        den = planned.den
        times = [Fraction(k, 2 * den) for k in range(2 * den + 1)]
        times += [float(t) for t in times]
        samples = np.linspace(0.0, 1.0, 4 * den + 1)
        for robot in range(query.robot_count):
            for t in times:
                assert planned.segment_at(robot, t) == again.segment_at(robot, t)
                assert planned.position(robot, t).tobytes() == again.position(robot, t).tobytes()
            mine, theirs = planned.positions_at(robot, samples), again.positions_at(robot, samples)
            assert mine.tobytes() == theirs.tobytes()

    def test_hand_built_path(self):
        path = extreme_path()
        _assert_table_holds_its_rows(path, extreme_rows())
        assert path_rows(path) == extreme_rows()
        # robot 0's arc comes first: center, radius, basis_u, basis_v, then
        # angle_start -0.0
        assert math.copysign(1.0, path._columns.floats[7]) == -1.0

    @settings(max_examples=100, deadline=None)
    @given(small_queries())
    def test_body_table_is_its_plan_json(self, case):
        # every float of the body table, beta and the obstacles' columns
        # too, is what the segments' plan-JSON fields give, bit for bit
        query, mode = case
        _assert_body_table_is_its_plan_json(plan(query, mode=mode).path)

    @pytest.mark.parametrize("mode", ["fixed", "obstacle_pair"])
    @pytest.mark.parametrize("denominator", [None, 2], ids=["generic", "degenerate"])
    def test_planned_body_tables_are_their_plan_json(self, mode, denominator):
        rng = np.random.default_rng(3)
        if denominator is None:
            query = random_query(rng, 6, 6, 4)
        else:  # half-units in [-3, 3]: coincidences, so a split
            query = random_rational_query(rng, 6, 6, 4, denominator=2, span=6)
        result = plan(query, mode=mode)
        assert result.swap_count > 0
        assert (result.region.j < 2 * query.robot_count) == (denominator is not None)
        _assert_body_table_is_its_plan_json(result.path)

    def test_hand_built_body_table_is_its_plan_json(self):
        # a -0.0 angle, subnormal and 1e300 coordinates
        _assert_body_table_is_its_plan_json(extreme_path())

    def test_plan_certify_and_write_build_no_segment_records(self, monkeypatch):
        # planning, certification and the plan text read the table alone:
        # none builds the segments view or a segment record
        query = random_query(np.random.default_rng(0), 8, 8, 3)
        result = plan(query, mode="fixed")
        cert, text = certify_separation(result.path), serialize_plan(result)

        def no_record(*args, **kwargs):
            raise AssertionError("a segment record was built")

        monkeypatch.setattr(paths, "PathSegment", no_record)
        again = plan(query, mode="fixed")
        assert certify_separation(again.path) == cert
        assert serialize_plan(again) == text
        assert "segments" not in again.path.__dict__


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


_PATHS = [
    plan(random_query(np.random.default_rng(0), 8, 8, 3), mode="fixed").path,
    extreme_path(),
]


class TestSegmentAt:
    @pytest.mark.parametrize("path", _PATHS, ids=["planned", "hand-built"])
    def test_matches_a_linear_scan(self, path):
        den = path.den
        times = [Fraction(k, 2 * den) for k in range(2 * den + 1)]
        times += [float(t) for t in times] + [1, 1.0, np.float64(1.0), np.int64(0)]
        for robot in range(path.robot_count):
            for t in times:
                assert path.segment_at(robot, t) == _scan(path, robot, t), (robot, t)

    @pytest.mark.parametrize("path", _PATHS, ids=["planned", "hand-built"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_narrow_float_times_are_their_floats(self, path, dtype):
        # a float32 or float16 time picks the segment and gives the position
        # bits of its exact float value
        times = np.concatenate([path._columns.stop / path.den, np.linspace(0.0, 1.0, 33)])
        for t in times.astype(dtype):
            wide = float(t)
            for robot in range(path.robot_count):
                assert path.segment_at(robot, t) == path.segment_at(robot, wide), (robot, t)
                mine, theirs = path.position(robot, t), path.position(robot, wide)
                assert mine.tobytes() == theirs.tobytes(), (robot, t)
            assert path.configuration(t).tobytes() == path.configuration(wide).tobytes()


def _assert_one_formula(path, randoms):
    """Every position reader of ``path`` gives the same floats: positions_at
    and position at t = 0, 1, every stop tick and ``randoms``; each row at
    its own start and stop time, its stored end points; configuration, the
    stack of position; and all of them what the line and arc formulas give,
    to rounding."""
    columns, d, den = path._columns, path.query.dim, path.den
    stops = columns.stop.tolist()
    ends = columns.ends
    ticks = sorted({Fraction(0), *(Fraction(stop, den) for stop in stops)})
    times = np.array([float(t) for t in ticks] + list(randoms))
    for robot in range(path.robot_count):
        batch = path.positions_at(robot, times)
        for t, row in zip(times.tolist(), batch):
            assert path.position(robot, t).tobytes() == row.tobytes(), (robot, t)
        lo, count = int(columns.first[robot]), int(columns.counts[robot])
        # at each stop tick the robot is at the next row's initial point,
        # and at t = 1 at its last row's final point
        for row in range(lo, lo + count):
            at = path.position(robot, Fraction(stops[row], den))
            point = ends[row + 1, :d] if row + 1 < lo + count else ends[row, d:]
            assert at.tobytes() == point.tobytes(), (robot, row)
    rows = np.arange(len(stops))
    starts, finals = columns.start / den, columns.stop / den
    assert path._at(rows, starts).tobytes() == ends[:, :d].tobytes()
    assert path._at(rows, finals).tobytes() == ends[:, d:].tobytes()
    for t in times.tolist():
        stacked = np.stack([path.position(robot, t) for robot in range(path.robot_count)])
        assert path.configuration(t).tobytes() == stacked.tobytes()
    # the formula, against the formulas written out: each row at times
    # inside its window
    entries = [entry for per_robot in path_rows(path) for entry in per_robot]
    u = np.linspace(0.0, 1.0, 9)
    for row, (start, stop, fields) in enumerate(entries):
        ts = starts[row] + u * (finals[row] - starts[row])
        expected = row_at(fields, d, (ts - starts[row]) / (finals[row] - starts[row]))
        got = path._at(np.full(len(ts), row), ts)
        scale = np.abs(expected).max() + np.abs(fields).max()
        assert np.abs(got - expected).max() <= 1e-13 * scale, row


class TestOneFormula:
    @settings(max_examples=100, deadline=None)
    @given(small_queries(), st.lists(st.floats(0.0, 1.0), max_size=8))
    def test_planned_paths(self, case, randoms):
        query, mode = case
        _assert_one_formula(plan(query, mode=mode).path, randoms)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), max_size=8))
    def test_hand_built_path(self, randoms):
        # 1e300, subnormals and a -0.0 angle
        _assert_one_formula(extreme_path(), randoms)

    def test_large_plan(self):
        path = plan(random_query(np.random.default_rng(0), 20, 20, 3), mode="fixed").path
        _assert_one_formula(path, np.random.default_rng(1).uniform(0, 1, 64))
