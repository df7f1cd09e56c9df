"""Problem parsing, plan serialization, CSV and SVG output."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parammp
from parammp import (
    ConfigurationQuery,
    FrameMode,
    PlanResult,
    QueryValidationError,
    certify_separation,
    classify,
    make_frame,
    parse_problem,
    plan,
    random_query,
    render_svg,
    sample_csv,
    serialize_plan,
)
from parammp.formats import ProblemDocument, ProblemOptions, _point_array
from parammp.verification import MAX_SAMPLES_PER_SEGMENT
from parammp.paths import PiecewisePath, arc_row, line_row
from hand_built_paths import extreme_plan, path_rows, row_at, row_fields
from query_strategies import small_queries

MINIMAL = {
    "version": "1",
    "dim": 2,
    "starts": [[0.0, 1.0]],
    "goals": [[2.0, 1.5]],
    "obstacles": [[1.0, 0.0]],
}


def crossing_plan():
    q = ConfigurationQuery(
        starts=[[0.0, 1.0, 0.0]], goals=[[2.0, 0.0, 1.0]],
        obstacles=[[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]],
    )
    return plan(q, mode="fixed")


class TestParseProblem:
    def test_minimal_document(self):
        doc = parse_problem(json.dumps(MINIMAL))
        assert doc.dim == 2
        assert doc.mode is None
        query = doc.to_query()
        assert query.robot_count == 1 and query.obstacle_count == 1

    def test_query_validated_once_per_parse(self, monkeypatch):
        calls = []
        validate = ConfigurationQuery.__post_init__
        monkeypatch.setattr(
            ConfigurationQuery,
            "__post_init__",
            lambda query: calls.append(query) or validate(query),
        )
        doc = parse_problem(json.dumps(MINIMAL))
        assert doc.to_query() is doc.to_query()
        assert len(calls) == 1

    def test_syntax_error_reports_position(self):
        with pytest.raises(QueryValidationError) as exc:
            parse_problem('{"version": "1",\n  "dim": }')
        assert "line 2" in str(exc.value)

    def test_coincident_points_named(self):
        bad = dict(MINIMAL)
        bad["starts"] = [[1.0, 0.0]]
        with pytest.raises(QueryValidationError) as exc:
            parse_problem(json.dumps(bad))
        assert "starts[0] coincides with obstacles[0]" in str(exc.value)

    def test_unknown_fields_rejected(self):
        bad = dict(MINIMAL)
        bad["extra"] = 1
        bad["options"] = {"snap_tolerance": 0.0, "wat": True}
        with pytest.raises(QueryValidationError) as exc:
            parse_problem(json.dumps(bad))
        message = str(exc.value)
        assert "extra: unknown field" in message
        assert "options.wat: unknown field" in message

    def test_multiple_errors_collected(self):
        bad = {
            "version": "0",
            "dim": 1,
            "starts": [[0.0]],
            "goals": "nope",
            "obstacles": [],
        }
        with pytest.raises(QueryValidationError) as exc:
            parse_problem(json.dumps(bad))
        assert len(exc.value.errors) >= 4

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"version": "2"}, 'version: expected "1", got \'2\''),
            ({"dim": True}, "dim: expected an integer >= 2, got True"),
            ({"mode": "spline"}, "mode: expected one of"),
            ({"goals": None}, "goals: expected a non-empty array of points"),
            ({"starts": [[0.0]]}, "starts[0]: expected 2 coordinates"),
            ({"starts": [[0.0, "1"]]}, "starts[0][1]: not a number"),
            ({"options": []}, "options: expected an object"),
        ],
        ids=[
            "wrong-version", "bool-dim", "unknown-mode", "missing-field", "cut-point",
            "string-coordinate", "options-not-an-object",
        ],
    )
    def test_malformed_document_raises_validation_error(self, fields, message):
        doc = {**MINIMAL, **fields}
        doc = {name: value for name, value in doc.items() if value is not None}
        with pytest.raises(QueryValidationError) as exc:
            parse_problem(json.dumps(doc))
        assert message in exc.value.errors[0]

    def test_top_level_must_be_an_object(self):
        with pytest.raises(QueryValidationError, match="top level: expected a JSON object"):
            parse_problem("[1]")

    def test_round_trip_identity(self):
        text = json.dumps(
            {
                "version": "1",
                "dim": 3,
                "mode": "fixed",
                "starts": [[0.0, 1.0, 0.0]],
                "goals": [[2.0, 0.0, 1.0]],
                "obstacles": [[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]],
                "options": {"snap_tolerance": 0.0, "samples_per_segment": 64},
            }
        )
        assert parse_problem(text) == ProblemDocument(
            version="1",
            dim=3,
            mode="fixed",
            starts=((0.0, 1.0, 0.0),),
            goals=((2.0, 0.0, 1.0),),
            obstacles=((1.0, 0.0, 0.0), (3.0, 0.0, 0.0)),
            options=ProblemOptions(snap_tolerance=0.0),
        )

    def test_round_trip_property_on_random_documents(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            n, m, d = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(2, 5))
            starts, goals, obstacles = (
                rng.uniform(-9, 9, (k, d)).tolist() for k in (n, n, m)
            )
            snap, samples = float(rng.uniform(0, 1e-6)), int(rng.integers(2, 128))
            text = json.dumps(
                {
                    "version": "1",
                    "dim": d,
                    "starts": starts,
                    "goals": goals,
                    "obstacles": obstacles,
                    "options": {"snap_tolerance": snap, "samples_per_segment": samples},
                }
            )
            assert parse_problem(text) == ProblemDocument(
                version="1",
                dim=d,
                mode=None,
                starts=tuple(map(tuple, starts)),
                goals=tuple(map(tuple, goals)),
                obstacles=tuple(map(tuple, obstacles)),
                options=ProblemOptions(snap_tolerance=snap),
            )

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 4).flatmap(
            lambda d: st.tuples(
                st.just(d),
                st.lists(
                    st.tuples(*[st.sampled_from([-0.0, 5e-324, -1e300]) | st.floats(-1e6, 1e6)] * d),
                    min_size=1,
                    max_size=6,
                ),
            )
        )
    )
    def test_query_arrays_are_the_points_as_arrays(self, case):
        # one pass over the coordinates gives the array np.array gives
        dim, points = case
        points = tuple(points)
        array, reference = _point_array(points, dim), np.array(points, dtype=float)
        assert (array.dtype, array.shape) == (reference.dtype, reference.shape)
        assert array.tobytes() == reference.tobytes()  # -0.0 included

    @pytest.mark.parametrize(
        "starts, errors",
        [
            (((1.0, 2.0, 3.0),), ["starts[0]: expected 2 coordinates"]),
            (((1.0, 2.0, 3.0), (9.0,)),
             ["starts[0]: expected 2 coordinates", "starts[1]: expected 2 coordinates"]),
            (((1.0,),), ["starts[0]: expected 2 coordinates"]),
            (((1.0, 2.0), ()), ["starts[1]: expected 2 coordinates"]),
        ],
        ids=["long", "long-then-short", "short", "empty-point"],
    )
    def test_hand_built_document_with_wrong_coordinate_counts(self, starts, errors):
        # a point of the wrong length must not be truncated or re-flowed
        document = ProblemDocument(
            version="1", dim=2, mode=None, starts=starts,
            goals=((5.0, 5.0), (6.0, 6.0))[: len(starts)], obstacles=((7.0, 7.0), (8.0,)),
        )
        with pytest.raises(QueryValidationError) as exc:
            document.to_query()
        assert exc.value.errors == errors + ["obstacles[1]: expected 2 coordinates"]

    def test_hand_built_document_query_is_its_points(self):
        document = ProblemDocument(
            version="1", dim=3, mode=None, starts=((0.0, 1.0, 2.0), (-0.0, 1.0, 3.0)),
            goals=((3.0, 4.0, 5.0), (6.0, 7.0, 8.0)), obstacles=((9.0, 9.0, 9.0),),
        )
        query = document.to_query()
        for name in ("starts", "goals", "obstacles"):
            expected = np.array(getattr(document, name), dtype=float)
            assert getattr(query, name).tobytes() == expected.tobytes()

    def test_mode_hyphen_accepted(self):
        doc = dict(MINIMAL)
        doc["mode"] = "obstacle-pair"
        doc["obstacles"] = [[1.0, 0.0], [3.0, 0.0]]
        parsed = parse_problem(json.dumps(doc))
        assert parsed.frame_mode().value == "obstacle_pair"

    def test_integer_beyond_float_range_rejected(self):
        # JSON integers have no size limit; float() of this one overflows
        text = json.dumps(MINIMAL).replace("[0.0, 1.0]", "[1" + "0" * 400 + ", 1.0]")
        with pytest.raises(QueryValidationError) as exc:
            parse_problem(text)
        assert "starts[0][0]: beyond float range" in str(exc.value)

    def test_integer_above_two_to_the_53_rounds_as_float_does(self):
        # 2**53 + 1 is not a float; the parsed coordinate must round as
        # float() does
        doc = parse_problem(json.dumps({**MINIMAL, "starts": [[9007199254740993, 0.5]]}))
        assert doc.starts == ((float(9007199254740993), 0.5),)
        assert doc.starts[0][0] != 9007199254740993

    def test_integer_points_parse_to_floats(self):
        doc = parse_problem(json.dumps({**MINIMAL, "starts": [[0, 1]], "obstacles": [[1, 0]]}))
        assert doc.starts == ((0.0, 1.0),) and doc.obstacles == ((1.0, 0.0),)
        assert {type(x) for point in doc.starts + doc.obstacles for x in point} == {float}

    def test_integer_with_too_many_digits_rejected(self):
        # json.loads itself refuses integer literals above 4300 digits
        text = json.dumps(MINIMAL).replace("[0.0, 1.0]", "[1" + "0" * 5000 + ", 1.0]")
        with pytest.raises(QueryValidationError) as exc:
            parse_problem(text)
        assert "JSON number error" in str(exc.value)

    def test_nesting_too_deep_rejected(self):
        # json.loads raises RecursionError on arrays nested this deep
        with pytest.raises(QueryValidationError, match="JSON nesting error"):
            parse_problem("[" * 100_000 + "]" * 100_000)

    @pytest.mark.parametrize(
        "old, new",
        [
            ('"dim": 2', '"dim": @'),
            ('"version": "1"', '"version": @'),
            ('"dim": 2', '"dim": 2, "mode": @'),
            ('"dim": 2', '"dim": 2, "options": {"snap_tolerance": @}'),
            ("[0.0, 1.0]", "[@, 1.0]"),
        ],
        ids=["dim", "version", "mode", "option", "coordinate"],
    )
    def test_nesting_too_deep_in_a_field_rejected(self, old, new):
        # orjson reads any depth, and wording the value's repr would overflow;
        # the error is json's, which cannot read the text
        deep = "[" * 100_000 + "]" * 100_000
        text = json.dumps(MINIMAL).replace(old, new.replace("@", deep))
        with pytest.raises(QueryValidationError) as exc:
            parse_problem(text)
        assert len(exc.value.errors) == 1
        assert exc.value.errors[0].startswith("JSON nesting error: ")

    @pytest.mark.parametrize("field", ["dim", "version", "mode"])
    def test_nesting_either_side_of_the_json_limit_rejected(self, field):
        # Around the depth where json.loads stops reading, a value is worded
        # from json's reading or refused by it: no RecursionError escapes.
        def refused(depth):
            try:
                json.loads("[" * depth + "]" * depth)
            except RecursionError:
                return True
            return False

        limit = next(depth for depth in range(1, 10 * sys.getrecursionlimit()) if refused(depth))
        for depth in range(limit - 30, limit + 30):
            deep = "[" * depth + "]" * depth
            with pytest.raises(QueryValidationError):
                parse_problem(json.dumps({**MINIMAL, field: "@"}).replace('"@"', deep))

    @pytest.mark.parametrize(
        "token",
        ["NaN", "Infinity", "-Infinity", "1" + "0" * 400, "-1"],
        ids=["nan", "inf", "-inf", "huge-integer", "negative"],
    )
    def test_snap_tolerance_must_be_finite_and_non_negative(self, token):
        text = json.dumps({**MINIMAL, "options": {"snap_tolerance": 0.5}})
        with pytest.raises(QueryValidationError) as exc:
            parse_problem(text.replace("0.5", token))
        assert "options.snap_tolerance: expected a finite number >= 0" in str(exc.value)

    @pytest.mark.parametrize("samples", [4097, 10**30, 1, 0, True, 2.5, "64", None])
    def test_samples_per_segment_out_of_range_rejected(self, samples):
        # read by nothing, but still checked: no document changes validity
        text = json.dumps({**MINIMAL, "options": {"samples_per_segment": samples}})
        with pytest.raises(QueryValidationError) as exc:
            parse_problem(text)
        assert f"<= {MAX_SAMPLES_PER_SEGMENT}, got {samples!r}" in str(exc.value)
        for bound in (2, 4096):
            text = json.dumps({**MINIMAL, "options": {"samples_per_segment": bound}})
            assert parse_problem(text).options == ProblemOptions()


class TestSerializePlan:
    def test_thirds_bounds_are_exact_rationals(self):
        # one swap: its three stages fill the thirds of [0, 1/2]
        res = crossing_plan()
        doc = json.loads(serialize_plan(res))
        bounds = {
            seg["t0"] for robot in doc["robots"] for seg in robot["segments"]
        } | {seg["t1"] for robot in doc["robots"] for seg in robot["segments"]}
        assert bounds == {"0/1", "1/6", "1/3", "1/2", "1/1"}

    def test_straight_line_fills_last_window(self):
        # after the one swap the robot moves straight to its goal on [1/2, 1]
        res = crossing_plan()
        doc = json.loads(serialize_plan(res))
        last = doc["robots"][0]["segments"][-1]
        assert last["kind"] == "linear"
        assert last["t0"] == "1/2" and last["t1"] == "1/1"
        assert last["start"] != last["end"]
        assert np.array_equal(last["end"], res.path.query.goals[0])

    @pytest.mark.parametrize("mode", ["fixed", "obstacle_pair"])
    def test_floats_and_bounds_written_exactly(self, mode):
        res = crossing_plan() if mode == "fixed" else plan(_scaled(1.0), mode=mode)
        doc = json.loads(serialize_plan(res))
        den, d = res.path.den, res.path.query.dim
        for per_robot, written in zip(path_rows(res.path), doc["robots"], strict=True):
            for (start, stop, row), entry in zip(per_robot, written["segments"], strict=True):
                assert Fraction(entry["t0"]) == Fraction(start, den)
                assert Fraction(entry["t1"]) == Fraction(stop, den)
                fields = row_fields(row, d)
                assert entry["kind"] == fields.pop("kind")
                del fields["initial"], fields["final"]
                assert entry.keys() - {"t0", "t1", "kind"} == fields.keys()
                for name, value in fields.items():
                    assert entry[name] == np.asarray(value, dtype=float).tolist()

    def test_mixed_denominators_certify_and_serialize(self):
        path = _mixed_denominator_path()
        for samples in (2, 64):
            cert = certify_separation(path, samples_per_segment=samples)
            got = [(p.sampled_min.hex(), p.certified_lower_bound.hex()) for p in cert.pairs]
            assert got == _MIXED_BOUNDS
        frame = make_frame(path.query, FrameMode.FIXED)
        result = PlanResult(
            path=path, region=classify(path.query, frame), swaps=(), frame=frame,
        )
        doc = json.loads(serialize_plan(result))
        bounds = [[(s["t0"], s["t1"]) for s in r["segments"]] for r in doc["robots"]]
        assert bounds == [
            [("0/1", "1/5"), ("1/5", "2/5"), ("2/5", "3/4"), ("3/4", "1/1")],
            [("0/1", "1/3"), ("1/3", "1/1")],
        ]

    def test_region_and_counts_serialized(self):
        res = crossing_plan()
        doc = json.loads(serialize_plan(res))
        assert doc["region"] == {"j": 2, "t": 2, "c": 4}
        assert doc["swap_count"] == 1
        assert doc["mode"] == "fixed"


def _reference_plan_text(result):
    """The plan document built field by field and written by
    ``json.dumps(indent=2)``: the text ``serialize_plan`` must match byte for
    byte."""

    def points(arr):
        return [float(x) for x in np.asarray(arr)]

    def fraction(value):
        return f"{value.numerator}/{value.denominator}"

    query = result.path.query
    den = result.path.den

    def segment(entry):
        start, stop, row = entry
        fields = row_fields(row, query.dim)
        doc = {"t0": fraction(Fraction(start, den)), "t1": fraction(Fraction(stop, den))}
        doc["kind"] = fields["kind"]
        if fields["kind"] == "linear":
            doc["start"] = points(fields["start"])
            doc["end"] = points(fields["end"])
        else:
            doc["center"] = points(fields["center"])
            doc["radius"] = float(fields["radius"])
            doc["basis_u"] = points(fields["basis_u"])
            doc["basis_v"] = points(fields["basis_v"])
            doc["angle_start"] = float(fields["angle_start"])
            doc["angle_end"] = float(fields["angle_end"])
        return doc

    document = {
        "version": "1",
        "dim": query.dim,
        "mode": result.mode.value,
        "region": {"j": result.region.j, "t": result.region.t, "c": result.region.c},
        "domain_index": result.domain_index,
        "swap_count": result.swap_count,
        "frame": {"e": points(result.frame.e), "e_perp": points(result.frame.e_perp)},
        "starts": [points(p) for p in query.starts],
        "goals": [points(p) for p in query.goals],
        "obstacles": [points(p) for p in query.obstacles],
        "robots": [
            {"robot": robot, "segments": [segment(entry) for entry in entries]}
            for robot, entries in enumerate(path_rows(result.path))
        ],
    }
    return json.dumps(document, indent=2)


def _scaled(scale):
    q = random_query(np.random.default_rng(0), 3, 3, 4)
    return ConfigurationQuery(
        starts=q.starts * scale, goals=q.goals * scale, obstacles=q.obstacles * scale
    )


class TestPlanTextMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(small_queries())
    def test_small_queries(self, case):
        query, mode = case
        result = plan(query, mode=mode)
        assert serialize_plan(result) == _reference_plan_text(result)

    @pytest.mark.parametrize("scale", [1e-300, 1e-5, 1e8, 1e100])
    def test_scaled_obstacle_pair_query(self, scale):
        result = plan(_scaled(scale), mode="obstacle_pair")
        assert result.swap_count > 0
        assert serialize_plan(result) == _reference_plan_text(result)

    def test_negative_zero_coordinates(self):
        q = ConfigurationQuery(
            starts=[[-0.0, 1.0]], goals=[[2.0, -0.0]], obstacles=[[1.0, -0.5]]
        )
        result = plan(q, mode="fixed")
        text = serialize_plan(result)
        assert text.count("-0.0,") + text.count("-0.0\n") >= 2
        assert text == _reference_plan_text(result)

    def test_hand_built_path(self):
        # numpy scalars, a -0.0 angle, subnormal and 1e300 coordinates
        result = extreme_plan()
        assert serialize_plan(result) == _reference_plan_text(result)

    def test_twenty_robots_twenty_obstacles(self):
        result = plan(random_query(np.random.default_rng(0), 20, 20, 3), mode="fixed")
        assert serialize_plan(result) == _reference_plan_text(result)

    def test_large_denominator_writes_only_the_ticks_in_use(self):
        # Ticks 0, 1 and 10**6 over 10**6: a table of every tick from 0 to
        # 10**6 took about 60 MB and most of a second for this plan.
        den = 10**6
        query = ConfigurationQuery(starts=[[0.0, 0.0]], goals=[[1.0, 0.0]], obstacles=[[0.0, 1.0]])
        entries = [
            (0, 1, line_row([0.0, 0.0], [0.0, 0.0])),
            (1, den, line_row([0.0, 0.0], [1.0, 0.0])),
        ]
        frame = make_frame(query, FrameMode.FIXED)
        result = PlanResult(
            path=PiecewisePath.from_rows(query, den, [entries]),
            region=classify(query, frame), swaps=(), frame=frame,
        )
        tracemalloc.start()
        try:
            text = serialize_plan(result)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**21, peak
        assert text == _reference_plan_text(result)
        bounds = [(s["t0"], s["t1"]) for s in json.loads(text)["robots"][0]["segments"]]
        assert bounds == [("0/1", "1/1000000"), ("1/1000000", "1/1")]

    def test_text_does_not_depend_on_hash_order(self):
        # fresh interpreters with other string hash seeds write the same
        # bytes: no set or dict order reaches the text
        code = (
            "import sys, numpy as np\n"
            "from parammp import plan, random_query, serialize_plan\n"
            "query = random_query(np.random.default_rng(0), 8, 8, 3)\n"
            "sys.stdout.write(serialize_plan(plan(query)))\n"
        )
        package_root = str(Path(parammp.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        texts = [
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                check=True,
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("0", "1")
        ]
        assert texts[0] and texts[0] == texts[1]


def _mixed_denominator_path():
    """A path whose bounds have denominators 5, 4 and 3, as ticks over 60:
    robot 0 rests, rises, swings over a half circle and moves right; robot 1
    rises and rests."""

    def line(start, stop, p0, p1):
        return (start, stop, line_row(p0, p1))

    arc = arc_row([0.5, 3.0], 0.5, [-1.0, 0.0], [0.0, 1.0], 0.0, 3.141592653589793)
    robot_0 = [
        line(0, 12, [0.0, 2.0], [0.0, 2.0]),
        line(12, 24, [0.0, 2.0], [0.0, 3.0]),
        (24, 45, arc),
        line(45, 60, [1.0, 3.0], [2.0, 3.0]),
    ]
    robot_1 = [
        line(0, 20, [3.0, -1.0], [3.0, 1.0]),
        line(20, 60, [3.0, 1.0], [3.0, 1.0]),
    ]
    query = ConfigurationQuery(
        starts=[[0.0, 2.0], [3.0, -1.0]],
        goals=[[2.0, 3.0], [3.0, 1.0]],
        obstacles=[[0.0, -2.0], [5.0, 5.0]],
    )
    return PiecewisePath.from_rows(query, 60, [robot_0, robot_1])


# (sampled_min, certified_lower_bound) per pair of the mixed-denominator
# path.  The sampled minima are as the certifier gave them when it read
# bounds as Fractions; the bounds were re-recorded when its straight entries
# took the segment bound alone, which raised each of them.
_MIXED_BOUNDS = [
    ("0x1.1e3779b97f4a8p+1", "0x1.1e3779b97f49fp+1"),
    ("0x1.0000000000000p+2", "0x1.ffffffffffff4p+1"),
    ("0x1.cd82b446159f3p+1", "0x1.cd82b446159e5p+1"),
    ("0x1.94c583ada5b53p+1", "0x1.94c583ada5b46p+1"),
    ("0x1.1e3779b97f4a8p+2", "0x1.1e3779b97f49fp+2"),
]


class TestSampleCsv:
    def test_header_and_shape(self):
        res = crossing_plan()
        text = sample_csv(res, resolution=16)
        lines = text.strip().split("\n")
        assert lines[0] == "t,robot,x_1,x_2,x_3"
        assert len(lines) == 1 + 17 * res.path.robot_count

    @pytest.mark.parametrize("resolution", [0, -1])
    def test_resolution_below_one_rejected(self, resolution):
        with pytest.raises(QueryValidationError, match="resolution: expected an integer >= 1"):
            sample_csv(crossing_plan(), resolution=resolution)

    @pytest.mark.parametrize("resolution", [2.5, "8", MAX_SAMPLES_PER_SEGMENT + 1])
    def test_resolution_not_an_integer_in_range_rejected(self, resolution):
        with pytest.raises(QueryValidationError, match="resolution: expected an integer"):
            sample_csv(crossing_plan(), resolution=resolution)

    @pytest.mark.parametrize("resolution", [True, False])
    def test_bool_resolution_rejected(self, resolution):
        # a bool is an Integral; True used to sample at resolution 1
        with pytest.raises(QueryValidationError, match="resolution: expected an integer"):
            sample_csv(crossing_plan(), resolution=resolution)

    def test_values_match_evaluation(self):
        res = crossing_plan()
        lines = sample_csv(res, resolution=8).strip().split("\n")[1:]
        for line in lines:
            parts = line.split(",")
            t, robot = float(parts[0]), int(parts[1])
            coords = np.array([float(v) for v in parts[2:]])
            assert np.allclose(coords, res.path.position(robot, t), atol=1e-12)


class TestRenderSvg:
    def test_well_formed_xml(self):
        res = crossing_plan()
        root = ET.fromstring(render_svg(res))
        assert root.tag.endswith("svg")

    def test_obstacle_markers_at_projected_positions(self):
        res = crossing_plan()
        root = ET.fromstring(render_svg(res))
        ns = {"svg": "http://www.w3.org/2000/svg"}
        circles = [
            el
            for el in root.iter("{http://www.w3.org/2000/svg}circle")
            if el.get("class") == "obstacle"
        ]
        assert len(circles) == 2
        frame = res.frame
        expected = {
            (
                round(float(o @ frame.e), 6),
                round(float(o @ frame.e_perp), 6),
            )
            for o in res.path.obstacles
        }
        got = {
            (round(float(c.get("cx")), 6), round(float(c.get("cy")), 6))
            for c in circles
        }
        assert got == expected

    def test_planar_obstacle_markers_at_raw_coordinates(self):
        # an obstacle-pair frame in the plane: e runs along (1, 1), so the
        # projection on (e, e_perp) would draw (1, 1) at (sqrt(2), 0)
        q = ConfigurationQuery(
            starts=[[0.0, 2.0]], goals=[[3.0, -1.0]], obstacles=[[0.0, 0.0], [1.0, 1.0]]
        )
        res = plan(q, mode="obstacle_pair")
        assert res.frame.mode is FrameMode.OBSTACLE_PAIR
        assert res.frame.e.tolist() != [1.0, 0.0]
        root = ET.fromstring(render_svg(res))
        got = [
            (c.get("cx"), c.get("cy"))
            for c in root.iter("{http://www.w3.org/2000/svg}circle")
            if c.get("class") == "obstacle"
        ]
        assert got == [(f"{x:.6f}", f"{y:.6f}") for x, y in q.obstacles.tolist()]

    def test_deterministic(self):
        res = crossing_plan()
        assert render_svg(res) == render_svg(res)

    def test_each_segment_is_drawn_with_64_samples(self):
        # 65 points (64 chords) per segment, segments concatenated per robot.
        res = crossing_plan()
        root = ET.fromstring(render_svg(res))
        polylines = list(root.iter("{http://www.w3.org/2000/svg}polyline"))
        assert len(polylines) == res.path.robot_count
        for line, per_robot in zip(polylines, res.path.segments):
            assert len(line.get("points").split()) == 65 * len(per_robot)

    def test_arc_polyline_chord_error_bound(self):
        res = crossing_plan()
        sample_count = 64
        d = res.path.query.dim
        arcs = [row for per in path_rows(res.path) for _, _, row in per if len(row) > 2 * d]
        assert arcs
        for row in arcs:
            fields = row_fields(row, d)
            span = abs(fields["angle_end"] - fields["angle_start"])
            chord_angle = span / sample_count
            bound = fields["radius"] * chord_angle**2 / 8.0
            us = np.linspace(0.0, 1.0, sample_count + 1)
            polyline = row_at(row, d, us)
            # max distance between each chord and the arc over that chord
            for k in range(sample_count):
                a, b = polyline[k], polyline[k + 1]
                dense = row_at(row, d, np.linspace(us[k], us[k + 1], 20))
                chord_dir = (b - a) / np.linalg.norm(b - a)
                rel = dense - a
                along = rel @ chord_dir
                offset = rel - along[:, None] * chord_dir[None, :]
                deviation = float(np.linalg.norm(offset, axis=1).max())
                assert deviation <= bound + 1e-12
