"""Problem parsing, plan serialization round trips, CSV and SVG output."""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings

from parammp import (
    ConfigurationQuery,
    FrameMode,
    PlanResult,
    QueryValidationError,
    certify_separation,
    classify,
    make_frame,
    parse_plan,
    parse_problem,
    plan,
    random_query,
    render_svg,
    sample_csv,
    serialize_plan,
)
from parammp.formats import ProblemDocument, ProblemOptions
from parammp.verification import MAX_SAMPLES_PER_SEGMENT
from parammp.paths import ArcMove, LinearMove
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

    def test_round_trip_identity(self):
        doc = ProblemDocument(
            version="1",
            dim=3,
            mode="fixed",
            starts=((0.0, 1.0, 0.0),),
            goals=((2.0, 0.0, 1.0),),
            obstacles=((1.0, 0.0, 0.0), (3.0, 0.0, 0.0)),
            options=ProblemOptions(snap_tolerance=0.0, samples_per_segment=64),
        )
        assert parse_problem(doc.to_json()) == doc

    def test_round_trip_property_on_random_documents(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            n, m, d = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(2, 5))
            doc = ProblemDocument(
                version="1",
                dim=d,
                mode=None,
                starts=tuple(tuple(float(x) for x in row) for row in rng.uniform(-9, 9, (n, d))),
                goals=tuple(tuple(float(x) for x in row) for row in rng.uniform(-9, 9, (n, d))),
                obstacles=tuple(tuple(float(x) for x in row) for row in rng.uniform(-9, 9, (m, d))),
                options=ProblemOptions(
                    snap_tolerance=float(rng.uniform(0, 1e-6)),
                    samples_per_segment=int(rng.integers(2, 128)),
                ),
            )
            assert parse_problem(doc.to_json()) == doc

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
        "token",
        ["NaN", "Infinity", "-Infinity", "1" + "0" * 400, "-1"],
        ids=["nan", "inf", "-inf", "huge-integer", "negative"],
    )
    def test_snap_tolerance_must_be_finite_and_non_negative(self, token):
        text = json.dumps({**MINIMAL, "options": {"snap_tolerance": 0.5}})
        with pytest.raises(QueryValidationError) as exc:
            parse_problem(text.replace("0.5", token))
        assert "options.snap_tolerance: expected a finite number >= 0" in str(exc.value)

    @pytest.mark.parametrize("samples", [4097, 10**30])
    def test_samples_per_segment_above_bound_rejected(self, samples):
        text = json.dumps({**MINIMAL, "options": {"samples_per_segment": samples}})
        with pytest.raises(QueryValidationError) as exc:
            parse_problem(text)
        assert f"<= {MAX_SAMPLES_PER_SEGMENT}, got {samples}" in str(exc.value)
        bound = json.dumps({**MINIMAL, "options": {"samples_per_segment": 4096}})
        assert parse_problem(bound).options.samples_per_segment == 4096


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

    def test_round_trip_evaluation_matches(self):
        res = crossing_plan()
        rebuilt = parse_plan(serialize_plan(res))
        for t in np.linspace(0, 1, 97):
            original = res.path.configuration(float(t))
            again = rebuilt.configuration(float(t))
            assert np.max(np.abs(original - again)) <= 1e-12

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

    def segment(seg):
        doc = {"t0": fraction(seg.t0), "t1": fraction(seg.t1)}
        if isinstance(seg.move, LinearMove):
            doc["kind"] = "linear"
            doc["start"] = points(seg.move.start)
            doc["end"] = points(seg.move.end)
        else:
            doc["kind"] = "arc"
            doc["center"] = points(seg.move.center)
            doc["radius"] = float(seg.move.radius)
            doc["basis_u"] = points(seg.move.basis_u)
            doc["basis_v"] = points(seg.move.basis_v)
            doc["angle_start"] = float(seg.move.angle_start)
            doc["angle_end"] = float(seg.move.angle_end)
        return doc

    query = result.path.query
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
            {"robot": robot, "segments": [segment(seg) for seg in result.path.segments[robot]]}
            for robot in range(query.robot_count)
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

    def test_twenty_robots_twenty_obstacles(self):
        result = plan(random_query(np.random.default_rng(0), 20, 20, 3), mode="fixed")
        assert serialize_plan(result) == _reference_plan_text(result)


def _plan_text(**segment_fields):
    """The crossing plan's JSON with fields of robot 0's first segment replaced."""
    doc = json.loads(serialize_plan(crossing_plan()))
    doc["robots"][0]["segments"][0].update(segment_fields)
    return json.dumps(doc)


def _mixed_denominator_plan():
    """A hand-written plan whose bounds have denominators 5, 4 and 3: robot 0
    rests, rises, swings over a half circle and moves right; robot 1 rises
    and rests."""

    def line(t0, t1, start, end):
        return {"t0": t0, "t1": t1, "kind": "linear", "start": start, "end": end}

    arc = {
        "t0": "2/5", "t1": "3/4", "kind": "arc", "center": [0.5, 3.0], "radius": 0.5,
        "basis_u": [-1.0, 0.0], "basis_v": [0.0, 1.0],
        "angle_start": 0.0, "angle_end": 3.141592653589793,
    }
    robot_0 = [
        line("0/1", "1/5", [0.0, 2.0], [0.0, 2.0]),
        line("1/5", "2/5", [0.0, 2.0], [0.0, 3.0]),
        arc,
        line("3/4", "1/1", [1.0, 3.0], [2.0, 3.0]),
    ]
    robot_1 = [
        line("0/1", "1/3", [3.0, -1.0], [3.0, 1.0]),
        line("1/3", "1/1", [3.0, 1.0], [3.0, 1.0]),
    ]
    return {
        "starts": [[0.0, 2.0], [3.0, -1.0]],
        "goals": [[2.0, 3.0], [3.0, 1.0]],
        "obstacles": [[0.0, -2.0], [5.0, 5.0]],
        "robots": [{"robot": 0, "segments": robot_0}, {"robot": 1, "segments": robot_1}],
    }


# (sampled_min, certified_lower_bound) per pair of the mixed-denominator
# plan, as the certifier gave them when it read bounds as Fractions.
_MIXED_BOUNDS = [
    ("0x1.1e3779b97f4a8p+1", "0x1.1e3779b97f474p+1"),
    ("0x1.0000000000000p+2", "0x1.fffffffffffd8p+1"),
    ("0x1.cd82b446159f3p+1", "0x1.cd82b446159acp+1"),
    ("0x1.94c583ada5b53p+1", "0x1.94c583ada5b11p+1"),
    ("0x1.1e3779b97f4a8p+2", "0x1.1e3779b97f47ap+2"),
]


class TestParsePlan:
    def test_mixed_denominators_parse_certify_and_reserialize(self):
        doc = _mixed_denominator_plan()
        path = parse_plan(json.dumps(doc))
        assert path.den == 60
        for samples in (2, 64):
            cert = certify_separation(path, samples_per_segment=samples)
            got = [(p.sampled_min.hex(), p.certified_lower_bound.hex()) for p in cert.pairs]
            assert got == _MIXED_BOUNDS
        frame = make_frame(path.query, FrameMode.FIXED)
        result = PlanResult(
            path=path, region=classify(path.query, frame), swaps=(), mode=FrameMode.FIXED,
            frame=frame,
        )
        again = json.loads(serialize_plan(result))

        def bounds(document):
            return [[(s["t0"], s["t1"]) for s in r["segments"]] for r in document["robots"]]

        assert bounds(again) == bounds(doc)

    @pytest.mark.parametrize(
        "robot, index, field, message",
        [
            (1, 1, "start", "robot 1 is discontinuous at t=1/3"),
            (0, 0, "start", "robot 0 is discontinuous at its start"),
            (1, 1, "end", "robot 1 is discontinuous at its goal"),
        ],
    )
    def test_junction_errors_name_the_robot_and_the_time(self, robot, index, field, message):
        doc = _mixed_denominator_plan()
        doc["robots"][robot]["segments"][index][field] = [3.0, float("nan")]
        with pytest.raises(QueryValidationError, match=message):
            parse_plan(json.dumps(doc))

    @pytest.mark.parametrize(
        "t0, t1",
        [("0/1", "1/0"), ("1/5", "0/1"), ("-1/3", "1/5")],
        ids=["zero-denominator", "reversed-window", "negative"],
    )
    def test_bad_bounds_rejected(self, t0, t1):
        doc = _mixed_denominator_plan()
        doc["robots"][0]["segments"][0].update(t0=t0, t1=t1)
        with pytest.raises(QueryValidationError, match="plan document"):
            parse_plan(json.dumps(doc))

    @pytest.mark.parametrize(
        "text",
        [
            '{"starts": [[0, 0]]}',
            "[1]",
            _plan_text(t0="1/0"),
            _plan_text(kind="spline"),
        ],
        ids=["missing-field", "not-an-object", "zero-denominator", "unknown-kind"],
    )
    def test_malformed_document_raises_validation_error(self, text):
        with pytest.raises(QueryValidationError, match="plan document"):
            parse_plan(text)

    def test_nesting_too_deep_rejected(self):
        with pytest.raises(QueryValidationError, match="plan document: RecursionError"):
            parse_plan("[" * 100_000 + "]" * 100_000)

    def test_robot_entry_out_of_place_rejected(self):
        doc = json.loads(serialize_plan(crossing_plan()))
        doc["robots"][0]["robot"] = 7
        with pytest.raises(QueryValidationError, match="robots\\[0\\] names robot 7"):
            parse_plan(json.dumps(doc))

    def test_nan_endpoint_rejected(self):
        doc = json.loads(serialize_plan(crossing_plan()))
        first, second = doc["robots"][0]["segments"][:2]
        first["end"][0] = second["start"][0] = float("nan")
        with pytest.raises(QueryValidationError, match="discontinuous"):
            parse_plan(json.dumps(doc))

    def test_cut_segment_point_rejected(self):
        # both ends of the junction are cut, so the segments still chain
        doc = json.loads(serialize_plan(crossing_plan()))
        first, second = doc["robots"][0]["segments"][:2]
        first["end"] = first["end"][:1]
        second["start"] = second["start"][:1]
        with pytest.raises(
            QueryValidationError,
            match=r"robots\[0\] segments\[0\] end: expected 3 coordinates",
        ):
            parse_plan(json.dumps(doc))

    @pytest.mark.parametrize("field", ["center", "basis_u", "basis_v"])
    def test_arc_point_of_other_dimension_rejected(self, field):
        doc = json.loads(serialize_plan(crossing_plan()))
        arc = doc["robots"][0]["segments"][2]
        assert arc["kind"] == "arc"
        arc[field] = arc[field] + [0.0]
        with pytest.raises(
            QueryValidationError,
            match=rf"robots\[0\] segments\[2\] {field}: expected 3 coordinates",
        ):
            parse_plan(json.dumps(doc))

    def test_nan_arc_radius_rejected(self):
        doc = json.loads(serialize_plan(crossing_plan()))
        arc = doc["robots"][0]["segments"][2]
        assert arc["kind"] == "arc"
        arc["radius"] = float("nan")
        with pytest.raises(QueryValidationError, match="radius"):
            parse_plan(json.dumps(doc))


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

    def test_deterministic(self):
        res = crossing_plan()
        assert render_svg(res) == render_svg(res)

    @pytest.mark.parametrize("sample_count", [0, -1])
    def test_sample_count_below_one_rejected(self, sample_count):
        with pytest.raises(QueryValidationError, match="sample_count: expected an integer >= 1"):
            render_svg(crossing_plan(), sample_count=sample_count)

    @pytest.mark.parametrize("sample_count", [2.5, "8", MAX_SAMPLES_PER_SEGMENT + 1])
    def test_sample_count_not_an_integer_in_range_rejected(self, sample_count):
        with pytest.raises(QueryValidationError, match="sample_count: expected an integer"):
            render_svg(crossing_plan(), sample_count=sample_count)

    def test_arc_polyline_chord_error_bound(self):
        res = crossing_plan()
        sample_count = 64
        arcs = res.path.arc_segments()
        assert arcs
        for seg in arcs:
            move = seg.move
            assert isinstance(move, ArcMove)
            span = abs(move.angle_end - move.angle_start)
            chord_angle = span / sample_count
            bound = move.radius * chord_angle**2 / 8.0
            us = np.linspace(0.0, 1.0, sample_count + 1)
            polyline = move.at_many(us)
            # max distance between each chord and the arc over that chord
            for k in range(sample_count):
                a, b = polyline[k], polyline[k + 1]
                dense = move.at_many(np.linspace(us[k], us[k + 1], 20))
                chord_dir = (b - a) / np.linalg.norm(b - a)
                rel = dense - a
                along = rel @ chord_dir
                offset = rel - along[:, None] * chord_dir[None, :]
                deviation = float(np.linalg.norm(offset, axis=1).max())
                assert deviation <= bound + 1e-12
