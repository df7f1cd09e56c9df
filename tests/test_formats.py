"""Problem parsing, plan serialization round trips, CSV and SVG output."""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from parammp import (
    ConfigurationQuery,
    QueryValidationError,
    parse_plan,
    parse_problem,
    plan,
    render_svg,
    sample_csv,
    serialize_plan,
)
from parammp.formats import ProblemDocument, ProblemOptions
from parammp.verification import MAX_SAMPLES_PER_SEGMENT
from parammp.paths import ArcMove

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


def _plan_text(**segment_fields):
    """The crossing plan's JSON with fields of robot 0's first segment replaced."""
    doc = json.loads(serialize_plan(crossing_plan()))
    doc["robots"][0]["segments"][0].update(segment_fields)
    return json.dumps(doc)


class TestParsePlan:
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


class TestSampleCsv:
    def test_header_and_shape(self):
        res = crossing_plan()
        text = sample_csv(res, resolution=16)
        lines = text.strip().split("\n")
        assert lines[0] == "t,robot,x_1,x_2,x_3"
        assert len(lines) == 1 + 17 * res.path.robot_count

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
