"""Command-line behavior: subcommands, exit codes, artifact files."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings

import parammp
from parammp import plan, serialize_plan
from parammp.cli import main
from parammp.verification import PairSeparation, SeparationCertificate
from query_strategies import small_queries

PROBLEM = {
    "version": "1",
    "dim": 3,
    "starts": [[0.0, 1.0, 0.0]],
    "goals": [[2.0, 0.0, 1.0]],
    "obstacles": [[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]],
}


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(PROBLEM))
    return path


def test_plan_writes_json_and_artifacts(problem_file, tmp_path, capsys):
    out = tmp_path / "plan.json"
    svg = tmp_path / "plan.svg"
    csv = tmp_path / "plan.csv"
    code = main(
        [
            "plan",
            "--input",
            str(problem_file),
            "--mode",
            "fixed",
            "--output",
            str(out),
            "--svg",
            str(svg),
            "--csv",
            str(csv),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["region"]["c"] == 4
    assert svg.read_text().startswith("<?xml")
    assert csv.read_text().startswith("t,robot,")


def test_plan_to_stdout(problem_file, capsys):
    assert main(["plan", "--input", str(problem_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["swap_count"] == 1


def test_classify_reports_region(problem_file, capsys):
    assert main(["classify", "--input", str(problem_file), "--mode", "fixed"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["region"] == {"j": 2, "t": 2, "c": 4}


def test_verify_passes(problem_file, capsys):
    assert main(["verify", "--input", str(problem_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["separation"]["passed"] is True
    assert report["obstacles_stationary"] is True


@pytest.mark.parametrize("samples", ["0", "-1", "4097"])
def test_samples_out_of_range_is_validation_error(
    problem_file, tmp_path, capsys, monkeypatch, samples
):
    monkeypatch.chdir(tmp_path)
    argv = ["plan", "--input", str(problem_file), "--csv", "unused.csv", "--samples", samples]
    assert main(argv) == 1
    assert "--samples: expected an integer >= 1 and <= 4096" in capsys.readouterr().err
    assert not (tmp_path / "unused.csv").exists()


def test_one_sample_per_unit_time_gives_both_ends(problem_file, tmp_path, capsys):
    csv = tmp_path / "plan.csv"
    argv = ["plan", "--input", str(problem_file), "--csv", str(csv), "--samples", "1"]
    assert main(argv) == 0
    header, *rows = csv.read_text().strip().split("\n")
    assert header == "t,robot,x_1,x_2,x_3"
    assert [row.split(",")[:2] for row in rows] == [["0.0", "0"], ["1.0", "0"]]


def test_samples_option_above_bound_is_validation_error(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**PROBLEM, "options": {"samples_per_segment": 10**30}}))
    assert main(["verify", "--input", str(path)]) == 1
    assert "options.samples_per_segment: expected an integer" in capsys.readouterr().err


def test_overflowing_coordinates_are_validation_error(tmp_path, capsys):
    # Finite coordinates near the float limit, whose desingularizing shifts
    # would overflow: plan rejects them up front as bad input, naming the
    # bound, before any arithmetic can warn.
    path = tmp_path / "problem.json"
    path.write_text(
        json.dumps(
            {
                "version": "1",
                "dim": 2,
                "starts": [[1e308, 0], [-1e308, 1]],
                "goals": [[-1e308, 0], [1e308, 1]],
                "obstacles": [[0, 5]],
            }
        )
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", "--input", str(path)]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "must not exceed 1e+150 in magnitude" in capsys.readouterr().err


@pytest.mark.parametrize(
    "obstacles, region",
    [
        ([[-1.7e308, 0.0], [1.7e308, 0.0]], {"j": 2, "t": 2, "c": 4}),
        ([[-1.7e308, -1.7e308], [1.7e308, 1.7e308]], None),
    ],
    ids=["difference-overflows", "comparison-value-overflows"],
)
def test_classify_far_obstacle_pair(tmp_path, capsys, obstacles, region):
    # o1 - o0 overflows: classify labels from the obstacles' halves, as the
    # exact oracle does, or refuses a comparison value that overflows by
    # name; never a traceback or a RuntimeWarning (warnings are errors here)
    path = tmp_path / "problem.json"
    path.write_text(
        json.dumps(
            {
                "version": "1",
                "dim": 2,
                "mode": "obstacle-pair",
                "starts": [[0.0, 1.0]],
                "goals": [[2.0, 0.0]],
                "obstacles": obstacles,
            }
        )
    )
    if region is None:
        assert main(["classify", "--input", str(path)]) == 1
        assert "a comparison value along the frame's axis overflows" in capsys.readouterr().err
    else:
        assert main(["classify", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["region"] == region


# Valid and generic, but the two starts project one subnormal apart: the
# Case A arc's radius, half of that gap, rounds to 0.
ZERO_RADIUS_PROBLEM = {
    "version": "1",
    "dim": 2,
    "starts": [[0.0, 0.0], [5e-324, 1.0]],
    "goals": [[2.0, 3.0], [1.0, 4.0]],
    "obstacles": [[7.0, 0.0]],
}


@pytest.mark.parametrize("command", ["plan", "verify"])
def test_zero_radius_arc_is_internal_error(tmp_path, capsys, command):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(ZERO_RADIUS_PROBLEM))
    assert main([command, "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "robot 0 has an invalid arc at t=1/6: arc radius must be positive" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["classify", "verify"])
@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_coordinate_is_validation_error(tmp_path, capsys, command, token):
    # Python's json reads these tokens as float nan and +-inf
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(PROBLEM).replace("[0.0, 1.0, 0.0]", f"[{token}, 1.0, 0.0]"))
    assert main([command, "--input", str(path)]) == 1
    assert "starts[0] has a non-finite coordinate" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify", "verify"])
@pytest.mark.parametrize(
    "old, new, message",
    [
        ("[0.0, 1.0, 0.0]", "[1" + "0" * 400 + ", 1.0, 0.0]", "beyond float range"),
        ('"dim": 3', '"dim": 3, "options": {"snap_tolerance": NaN}', "snap_tolerance"),
        ('"dim": 3', '"dim": 3, "options": {"snap_tolerance": Infinity}', "snap_tolerance"),
    ],
    ids=["huge-coordinate", "nan-snap", "infinite-snap"],
)
def test_number_a_float_cannot_hold_is_validation_error(
    tmp_path, capsys, command, old, new, message
):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(PROBLEM).replace(old, new))
    assert main([command, "--input", str(path)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify", "verify"])
@pytest.mark.parametrize(
    "old, new",
    [
        ('"dim": 3', '"dim": @'),
        ('"version": "1"', '"version": @'),
        ('"dim": 3', '"dim": 3, "mode": @'),
        ('"dim": 3', '"dim": 3, "options": {"snap_tolerance": @}'),
        ("[0.0, 1.0, 0.0]", "[@, 1.0, 0.0]"),
    ],
    ids=["dim", "version", "mode", "option", "coordinate"],
)
def test_nesting_too_deep_in_a_field_is_validation_error(tmp_path, capsys, command, old, new):
    path = tmp_path / "problem.json"
    deep = "[" * 100_000 + "]" * 100_000
    path.write_text(json.dumps(PROBLEM).replace(old, new.replace("@", deep)))
    assert main([command, "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: JSON nesting error: ") and "Traceback" not in err


def test_snap_tolerance_is_classify_only(tmp_path, capsys):
    # classify reports the snapped label (the start at 0.16 ties to the
    # obstacle through the start at 0.08); plan and verify are exact and
    # refuse the option rather than plan a query other than the one labelled.
    path = tmp_path / "problem.json"
    path.write_text(
        json.dumps(
            {
                "version": "1",
                "dim": 2,
                "starts": [[0.08, 1.0], [0.16, 2.0]],
                "goals": [[5.0, 1.0], [6.0, 1.0]],
                "obstacles": [[0.0, 0.0]],
                "options": {"snap_tolerance": 0.1},
            }
        )
    )
    assert main(["classify", "--input", str(path), "--mode", "fixed"]) == 0
    assert json.loads(capsys.readouterr().out)["region"] == {"j": 2, "t": 1, "c": 3}
    for command in ("plan", "verify"):
        assert main([command, "--input", str(path)]) == 1
        assert "options.snap_tolerance must be 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--bogus"],
        ["classify", "--samples", "64"],
        ["verify", "--samples", "64"],
        ["frobnicate"],
    ],
)
def test_usage_error_exit_code(problem_file, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--input", str(problem_file)])
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_components_exact(capsys):
    assert main(["components", "5", "3"]) == 0
    assert capsys.readouterr().out.strip() == "270950400"


def test_components_rejects_zero(capsys):
    assert main(["components", "0", "3"]) == 1


@pytest.mark.parametrize("n, m", [("1000", "1000"), ("100000000", "1")])
def test_components_too_long_to_print_is_validation_error(capsys, n, m):
    # the count must be rejected before any factorial is computed: 10**8!
    # alone would take far longer than this bound
    began = time.perf_counter()
    assert main(["components", n, m]) == 1
    assert time.perf_counter() - began < 5.0
    assert "more than" in capsys.readouterr().err


def test_validation_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**PROBLEM, "starts": [[1.0, 0.0, 0.0]]}))
    assert main(["plan", "--input", str(bad)]) == 1
    assert "coincides" in capsys.readouterr().err


def test_syntax_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", "--input", str(bad)]) == 1


@pytest.mark.parametrize("command", ["classify", "verify"])
@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
    ids=["not-utf8", "nested-too-deep"],
)
def test_malformed_file_is_validation_error(tmp_path, capsys, command, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main([command, "--input", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_non_utf8_error_names_the_file(tmp_path, capsys):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["classify", "--input", str(bad)]) == 1
    assert str(bad) in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["plan", "--input", "/nonexistent/problem.json"]) == 1


def test_directory_input_exit_code(tmp_path, capsys):
    assert main(["verify", "--input", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_mode_unsupported_exit_code(tmp_path, capsys):
    doc = dict(PROBLEM)
    doc["mode"] = "obstacle-pair"  # d = 3 is odd
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    assert main(["plan", "--input", str(path)]) == 1


def _failing_certificate(path):
    return SeparationCertificate(
        pairs=(
            PairSeparation(
                kind="robot-obstacle",
                first=0,
                second=1,
                sampled_min=0.5,
                certified_lower_bound=-1.0,
            ),
            PairSeparation(
                kind="robot-obstacle",
                first=0,
                second=0,
                sampled_min=2.0,
                certified_lower_bound=1.0,
            ),
        ),
    )


def test_internal_failure_exit_code(problem_file, monkeypatch, capsys):
    monkeypatch.setattr("parammp.cli.certify_separation", _failing_certificate)
    assert main(["verify", "--input", str(problem_file)]) == 2


def test_plan_that_does_not_certify_writes_nothing(problem_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("parammp.cli.certify_separation", _failing_certificate)
    files = {flag: tmp_path / f"plan.{flag}" for flag in ("output", "svg", "csv")}
    argv = ["plan", "--input", str(problem_file)]
    for flag, path in files.items():
        argv += [f"--{flag}", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: plan: the path does not certify: robot-obstacle pair (0, 1) "
        "has sampled_min 0.5 and certified lower bound -1.0\n"
    )
    assert [path for path in files.values() if path.exists()] == []


def _same_exit_code(problem, directory):
    """The exit codes of plan and verify on ``problem``, and the plan file."""
    source, output = Path(directory) / "problem.json", Path(directory) / "plan.json"
    source.write_text(json.dumps(problem))
    output.unlink(missing_ok=True)
    planned = main(["plan", "--input", str(source), "--output", str(output)])
    verified = main(["verify", "--input", str(source), "--output", os.devnull])
    assert planned == verified
    assert output.exists() == (planned == 0)
    return planned, output


def test_plan_and_verify_agree_on_near_grid_draw_2503(tmp_path, capsys):
    # Draw 2503 of tests/near_grid.py seed-11: the plan's Case B drop lands
    # on obstacle 1 (sampled_min 0.0, bound -1.09e-14), so its certificate
    # fails, and plan refuses the path that verify fails.  Both exit 0 once
    # the drop keeps off the frame obstacle (ROADMAP item 13).
    problem = {
        "version": "1",
        "dim": 2,
        "mode": "obstacle-pair",
        "starts": [[-0.999999999999, -2.499999999999999]],
        "goals": [[2.5000000000003, 1e-12]],
        "obstacles": [[1e-15, 1e-15], [0.0, -2.499999999999999], [-0.999999999999999, 3.0000000000003]],
    }
    code, _ = _same_exit_code(problem, tmp_path)
    assert code in (0, 2)


@settings(max_examples=60, deadline=None)
@given(small_queries())
def test_cli_gates_a_plan_and_never_changes_it(case):
    # plan and verify exit alike, and a plan that passes is written as the
    # library serializes it, byte for byte
    query, mode = case
    problem = {
        "version": "1",
        "dim": query.dim,
        "mode": mode.value,
        "starts": query.starts.tolist(),
        "goals": query.goals.tolist(),
        "obstacles": query.obstacles.tolist(),
    }
    with tempfile.TemporaryDirectory() as directory:
        code, output = _same_exit_code(problem, directory)
        if code == 0:
            assert output.read_text() == serialize_plan(plan(query, mode))


def _run_module(*args):
    # The child imports the package under test, installed or not.
    package_root = str(Path(parammp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_script_smoke():
    proc = _run_module("parammp.cli", "components", "2", "2")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "288"


def test_package_runs_as_module(problem_file):
    proc = _run_module("parammp", "verify", "--input", str(problem_file))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True
