"""Command-line behavior: subcommands, exit codes, artifact files."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from parammp.cli import main

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


@pytest.mark.parametrize(
    "argv",
    [["verify", "--samples", "1"], ["plan", "--csv", "unused.csv", "--samples", "0"]],
)
def test_samples_below_two_is_validation_error(
    problem_file, tmp_path, capsys, monkeypatch, argv
):
    monkeypatch.chdir(tmp_path)
    assert main([argv[0], "--input", str(problem_file), *argv[1:]]) == 1
    assert "--samples: expected an integer >= 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["verify", "--samples", "4097"], ["plan", "--csv", "unused.csv", "--samples", "4097"]],
)
def test_samples_above_bound_is_validation_error(
    problem_file, tmp_path, capsys, monkeypatch, argv
):
    monkeypatch.chdir(tmp_path)
    assert main([argv[0], "--input", str(problem_file), *argv[1:]]) == 1
    assert "--samples: expected an integer >= 2 and <= 4096" in capsys.readouterr().err
    assert not (tmp_path / "unused.csv").exists()


def test_samples_option_above_bound_is_validation_error(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**PROBLEM, "options": {"samples_per_segment": 10**30}}))
    assert main(["verify", "--input", str(path)]) == 1
    assert "options.samples_per_segment: expected an integer" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflowing_desingularization_is_internal_error(tmp_path, capsys):
    # Finite coordinates near the float limit: the desingularizing shifts
    # overflow.  The user wrote no non-finite number, so this is the
    # planner's failure (exit 2), not bad input.
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
    assert main(["verify", "--input", str(path)]) == 2
    assert "internal error" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv", [["classify", "--bogus"], ["classify", "--samples", "64"], ["frobnicate"]]
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


def test_validation_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**PROBLEM, "starts": [[1.0, 0.0, 0.0]]}))
    assert main(["plan", "--input", str(bad)]) == 1
    assert "coincides" in capsys.readouterr().err


def test_syntax_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", "--input", str(bad)]) == 1


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


def test_internal_failure_exit_code(problem_file, monkeypatch, capsys):
    from parammp.verification import SeparationCertificate, PairSeparation

    def failing_certificate(path, samples_per_segment=64):
        return SeparationCertificate(
            pairs=(
                PairSeparation(
                    kind="robot-obstacle",
                    first=0,
                    second=0,
                    sampled_min=0.0,
                    certified_lower_bound=-1.0,
                    samples_per_segment=samples_per_segment,
                ),
            ),
            samples_per_segment=samples_per_segment,
        )

    monkeypatch.setattr("parammp.cli.certify_separation", failing_certificate)
    assert main(["verify", "--input", str(problem_file)]) == 2


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "parammp.cli", "components", "2", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "288"
