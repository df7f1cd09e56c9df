"""README.md's examples run: every ``python`` block, in order in one
namespace, and each ``parammp`` line of the CLI section's ``sh`` block
through ``parammp.cli.main``, on the problem JSON that section shows."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from parammp.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(text, language):
    return re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


CLI_SECTION = README.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
(PROBLEM,) = _blocks(CLI_SECTION, "json")
(COMMANDS,) = _blocks(CLI_SECTION, "sh")
CLI_LINES = [line for line in COMMANDS.splitlines() if line.startswith("parammp ")]


def test_python_blocks_run():
    blocks = _blocks(README, "python")
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_cli_section_has_a_line_per_command():
    commands = {shlex.split(line)[1] for line in CLI_LINES}
    assert commands == {"plan", "classify", "verify", "components"}


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "problem.json").write_text(PROBLEM, encoding="utf-8")
    assert main(shlex.split(line, comments=True)[1:]) == 0, capsys.readouterr().err
