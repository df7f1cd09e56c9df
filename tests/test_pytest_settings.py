"""The test settings report a failing hypothesis test as a failure.

Warnings are errors in this suite (``pyproject.toml``).  Hypothesis imports
libcst to explain a failing example, which raises a DeprecationWarning; as
an error it turned the failure into an INTERNALERROR that ended the session
before the remaining tests ran and with no summary."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_FIRST = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_failing_hypothesis_test_is_reported_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING_FIRST)
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_failing.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1, done.stdout
    assert "1 failed, 1 passed" in done.stdout
