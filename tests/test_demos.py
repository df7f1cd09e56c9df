"""Every demo script runs to completion against the package in ``src/``.

Each runs from a copy in a temporary directory, so the files a demo writes
next to itself (``output/``) stay out of the source tree."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    copy = shutil.copy(demo, tmp_path)
    done = subprocess.run(
        [sys.executable, copy], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
