"""``scripts/stream_smoke.py`` refuses a bad argument before it prepares
anything: the usage line, exit code 2, no traceback, no store."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "scripts" / "stream_smoke.py"


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["2", "12"], "num_events: must be >= 20, got 12"),
        (["two"], "num_workers: not an integer: 'two'"),
        (["0"], "num_workers: must be >= 1, got 0"),
        (["2", "24", "3"], "unrecognized arguments: 3"),
    ],
)
def test_a_bad_argument_is_refused_before_anything_is_prepared(
    tmp_path, argv, reason
):
    env = {
        **os.environ,
        "PYTHONPATH": str(REPO_ROOT / "src"),
        "TMPDIR": str(tmp_path),
    }
    done = subprocess.run(
        [sys.executable, str(SCRIPT), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 2, done
    assert done.stderr.startswith(
        "usage: stream_smoke.py [num_workers >= 1] [num_events >= 20]"
    ), done.stderr
    assert reason in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""  # no "store prepared at …"
    assert list(tmp_path.iterdir()) == []  # no stream-smoke-* directory
