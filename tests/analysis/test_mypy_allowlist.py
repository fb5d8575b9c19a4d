"""Run the mypy clean-module allowlist (mypy.ini) when mypy is
available.

The dev container does not bake mypy in, so this skips locally unless
it is installed; the CI `static-analysis` job installs mypy and runs
the same configuration, making that job the authoritative gate.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None,
    reason="mypy is not installed in this environment",
)
def test_mypy_allowlist_is_clean():
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "mypy.ini"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, (
        f"mypy allowlist regressed:\n{proc.stdout}\n{proc.stderr}"
    )


def test_allowlist_covers_the_required_modules():
    """ISSUE 8 names repro.benchops, repro.store and
    repro.client.errors as the minimum allowlist, ISSUE 13 adds the
    shape table — shrinking it is a regression even while mypy itself
    is absent locally."""
    config = (REPO_ROOT / "mypy.ini").read_text()
    for required in (
        "src/repro/benchops",
        "src/repro/store",
        "src/repro/client/errors.py",
        "src/repro/service/shapes.py",
    ):
        assert required in config, f"mypy.ini lost allowlist entry {required}"
