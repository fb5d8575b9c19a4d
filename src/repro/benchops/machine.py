"""Machine fingerprint + git provenance for bench records.

A trajectory spans months of commits and possibly several machines; a
record without "where did this number come from" is noise.  The
fingerprint is deliberately small — enough to explain a perf cliff
("oh, that entry ran on 2 cores"), not a full hardware inventory.
"""

from __future__ import annotations

import os
import platform
import subprocess


def machine_fingerprint() -> dict:
    """The executing machine, as a JSON-safe dict."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


def _git(cwd: str | None, *args: str) -> str | None:
    """``git <args>``'s stdout, or ``None`` when it fails (no git, or
    not a work tree)."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def current_git_sha(cwd: str | None = None) -> str | None:
    """The checked-out commit, or ``None`` outside a git work tree
    (records stay emittable from exported tarballs and sdists)."""
    sha = (_git(cwd, "rev-parse", "HEAD") or "").strip()
    return sha or None


def git_tree_dirty(cwd: str | None = None) -> bool | None:
    """Whether the work tree differs from its commit — a change to a
    tracked file or a file git does not ignore — or ``None`` outside a
    work tree.  A run on a dirty tree measured code no commit holds."""
    status = _git(cwd, "status", "--porcelain")
    return None if status is None else bool(status.strip())
