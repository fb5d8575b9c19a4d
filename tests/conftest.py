"""Shared fixtures."""

from __future__ import annotations

import gc
import os
from pathlib import Path

import pytest

from repro.graph.td_model import build_td_graph
from repro.synthetic.instances import make_instance

from tests.helpers import toy_timetable


@pytest.fixture(scope="session", autouse=True)
def no_child_process_left_behind(request):
    """Servers fork search workers, table builds fork pools, tests
    spawn servers: whoever started a process has stopped and reaped it
    by the time the session ends.  The failure names what is left."""
    yield
    gc.collect()  # a generation nobody closed goes with its last reference
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    found = []
    if pid:
        found.append(
            f"pid {pid} had exited (code {os.waitstatus_to_exitcode(status)}) "
            f"and was never reaped"
        )
    for pid in _children():
        found.append(f"pid {pid}: {_describe(pid)}")
    message = "the test session left child processes behind:\n  " + (
        "\n  ".join(found) or "(gone before they could be named)"
    )
    if request.session.testsfailed:
        message += (
            f"\n{request.session.testsfailed} test(s) failed; a failed "
            f"test's traceback may hold what started them"
        )
    pytest.fail(message)


def _children() -> list[int]:
    """The pids of this process's children, from every thread's
    ``/proc/self/task/<tid>/children``."""
    return sorted(
        {
            int(pid)
            for task in Path("/proc/self/task").iterdir()
            for pid in _read(task / "children").split()
        }
    )


def _describe(pid: int) -> str:
    """A child's command line, or that it exited and was not reaped."""
    state = _read(Path(f"/proc/{pid}/stat")).rpartition(")")[2].split()[:1]
    if state == ["Z"]:
        return "exited, not reaped"
    command = _read(Path(f"/proc/{pid}/cmdline")).replace("\0", " ").strip()
    return command or "(no command line)"


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError:  # gone between the listing and the read
        return ""


@pytest.fixture(scope="session")
def toy():
    """The hand-checkable 4-station network (see tests.helpers)."""
    return toy_timetable()


@pytest.fixture(scope="session")
def toy_graph(toy):
    return build_td_graph(toy)


@pytest.fixture(scope="session")
def oahu_tiny():
    """Small dense bus instance shared across integration tests."""
    return make_instance("oahu", scale="tiny")


@pytest.fixture(scope="session")
def oahu_tiny_graph(oahu_tiny):
    return build_td_graph(oahu_tiny)


@pytest.fixture(scope="session")
def germany_tiny():
    """Small sparse rail instance."""
    return make_instance("germany", scale="tiny")


@pytest.fixture(scope="session")
def germany_tiny_graph(germany_tiny):
    return build_td_graph(germany_tiny)
