"""Shared fixtures."""

from __future__ import annotations

import gc
import os

import pytest

from repro.graph.td_model import build_td_graph
from repro.synthetic.instances import make_instance

from tests.helpers import toy_timetable


@pytest.fixture(scope="session", autouse=True)
def no_child_process_left_behind():
    """Servers fork search workers, table builds fork pools, tests
    spawn servers: whoever started a process has stopped and reaped it
    by the time the session ends."""
    yield
    gc.collect()  # a generation nobody closed goes with its last reference
    try:
        leftover = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test session left a child process behind: {leftover}")


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
