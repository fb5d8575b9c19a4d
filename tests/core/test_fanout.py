"""The one serial-or-fork-pool dispatch (:mod:`repro.core.fanout`)."""

import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import fanout
from repro.core.fanout import BACKENDS, fan_out


@pytest.mark.parametrize("backend", BACKENDS)
def test_results_in_item_order_from_a_closure(backend):
    """``fn`` is inherited by the workers, never pickled: a closure over
    local state works on every backend."""
    offset = 100
    run = fan_out(
        lambda x: x * x + offset, list(range(20)), backend=backend, workers=3
    )
    assert run.results == [x * x + offset for x in range(20)]
    assert run.backend == backend
    assert (run.spinup_seconds > 0) == (backend == "processes")


def test_processes_runs_in_forked_children():
    run = fan_out(
        lambda _: os.getpid(), [0, 1, 2, 3], backend="processes", workers=2
    )
    assert os.getpid() not in run.results


@pytest.mark.parametrize("items", ([], ["only"]))
def test_at_most_one_item_runs_serially(items):
    run = fan_out(
        lambda x: (x, os.getpid()), items, backend="processes", workers=4
    )
    assert run == ([(x, os.getpid()) for x in items], "serial", 0.0)


@pytest.mark.parametrize("backend", ["threads", "gpu"])
def test_unknown_backend_rejected(backend):
    with pytest.raises(ValueError, match="backend"):
        fan_out(abs, [1, 2], backend=backend, workers=2)


def test_a_failing_item_raises_and_leaves_no_state():
    def fn(x):
        if x == 2:
            raise KeyError("boom")
        return x

    for backend in BACKENDS:
        with pytest.raises(KeyError, match="boom"):
            fan_out(fn, [1, 2, 3], backend=backend, workers=2)
    assert fanout._FORK_FNS == {}


def test_concurrent_fan_outs_each_call_their_own_function():
    def one(tag):
        return fan_out(
            lambda x: (tag, x), list(range(8)), backend="processes", workers=2
        ).results

    with ThreadPoolExecutor(max_workers=4) as pool:
        got = list(pool.map(one, range(8)))
    assert got == [[(tag, x) for x in range(8)] for tag in range(8)]
    assert fanout._FORK_FNS == {}
