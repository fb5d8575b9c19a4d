"""The one serial-or-fork-pool dispatch (:mod:`repro.core.fanout`)."""

import os
import signal
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import fanout
from repro.core.fanout import BACKENDS, fan_out

from tests.helpers import run_in_own_group


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


def test_fan_out_inside_a_pool_worker_runs_serially():
    """Pool workers are daemonic and may not fork: a fan-out that lands
    in one falls back to the loop instead of dying in ``Pool()``."""

    def nested(x):
        inner = fan_out(
            lambda y: (os.getpid(), x + y), [1, 2, 3], backend="processes",
            workers=2,
        )
        return os.getpid(), inner.backend, inner.results

    run = fan_out(nested, [10, 20], backend="processes", workers=2)
    for x, (pid, backend, results) in zip([10, 20], run.results):
        assert pid != os.getpid()
        assert backend == "serial"
        assert results == [(pid, x + y) for y in (1, 2, 3)]


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here"
)
def test_usable_cores_is_the_affinity_mask():
    allowed = os.sched_getaffinity(0)
    assert fanout.usable_cores() == len(allowed)
    try:
        os.sched_setaffinity(0, {min(allowed)})
        assert fanout.usable_cores() == 1
    finally:
        os.sched_setaffinity(0, allowed)


@pytest.mark.parametrize(
    "send",
    [
        pytest.param(signal.SIGTERM, id="SIGTERM-to-parent"),
        pytest.param(
            lambda group: os.killpg(group, signal.SIGINT), id="SIGINT-to-group"
        ),
    ],
)
def test_raising_signal_handler_unwinds_through_a_live_pool(send):
    """``repro prepare``'s shape: the parent's SIGINT/SIGTERM handler
    raises.  Forked workers inherit it, so without the pool initializer
    ``Pool.terminate()``'s SIGTERM is raised *inside the worker's task*,
    reported as a task error, the worker lives on and the ``with Pool``
    never returns."""
    returncode, stdout, stderr = run_in_own_group(
        """
        import multiprocessing as mp, signal, sys, time
        from repro.core import fanout

        class Interrupted(Exception):
            pass

        def handler(signum, frame):
            raise Interrupted(signum)

        signal.signal(signal.SIGTERM, handler)
        signal.signal(signal.SIGINT, handler)
        print("ready", flush=True)
        try:
            fanout.fan_out(
                lambda x: time.sleep(0.05), list(range(2000)),
                backend="processes", workers=2,
            )
        except Interrupted:
            print(len(fanout._FORK_FNS), len(mp.active_children()))
            sys.exit(130)
        sys.exit("the fan-out finished before the signal")
        """,
        send=send,
        timeout=5.0,
    )
    assert returncode == 130, stderr
    assert stdout.split() == ["0", "0"]
    assert stderr == ""


def test_pools_under_an_event_loops_signal_handlers_return_quietly():
    """``repro serve``'s shape: the loop owns SIGTERM (a no-op Python
    handler plus a wake-up fd) and a batch forks from an executor
    thread.  Workers that inherit both either swallow
    ``Pool.terminate()``'s SIGTERM — the fan-out never returns — or
    write it to the wake-up fd they share with the parent, whose loop
    then runs its own "stop serving" callback.  Which one is a race,
    hence several rounds."""
    returncode, stdout, stderr = run_in_own_group(
        """
        import asyncio, signal
        from repro.core import fanout

        async def main():
            loop = asyncio.get_running_loop()
            stops = []
            loop.add_signal_handler(signal.SIGTERM, stops.append, "TERM")
            for _ in range(8):
                run = await loop.run_in_executor(
                    None,
                    lambda: fanout.fan_out(
                        abs, [-1, -2, -3, -4], backend="processes", workers=2
                    ),
                )
                assert run == ([1, 2, 3, 4], "processes", run.spinup_seconds)
                await asyncio.sleep(0.05)
            print(stops)

        asyncio.run(main())
        """,
        timeout=20.0,
    )
    assert (returncode, stderr) == (0, "")
    assert stdout.strip() == "[]"
