"""The one serial-or-forked-children dispatch (:mod:`repro.core.fanout`).
One mechanism, ``ForkPool``, with two lifetimes — forked for one call
(``fan_out``) or kept (a served generation): what the two share is
tested once, over both (``LIFETIMES``)."""

import asyncio
import os
import re
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro.core import fanout
from repro.core.fanout import BACKENDS, ForkPool, WorkerLost, fan_out

from tests.helpers import (
    child_alive,
    children_of,
    process_state,
    run_in_own_group,
)
from tests.server.harness import wait_until


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
    assert run == ([(x, os.getpid()) for x in items], "serial")


@pytest.mark.parametrize("backend", ["threads", "gpu"])
def test_unknown_backend_rejected(backend):
    with pytest.raises(ValueError, match="backend"):
        fan_out(abs, [1, 2], backend=backend, workers=2)


def test_a_failing_item_raises_and_leaves_no_state():
    def fn(x):
        if x == 2:
            raise KeyError("boom")
        return x

    children = children_of(os.getpid())
    for backend in BACKENDS:
        with pytest.raises(KeyError, match="boom") as caught:
            fan_out(fn, [1, 2, 3], backend=backend, workers=2)
        # ``caught`` holds the traceback and with it fan_out's frame:
        # the pool was closed there, not left to the collector.
        assert children_of(os.getpid()) == children


def test_concurrent_fan_outs_each_call_their_own_function():
    def one(tag):
        return fan_out(
            lambda x: (tag, x), list(range(8)), backend="processes", workers=2
        ).results

    with ThreadPoolExecutor(max_workers=4) as pool:
        got = list(pool.map(one, range(8)))
    assert got == [[(tag, x) for x in range(8)] for tag in range(8)]


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


def test_pool_size_is_one_worker_per_usable_core_at_most(monkeypatch):
    monkeypatch.setattr(fanout, "usable_cores", lambda: 2)
    assert [fanout.pool_size(n) for n in (1, 2, 3, 8)] == [1, 2, 2, 2]


# -- the pool, whatever its lifetime ----------------------------------------


class Fussy(Exception):
    """Pickles, but cannot be rebuilt from its pickle."""

    def __init__(self, *, detail):
        super().__init__(detail)


class Target:
    """What the pool tests fork from: state a child must inherit, and
    methods that say where and how they ran."""

    def __init__(self, offset=0):
        self.offset = offset

    def add(self, x):
        return x + self.offset

    def where(self):
        return os.getpid()

    def boom(self, text):
        raise KeyError(text)

    def fuss(self):
        raise Fussy(detail="about nothing")

    def nap(self, seconds):
        time.sleep(seconds)
        return os.getpid()

    def die(self):
        os.kill(os.getpid(), signal.SIGKILL)

    def spare(self, x, victim):
        """``x`` — from every process but the one handed the victim."""
        if x == victim:
            self.die()
        return x

    def nest(self, x):
        """What a job gets that asks for processes of its own, as a
        pool and as a fan-out."""
        inner = ForkPool(self, 2)
        run = fan_out(
            lambda y: (os.getpid(), x + y), [1, 2, 3], backend="processes",
            workers=2,
        )
        return (
            os.getpid(), inner.processes, inner.call("where"),
            run.backend, run.results,
        )

    def wakeup_fd(self):
        """The descriptor this process's signal handlers wake, ``-1``
        for none (``set_wakeup_fd`` returns it)."""
        return signal.set_wakeup_fd(-1)

    def fds(self):
        """The descriptors this process holds (the one the listing
        itself opens aside)."""
        held = []
        for name in os.listdir("/proc/self/fd"):
            try:
                os.fstat(int(name))
            except OSError:
                continue
            held.append(int(name))
        return sorted(held)


#: How long a pool lives: for one ``fan_out``, or until it is closed.
LIFETIMES = ("call", "generation")


@contextmanager
def two_children(target, lifetime):
    """``run(name, jobs)``: ``ForkPool.map`` over two children forked
    from ``target`` — on entry and kept (``generation``), or by each
    run for that run (``call``: a ``fan_out`` of the same jobs)."""
    if lifetime == "call":
        yield lambda name, jobs: fan_out(
            lambda args: getattr(target, name)(*args), jobs,
            backend="processes", workers=2,
        ).results
        return
    pool = ForkPool(target, 2)
    try:
        yield pool.map
    finally:
        pool.close()


@pytest.fixture()
def pool():
    target = Target(offset=100)
    pool = ForkPool(target, 2)
    yield pool
    pool.close()


def test_pool_answers_in_order_like_the_calling_thread(pool):
    """More jobs than children: each child is reused, the answers come
    back in job order and equal those of a pool without children, which
    runs on the calling thread."""
    jobs = [(x,) for x in range(11)]
    twin = Target(offset=100)  # a pool holds its target weakly
    inline = ForkPool(twin, 0)
    assert inline.processes == 0
    assert pool.map("add", jobs) == inline.map("add", jobs)
    assert pool.map("add", jobs) == [x + 100 for x in range(11)]
    assert pool.map("add", []) == []
    assert pool.call("add", 1) == 101
    assert inline.call("where") == os.getpid()
    pids = set(pool.map("where", [()] * 8))
    assert os.getpid() not in pids and 1 <= len(pids) <= 2
    assert (pool.processes, pool.replaced_total) == (2, 0)


def test_jobs_about_the_same_thing_meet_the_same_child(pool):
    """``affinity`` says what a job is about; the idle child whose last
    such job was about the same gets it, and with it whatever that
    child has cached — a traveller's multi-criteria search, for one
    (``docs/SERVER.md`` has the measured rates).  Jobs that say nothing,
    or something new, go to the child idle longest and leave the
    others' affinities alone."""
    first = pool.call("where", affinity="a")
    assert {pool.call("where", affinity="a") for _ in range(3)} == {first}
    second = pool.call("where", affinity="b")
    assert first != second  # "b" is new: the child idle longest
    for _ in range(2):
        assert len(set(pool.map("where", [()] * 2))) == 2  # both, unmarked
        for about, child in (("b", second), ("b", second), ("a", first)) * 2:
            assert pool.call("where", affinity=about) == child
    # Without a match the children take turns.
    turns = [pool.call("where") for _ in range(4)]
    assert turns[0] != turns[1] and turns[:2] == turns[2:]
    # Busy is busy: the job takes the child that is idle.
    held = threading.Thread(target=pool.call, args=("nap", 0.5), kwargs={"affinity": "a"})
    held.start()
    time.sleep(0.2)
    assert pool.call("where", affinity="a") == second
    held.join(timeout=10)


@pytest.mark.parametrize("lifetime", LIFETIMES)
def test_child_exception_raises_here_with_its_type(lifetime):
    target = Target(offset=100)
    with two_children(target, lifetime) as run:
        # The first failure in job order; the other jobs ran, no child
        # is lost over it.
        with pytest.raises(KeyError, match="second"):
            run("boom", [("second",), ("third",)])
        # An exception that would not survive the trip comes as its text.
        with pytest.raises(RuntimeError, match="Fussy: about nothing"):
            run("fuss", [(), ()])
        assert run("add", [(1,), (2,)]) == [101, 102]


def test_pool_child_exception_costs_no_child(pool):
    with pytest.raises(KeyError, match="boom"):
        pool.call("boom", "boom")
    with pytest.raises(RuntimeError, match="Fussy: about nothing"):
        pool.call("fuss")
    assert pool.call("add", 1) == 101
    assert (pool.processes, pool.replaced_total) == (2, 0)


@pytest.mark.parametrize("lifetime", LIFETIMES)
def test_child_holds_nothing_of_its_parent_but_its_pipe(tmp_path, lifetime):
    """Listening socket, client connection, an open file, the first
    child's pipe: the server's descriptors at fork time.  A child that
    kept them would hold a closed client connection half-open, keep the
    port bound after the server died — and a sibling's pipe end would
    keep that sibling from ever reading EOF."""
    listener = socket.create_server(("127.0.0.1", 0))
    client = socket.create_connection(listener.getsockname())
    accepted, _ = listener.accept()
    target = Target()
    with open(tmp_path / "log", "w"), listener, client, accepted:
        with two_children(target, lifetime) as run:
            held = run("fds", [()] * 6)
    for fds in held:
        assert [fd for fd in fds if fd <= 2] == [0, 1, 2]
        assert len(fds) == 4, fds  # stdio and the child's own pipe


def test_a_child_wakes_no_descriptor_of_its_parent():
    """An event loop in the parent (``serve``) has its signals wake a
    non-blocking descriptor.  A child keeps the number but not the
    descriptor — or, once something else reuses the number, the wrong
    one — so it resets the wake-up descriptor before its first job."""
    ours, loops = socket.socketpair()
    loops.setblocking(False)
    previous = signal.set_wakeup_fd(loops.fileno())
    target = Target()
    try:
        pool = ForkPool(target, 1)
        try:
            assert pool.call("wakeup_fd") == -1
        finally:
            pool.close()
    finally:
        signal.set_wakeup_fd(previous)
        ours.close()
        loops.close()


def test_killed_child_fails_its_call_and_is_replaced():
    target = Target(offset=1)
    pool = ForkPool(target, 1)
    try:
        victim = pool.call("where")
        with pytest.raises(WorkerLost, match=str(victim)):
            pool.call("die")
        assert not child_alive(victim)
        # The next call is answered, by a child forked from the target.
        successor = pool.call("where")
        assert successor not in (victim, os.getpid())
        assert pool.call("add", 1) == 2
        assert (pool.processes, pool.replaced_total) == (1, 1)
        # Only the job of the child that died is lost to a map.
        with pytest.raises(WorkerLost):
            pool.map("die", [()])
        assert pool.map("add", [(1,), (2,)]) == [2, 3]
        assert (pool.processes, pool.replaced_total) == (1, 2)
    finally:
        pool.close()


@pytest.mark.parametrize("lifetime", LIFETIMES)
def test_a_killed_child_fails_the_map_instead_of_hanging_it(lifetime):
    """Job 3 of 8 SIGKILLs the process it runs in — the OOM killer's
    way.  ``multiprocessing.Pool.map``, what ``fan_out`` used to be,
    lost such a task and never returned (hence the thread and its
    bounded join); a table build under a delay swap would have held the
    dataset's swap lock for ever."""
    target = Target()
    outcome = []

    def run_map():
        with two_children(target, lifetime) as run:
            try:
                outcome.append(run("spare", [(x, 3) for x in range(8)]))
            except WorkerLost as lost:
                outcome.append(lost)

    thread = threading.Thread(target=run_map, daemon=True)
    thread.start()
    thread.join(timeout=6)
    assert not thread.is_alive(), "the map has not returned"
    (lost,) = outcome
    assert isinstance(lost, WorkerLost), lost
    victim = int(re.search(r"pool worker (\d+) died", str(lost))[1])
    assert victim != os.getpid() and not child_alive(victim)


def test_two_maps_that_each_want_the_whole_pool_both_finish(pool):
    """Two threads, two jobs each, two children — and each thread has
    sent its first job before either asks for a second child (the
    barrier inside the job list).  A map that waited for a *further*
    child while its own held an unread answer would wait for ever."""
    barrier = threading.Barrier(2)
    results = {}

    def jobs():
        yield (0.05,)
        barrier.wait(timeout=10)
        yield (0.05,)

    def run(tag):
        results[tag] = pool.map("nap", jobs())

    threads = [
        threading.Thread(target=run, args=(tag,), daemon=True) for tag in "ab"
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    # Each thread ran both its jobs on the child it already held.
    assert len(set(results["a"])) == len(set(results["b"])) == 1
    assert set(results["a"]) != set(results["b"])


def test_map_hands_the_next_job_to_the_child_that_answers_first(pool):
    """One slow job, two fast ones, two children: the child that got
    the first fast job gets the second too, and the map takes the slow
    job's time.  Reading the oldest held answer first would leave that
    child idle until the slow job was over, and run the last job after
    it (a table build's rows are not equally long either)."""
    t0 = time.perf_counter()
    slow, fast, also_fast = pool.map("nap", [(0.8,), (0.2,), (0.2,)])
    elapsed = time.perf_counter() - t0
    assert fast == also_fast != slow
    assert elapsed < 0.95


def test_close_reaps_every_child_and_later_calls_run_here():
    target = Target(offset=5)
    pool = ForkPool(target, 2)
    pids = set(pool.map("where", [()] * 4)) | {c.pid for c in pool._children}
    assert len(pids) == 2
    pool.close()
    assert not any(map(child_alive, pids))
    assert pool.processes == 0
    assert pool.call("where") == os.getpid()
    assert pool.call("add", 1) == 6
    pool.close()  # idempotent


def test_close_does_not_wait_for_a_stranger_that_holds_the_pipe():
    """EOF reaches a child when the *last* copy of the parent's end of
    its pipe is closed, and a process forked by other code than the
    pool's — an embedding application's own worker; here a bare fork —
    holds one for as long as it lives.  So ``close()`` tells the
    children to stop; hanging up alone would wait for the stranger."""
    target = Target()
    pool = ForkPool(target, 2)
    pids = [child.pid for child in pool._children]
    stranger = os.fork()
    if stranger == 0:
        try:
            time.sleep(30)
        finally:
            os._exit(0)
    try:
        closing = threading.Thread(target=pool.close, daemon=True)
        closing.start()
        closing.join(timeout=5)
        assert not closing.is_alive()
        assert not any(map(child_alive, pids))
    finally:
        os.kill(stranger, signal.SIGKILL)
        os.waitpid(stranger, 0)


def test_collected_pool_takes_its_children_with_it():
    """Nobody closes a swapped-out generation's pool: it goes when the
    last reference to it does."""
    target = Target()
    pool = ForkPool(target, 2)
    pids = [child.pid for child in pool._children]
    del pool
    assert not any(map(child_alive, pids))


@pytest.mark.parametrize("lifetime", LIFETIMES)
def test_a_pool_child_never_forks(lifetime):
    """One level of processes, however the layers nest — a batch inside
    a search worker, a table build inside a batch item: a job that asks
    for processes of its own, as a pool or as a ``fan_out``, gets none
    and runs on its own thread."""
    target = Target()
    with two_children(target, lifetime) as run:
        nested = run("nest", [(10,), (20,)])
    for x, (pid, processes, where, backend, results) in zip([10, 20], nested):
        assert pid != os.getpid()
        assert (processes, where) == (0, pid)
        assert backend == "serial"
        assert results == [(pid, x + y) for y in (1, 2, 3)]


def test_pool_inside_a_pool_child_runs_on_that_child():
    """A replacement is forked from a target that already owns the
    pool, so it inherits a copy of it — one without children: a call
    the target makes through it there is made on the spot."""

    class Owner(Target):
        workers = None

        def ask(self):
            return self.workers.call("where")

    target = Owner()
    target.workers = ForkPool(target, 2)
    try:
        originals = {child.pid for child in target.workers._children}
        for _ in originals:
            with pytest.raises(WorkerLost):
                target.workers.call("die")
        # Each replacement inherited the pool with the other child in
        # it, idle — and must not take it for a child of its own.
        replacements = {child.pid for child in target.workers._children}
        assert len(replacements) == 2 and not replacements & originals
        assert set(target.workers.map("ask", [()] * 2)) == replacements
        assert set(target.workers.map("where", [()] * 2)) == replacements
        assert target.workers.replaced_total == 2
    finally:
        target.workers.close()


# -- jobs submitted from an event loop --------------------------------------


def on_a_loop(scenario, *args):
    """Run ``scenario(*args)`` on a fresh event loop, within 30 s."""
    return asyncio.run(asyncio.wait_for(scenario(*args), timeout=30))


def test_submitted_jobs_answer_like_the_blocking_calls(pool):
    """More jobs than children, submitted at once: each child is reused
    and every future has the answer ``map`` gives for its job."""

    async def scenario():
        futures = [pool.submit("add", x) for x in range(11)]
        return await asyncio.gather(*futures)

    assert on_a_loop(scenario) == pool.map("add", [(x,) for x in range(11)])


def test_a_child_killed_mid_job_fails_only_its_own_future(pool):
    """Two jobs in two children; one child is SIGKILLed mid-job.  Its
    future — no other — fails with ``WorkerLost`` naming it, a
    replacement is forked, and the next job is answered by it."""

    async def scenario():
        doomed = pool.submit("nap", 30)
        survivor = pool.submit("nap", 0.3)
        (victim,) = [c.pid for c, f in pool._running.items() if f is doomed]
        os.kill(victim, signal.SIGKILL)
        with pytest.raises(WorkerLost, match=str(victim)):
            await doomed
        return victim, await survivor, await pool.submit("where")

    victim, survivor, later = on_a_loop(scenario)
    assert survivor not in (victim, os.getpid())
    assert not child_alive(victim)
    assert later not in (victim, os.getpid())
    assert (pool.processes, pool.replaced_total) == (2, 1)


def test_closing_with_jobs_in_flight_fails_them_and_leaves_no_reader():
    """One child, one job running in it for half a minute and one
    waiting for it.  ``close()`` on the loop fails both at once — the
    child is killed, not waited for — its pipe leaves the loop's
    selector before it is closed, and the loop serves on."""
    target = Target()
    pool = ForkPool(target, 1)
    (child,) = pool._children
    fd = child.conn.fileno()

    async def scenario():
        loop = asyncio.get_running_loop()
        running = pool.submit("nap", 30)
        waiting = pool.submit("nap", 30)
        await asyncio.sleep(0.1)
        t0 = time.perf_counter()
        pool.close()
        closed_in = time.perf_counter() - t0
        for future in (running, waiting):
            with pytest.raises(WorkerLost):
                await future
        # True would mean a reader was still registered for the fd.
        registered = loop.remove_reader(fd)
        await asyncio.sleep(0.05)
        return closed_in, registered

    closed_in, registered = on_a_loop(scenario)
    assert closed_in < 5
    assert registered is False
    assert not child_alive(child.pid)


def test_a_submit_after_close_fails_every_time():
    """A closed pool refuses a submitted job at once — the second as
    cleanly as the first — instead of queueing it for ever; so does a
    pool that never had children."""
    target = Target()
    pool = ForkPool(target, 1)
    pool.close()
    pool.close()

    async def scenario(pool):
        for _ in range(2):
            with pytest.raises(RuntimeError, match="no children"):
                pool.submit("where")

    on_a_loop(scenario, pool)
    on_a_loop(scenario, ForkPool(target, 0))


def test_submitted_jobs_meet_the_idle_child_that_last_served_their_source(
    pool,
):
    """Affinity from the loop is ``map``'s: the idle child whose last
    job was about the same source gets the job; a busy one is not
    waited for while another is idle."""

    async def scenario():
        first = await pool.submit("where", affinity="a")
        again = [await pool.submit("where", affinity="a") for _ in range(3)]
        second = await pool.submit("where", affinity="b")
        back = [
            await pool.submit("where", affinity=about)
            for about in ("b", "a", "b", "a")
        ]
        held = pool.submit("nap", 0.5, affinity="a")
        await asyncio.sleep(0.1)
        elsewhere = await pool.submit("where", affinity="a")
        return first, again, second, back, await held, elsewhere

    first, again, second, back, held, elsewhere = on_a_loop(scenario)
    assert again == [first] * 3 and second != first
    assert back == [second, first, second, first]
    assert held == first and elsewhere == second


def test_two_profiles_that_each_want_the_whole_pool_both_finish(oahu_tiny):
    """Two profiles of two subsets each, submitted at once to a service
    with two search workers: four jobs for two children, the last two
    waiting first come first served.  Both are answered, as a service
    without workers answers them."""
    from repro.service import ProfileRequest, ServiceConfig, TransitService
    from repro.service.shapes import PROFILE

    config = ServiceConfig(num_threads=2)
    served = TransitService(oahu_tiny, config)
    served.start_workers(2)
    requests = [ProfileRequest(source, num_threads=2) for source in (3, 8)]
    try:

        async def scenario():
            return await asyncio.gather(
                *(served.submit(PROFILE, request) for request in requests)
            )

        answers = on_a_loop(scenario)
        assert served.worker_stats == (2, 0)
    finally:
        served.stop_workers()
    direct = TransitService(oahu_tiny, config)
    for request, answer in zip(requests, answers):
        want = direct.profile(request)
        assert answer.stats.settled_connections == (
            want.stats.settled_connections
        )
        assert (answer.raw.merged.labels == want.raw.merged.labels).all()


def _survivors(pids, timeout=5.0):
    """Those of ``pids`` still running ``timeout`` seconds from now (a
    zombie nobody reaps is not running)."""
    deadline = time.monotonic() + timeout
    while True:
        alive = [pid for pid in pids if process_state(pid) not in (None, "Z")]
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.02)


#: A parent with a listening socket and two children, one line on
#: stdout when they are at work: the port, then — where the parent can
#: know them — the children, the idle one first.
_DOOMED_PARENT = {
    "generation": """
        import os, socket, threading, time
        from repro.core.fanout import ForkPool
        class T:
            def nap(self, seconds): time.sleep(seconds)
        listener = socket.create_server(("127.0.0.1", 0))
        target = T()
        pool = ForkPool(target, 2)
        pool.call('nap', 0)  # the first child's turn; the next is
        threading.Thread(target=pool.call, args=('nap', 2)).start()
        time.sleep(0.3)
        (idle,) = pool._idle
        (busy,) = set(pool._children) - {idle}
        print(listener.getsockname()[1], idle.pid, busy.pid, flush=True)
        time.sleep(60)
    """,
    "call": """
        import socket, time
        from repro.core.fanout import fan_out
        listener = socket.create_server(("127.0.0.1", 0))
        print(listener.getsockname()[1], flush=True)
        fan_out(time.sleep, [0.3] * 200, backend="processes", workers=2)
    """,
}


@pytest.mark.parametrize("lifetime", LIFETIMES)
def test_children_do_not_outlive_a_killed_parent(lifetime):
    """SIGKILL gives the parent no chance to stop anything: an idle
    child reads EOF on its pipe and leaves at once, a busy one when its
    job is done — quietly, and neither ever held the parent's listening
    socket, so the port is free the moment the parent is gone.  For
    that EOF to come, no sibling may hold a copy of the parent's end of
    the pipe — the child forked second inherited the first one's."""
    proc = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(_DOOMED_PARENT[lifetime])],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    port, *children = (int(word) for word in proc.stdout.readline().split())
    # Per call both children are busy, with jobs of 0.3 s; of the kept
    # pool's the second naps for 2 s and the first is idle.
    job_seconds = 2.0 if lifetime == "generation" else 0.3
    try:
        if not children:
            children = wait_until(
                lambda: len(found := children_of(proc.pid)) == 2 and found,
                what="the fan-out's two children",
            )
        proc.kill()
        assert proc.wait(timeout=30) == -signal.SIGKILL
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=5).close()
        if lifetime == "generation":
            idle, busy = children
            assert idle < busy  # the busy child is the one forked second
            assert _survivors([idle], timeout=1.0) == []
        assert _survivors(children, timeout=job_seconds + 1.0) == []
        assert proc.stderr.read() == ""
    finally:
        proc.kill()
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


#: ``repro prepare``'s shape of handler: it raises.
_RAISING_HANDLER = """
    import os, signal, sys, time
    from repro.core.fanout import ForkPool, fan_out

    class Interrupted(Exception):
        pass

    def handler(signum, frame):
        raise Interrupted(signum)

    class T:
        def nap(self, seconds):
            time.sleep(seconds)
        def where(self):
            return os.getpid()

    signal.signal(signal.SIGTERM, handler)
    signal.signal(signal.SIGINT, handler)
    target = T()
"""

_NAPS_OF_A_MINUTE = {
    "generation": """
    pool = ForkPool(target, 2)
    print("ready", flush=True)
    try:
        pool.map("nap", [(60,), (60,)])
    except Interrupted:
        pool.close()
        sys.exit(130)
    """,
    "call": """
    print("ready", flush=True)
    try:
        fan_out(target.nap, [60, 60], backend="processes", workers=2)
    except Interrupted:
        sys.exit(130)
    """,
}


@pytest.mark.parametrize("lifetime", LIFETIMES)
@pytest.mark.parametrize(
    "send",
    [
        pytest.param(signal.SIGTERM, id="SIGTERM-to-parent"),
        pytest.param(
            lambda group: os.killpg(group, signal.SIGINT), id="SIGINT-to-group"
        ),
    ],
)
def test_raising_signal_handler_unwinds_through_busy_pool_children(
    send, lifetime
):
    """The handler raises inside ``map``, past two answers that will
    not come for a minute.  The children that owe them are killed on
    the way out — left busy, they would hold up ``close()``, and the
    exit, for that minute.  Nothing of the process group is left
    (``run_in_own_group``) and nothing is said on the way."""
    returncode, stdout, stderr = run_in_own_group(
        _RAISING_HANDLER
        + _NAPS_OF_A_MINUTE[lifetime]
        + """
    sys.exit("the naps ended before the signal")
        """,
        send=send,
        timeout=5.0,
    )
    assert (returncode, stdout, stderr) == (130, "", "")


def test_sigint_to_the_group_is_the_parents_to_handle():
    """Ctrl-C reaches every process of the group.  Idle children that
    still had the parent's raising handler would die of it, traceback
    and all; they ignore SIGINT, and the parent, which handles it, finds
    its pool as it was."""
    returncode, stdout, stderr = run_in_own_group(
        _RAISING_HANDLER
        + """
    pool = ForkPool(target, 2)
    before = set(pool.map("where", [()] * 2))
    print("ready", flush=True)
    try:
        time.sleep(30)
    except Interrupted:
        after = set(pool.map("where", [()] * 2))
        print(after == before, pool.processes, pool.replaced_total)
        pool.close()
        sys.exit(130)
    sys.exit("no signal came")
        """,
        send=lambda group: os.killpg(group, signal.SIGINT),
        timeout=5.0,
    )
    assert (returncode, stdout.strip(), stderr) == (130, "True 2 0", "")


@pytest.mark.parametrize("lifetime", LIFETIMES)
def test_pool_child_under_an_event_loops_handlers_dies_of_sigterm_alone(
    lifetime,
):
    """``repro serve``'s shape: the loop owns SIGTERM through a wake-up
    fd, and executor threads fork — a swap the next generation's
    workers, a table patch or a batch a pool for the call.  A child
    that kept the loop's handler and wake-up fd would answer SIGTERM by
    running the *server's* stop callback through the shared fd, and
    live on."""
    returncode, stdout, stderr = run_in_own_group(
        """
        import asyncio, os, signal, sys
        from repro.core.fanout import ForkPool, WorkerLost, fan_out

        class T:
            def where(self):
                return os.getpid()
            def stop_self(self):
                os.kill(os.getpid(), signal.SIGTERM)
                import time; time.sleep(30)

        def per_call(method):
            return fan_out(
                lambda _: method(), [0, 1], backend="processes", workers=2
            ).results[0]

        async def main():
            loop = asyncio.get_running_loop()
            stops = []
            loop.add_signal_handler(signal.SIGTERM, stops.append, "TERM")
            target = T()
            if sys.argv[1] == "generation":
                pool = await loop.run_in_executor(None, ForkPool, target, 2)
                ask = pool.call
            else:
                ask = lambda name: per_call(getattr(target, name))
            for _ in range(4):
                try:
                    await loop.run_in_executor(None, ask, "stop_self")
                except WorkerLost:
                    pass
                else:
                    raise SystemExit("the child outlived its SIGTERM")
                await asyncio.sleep(0.05)
            pid = await loop.run_in_executor(None, ask, "where")
            assert pid != os.getpid()
            if sys.argv[1] == "generation":
                print(stops, pool.processes, pool.replaced_total)
                pool.close()
            else:
                print(stops)

        asyncio.run(main())
        """,
        lifetime,
        timeout=20.0,
    )
    assert (returncode, stderr) == (0, "")
    assert stdout.strip() == ("[] 2 4" if lifetime == "generation" else "[]")
