"""The one way onto another core (:mod:`repro.core.fanout`): a
``ForkPool`` forked once, its jobs submitted from an event loop — a
server's, or the private loop a blocking caller runs (``on_a_loop``
here, ``asyncio.run`` in ``TransitService._answer``)."""

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

import pytest

from repro.core import fanout
from repro.core.fanout import ForkPool, WorkerLost

from tests.helpers import (
    child_alive,
    process_state,
    run_in_own_group,
)


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


# -- the pool ----------------------------------------------------------------


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

    def unpicklable(self):
        return threading.Lock()

    def stamp(self):
        return time.monotonic_ns()

    def touch(self, path):
        open(path, "x").close()

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

    def nest(self):
        """Where this ran, and the children a pool made here has."""
        return os.getpid(), ForkPool(self, 2).processes

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


def on_a_loop(scenario, *args):
    """Run ``scenario(*args)`` on a fresh event loop, within 30 s."""
    return asyncio.run(asyncio.wait_for(scenario(*args), timeout=30))


def run_jobs(pool, name, jobs, **kwargs):
    """A blocking caller's way: every job submitted at once from a
    private loop, the answers in job order; the first job that raised,
    in job order, raises here."""

    async def scenario():
        futures = [pool.submit(name, *args, **kwargs) for args in jobs]
        return await asyncio.gather(*futures, return_exceptions=True)

    outcomes = on_a_loop(scenario)
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    return outcomes


def ask(pool, name, *args, **kwargs):
    """One job, from a private loop."""
    return run_jobs(pool, name, [args], **kwargs)[0]


@pytest.fixture()
def pool():
    target = Target(offset=100)
    pool = ForkPool(target, 2)
    yield pool
    pool.close()


def test_submitted_jobs_answer_like_the_target(pool):
    """More jobs than children, submitted at once: each child is reused
    and every future has the answer the target gives in this process."""
    twin = Target(offset=100)
    assert run_jobs(pool, "add", [(x,) for x in range(11)]) == [
        twin.add(x) for x in range(11)
    ]
    assert run_jobs(pool, "add", []) == []
    pids = set(run_jobs(pool, "where", [()] * 8))
    assert os.getpid() not in pids and 1 <= len(pids) <= 2
    assert (pool.processes, pool.replaced_total) == (2, 0)


def test_child_exception_raises_here_with_its_type(pool):
    """The job's exception is its future's, with its type; one that
    would not survive the trip comes as its text."""

    async def scenario():
        with pytest.raises(KeyError, match="boom"):
            await pool.submit("boom", "boom")
        with pytest.raises(RuntimeError, match="Fussy: about nothing"):
            await pool.submit("fuss")

    on_a_loop(scenario)


def test_pool_child_exception_costs_no_child(pool):
    """A job that raised leaves its child serving: the next jobs are
    answered by the same children, and none was replaced."""
    before = set(run_jobs(pool, "where", [()] * 4))
    # The first failure in job order; the other jobs ran.
    with pytest.raises(KeyError, match="second"):
        run_jobs(pool, "boom", [("second",), ("third",)])
    assert ask(pool, "add", 1) == 101
    assert set(run_jobs(pool, "where", [()] * 4)) <= before
    assert (pool.processes, pool.replaced_total) == (2, 0)


def test_a_result_that_will_not_pickle_fails_its_job_and_costs_no_child(
    pool,
):
    """A lock cannot cross the pipe: the job fails with the error
    pickling raised, and the child that ran it answers the next job."""
    with pytest.raises(TypeError, match="pickle"):
        ask(pool, "unpicklable")
    assert ask(pool, "add", 2) == 102
    assert (pool.processes, pool.replaced_total) == (2, 0)


def test_queued_jobs_run_first_come_first_served():
    """One child, six jobs submitted at once: the five that find it
    busy run in the order they were submitted."""
    target = Target()
    pool = ForkPool(target, 1)
    try:
        stamps = run_jobs(pool, "stamp", [()] * 6)
    finally:
        pool.close()
    assert stamps == sorted(stamps) and len(set(stamps)) == 6


def test_a_job_cancelled_while_queued_never_runs(tmp_path):
    """A caller that gave up on a job still waiting for a child — a
    client that hung up — costs no search: the job is dropped unsent,
    and the one queued behind it runs in its place."""
    target = Target()
    pool = ForkPool(target, 1)
    marker = tmp_path / "ran"

    async def scenario():
        busy = pool.submit("nap", 0.3)
        dropped = pool.submit("touch", str(marker))
        later = pool.submit("where")
        dropped.cancel()
        await busy
        return await later

    try:
        assert on_a_loop(scenario) != os.getpid()
        assert not marker.exists()
        assert (pool.processes, pool.replaced_total) == (1, 0)
    finally:
        pool.close()


def test_a_job_cancelled_while_running_frees_its_child():
    """A job cancelled while its child runs it is let finish: its
    answer is read and dropped, and the child — not a replacement —
    takes the next job."""
    target = Target()
    pool = ForkPool(target, 1)
    (child,) = pool._children

    async def scenario():
        running = pool.submit("nap", 0.3)
        await asyncio.sleep(0.05)
        running.cancel()
        return await pool.submit("where")

    try:
        assert on_a_loop(scenario) == child.pid
        assert (pool.processes, pool.replaced_total) == (1, 0)
    finally:
        pool.close()


def test_child_holds_nothing_of_its_parent_but_its_pipe(tmp_path):
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
        pool = ForkPool(target, 2)
        try:
            held = run_jobs(pool, "fds", [()] * 6)
        finally:
            pool.close()
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
            assert ask(pool, "wakeup_fd") == -1
        finally:
            pool.close()
    finally:
        signal.set_wakeup_fd(previous)
        ours.close()
        loops.close()


def test_killed_child_fails_its_job_and_is_replaced():
    target = Target(offset=1)
    pool = ForkPool(target, 1)
    try:
        victim = ask(pool, "where")
        with pytest.raises(WorkerLost, match=str(victim)):
            ask(pool, "die")
        assert not child_alive(victim)
        # The next job is answered, by a child forked from the target.
        successor = ask(pool, "where")
        assert successor not in (victim, os.getpid())
        assert ask(pool, "add", 1) == 2
        assert (pool.processes, pool.replaced_total) == (1, 1)
        with pytest.raises(WorkerLost):
            run_jobs(pool, "die", [()])
        assert run_jobs(pool, "add", [(1,), (2,)]) == [2, 3]
        assert (pool.processes, pool.replaced_total) == (1, 2)
    finally:
        pool.close()


def test_a_killed_child_fails_its_job_instead_of_hanging_the_rest(pool):
    """Job 3 of 8 SIGKILLs the process it runs in — the OOM killer's
    way.  ``multiprocessing.Pool.map``, what this module replaced, lost
    such a task and never returned; a table build under a delay swap
    would have held the dataset's swap lock for ever.  Here that one
    job fails with ``WorkerLost`` naming the child, within seconds, and
    every other job is answered."""

    async def scenario():
        futures = [pool.submit("spare", x, 3) for x in range(8)]
        return await asyncio.wait_for(
            asyncio.gather(*futures, return_exceptions=True), timeout=6
        )

    outcomes = on_a_loop(scenario)
    lost = outcomes.pop(3)
    assert isinstance(lost, WorkerLost), lost
    assert outcomes == [0, 1, 2, 4, 5, 6, 7]
    victim = int(re.search(r"pool worker (\d+) died", str(lost))[1])
    assert victim != os.getpid() and not child_alive(victim)


def test_a_queued_job_goes_to_the_child_that_answers_first(pool):
    """One slow job, two fast ones, two children: the third job waits,
    and the child that ran the first fast job gets it, so the whole
    takes the slow job's time.  Handing it to the oldest job's child
    would leave that child idle until the slow job was over, and run
    the last job after it (a table build's rows are not equally long
    either)."""
    t0 = time.perf_counter()
    slow, fast, also_fast = run_jobs(pool, "nap", [(0.8,), (0.2,), (0.2,)])
    elapsed = time.perf_counter() - t0
    assert fast == also_fast != slow
    assert elapsed < 0.95


def test_close_reaps_every_child():
    target = Target(offset=5)
    pool = ForkPool(target, 2)
    pids = set(run_jobs(pool, "where", [()] * 4))
    pids |= {c.pid for c in pool._children}
    assert len(pids) == 2
    pool.close()
    assert not any(map(child_alive, pids))
    assert pool.processes == 0
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


def test_a_pool_child_never_forks(pool):
    """One level of processes, however the layers nest — a batch inside
    a search worker, a table build inside a batch item: a job that asks
    for processes of its own gets none, and runs its work itself."""
    nested = run_jobs(pool, "nest", [(), ()])
    for pid, processes in nested:
        assert pid != os.getpid()
        assert processes == 0


def test_a_replacement_takes_no_sibling_for_a_child_of_its_own():
    """A replacement is forked from a target that already owns the
    pool, so it inherits a copy of it — with the other child in it,
    idle.  That copy has no children: what the target asks of it there
    the target runs itself."""

    class Owner(Target):
        workers = None

        def ask(self):
            return self.workers.processes

    target = Owner()
    target.workers = ForkPool(target, 2)
    try:
        originals = {child.pid for child in target.workers._children}
        for _ in originals:
            with pytest.raises(WorkerLost):
                ask(target.workers, "die")
        replacements = {child.pid for child in target.workers._children}
        assert len(replacements) == 2 and not replacements & originals
        assert run_jobs(target.workers, "ask", [()] * 2) == [0, 0]
        assert set(run_jobs(target.workers, "where", [()] * 2)) == replacements
        assert target.workers.replaced_total == 2
    finally:
        target.workers.close()


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


def test_a_second_loop_is_refused_while_the_first_ones_job_runs(pool):
    """The pool's state belongs to the loop whose jobs it holds: a job
    submitted from another loop — another thread's — while one of the
    first loop's runs is refused, not queued behind it.  Once the first
    loop's jobs are answered, the next loop may submit."""
    started = threading.Event()
    answers = []

    async def first():
        job = pool.submit("nap", 0.5)
        started.set()
        answers.append(await job)

    thread = threading.Thread(target=on_a_loop, args=(first,), daemon=True)
    thread.start()
    assert started.wait(timeout=10)

    async def second():
        with pytest.raises(RuntimeError, match="another event loop"):
            pool.submit("where")

    on_a_loop(second)
    thread.join(timeout=10)
    assert answers and answers[0] != os.getpid()
    assert ask(pool, "add", 1) == 101
    assert (pool.processes, pool.replaced_total) == (2, 0)


def test_a_closed_loops_jobs_are_abandoned_by_the_next_loop(pool):
    """A blocking caller's private loop that an exception unwound — a
    signal handler's, here a timeout's — leaves its jobs running in
    children nobody will read.  The next submit, from a new loop,
    replaces those children and is answered at once, instead of
    waiting behind jobs whose answers nobody reads."""

    async def interrupted():
        await asyncio.wait_for(
            asyncio.gather(pool.submit("nap", 30), pool.submit("nap", 30)),
            timeout=0.2,
        )

    with pytest.raises(asyncio.TimeoutError):
        asyncio.run(interrupted())
    busy = [child.pid for child in pool._running]
    assert len(busy) == 2
    t0 = time.perf_counter()
    assert ask(pool, "add", 1) == 101
    assert time.perf_counter() - t0 < 5
    assert not any(map(child_alive, busy))
    assert (pool.processes, pool.replaced_total) == (2, 2)


def test_a_closed_loops_queued_jobs_never_run(tmp_path):
    """The jobs a closed loop left waiting for a child are dropped with
    the ones it left running: the next loop's job is the first the
    replacement child runs."""
    target = Target()
    pool = ForkPool(target, 1)
    marker = tmp_path / "ran"

    class Interrupted(Exception):
        pass

    async def interrupted():
        pool.submit("nap", 30)
        pool.submit("touch", str(marker))
        await asyncio.sleep(0.2)
        raise Interrupted

    try:
        with pytest.raises(Interrupted):
            asyncio.run(interrupted())
        assert ask(pool, "where") != os.getpid()
        assert not marker.exists()
        assert (pool.processes, pool.replaced_total) == (1, 1)
    finally:
        pool.close()


def test_a_child_that_dies_once_its_target_is_gone_is_not_replaced():
    """The pool holds its target weakly: once the target is collected,
    a child that dies has nothing to be forked from.  Its job fails
    with ``WorkerLost``, so does every job waiting for a child, and the
    pool refuses what is submitted after."""
    target = Target()
    pool = ForkPool(target, 1)
    (child,) = pool._children
    del target
    assert pool._target() is None

    async def scenario():
        dying = pool.submit("die")
        waiting = pool.submit("where")
        with pytest.raises(WorkerLost, match=f"worker {child.pid} died"):
            await dying
        with pytest.raises(WorkerLost, match="no pool worker is left"):
            await waiting
        with pytest.raises(RuntimeError, match="no children"):
            pool.submit("where")

    try:
        on_a_loop(scenario)
        assert not child_alive(child.pid)
        assert (pool.processes, pool.replaced_total) == (0, 0)
    finally:
        pool.close()


def test_submitted_jobs_meet_the_idle_child_that_last_served_their_source(
    pool,
):
    """``affinity`` says what a job is about; the idle child whose last
    such job was about the same gets it, and with it whatever that
    child has cached — a traveller's multi-criteria search, for one
    (``docs/SERVER.md`` has the measured rates).  A busy one is not
    waited for while another is idle, and jobs about nothing take
    turns."""

    async def scenario():
        first = await pool.submit("where", affinity="a")
        again = [await pool.submit("where", affinity="a") for _ in range(3)]
        second = await pool.submit("where", affinity="b")
        back = [
            await pool.submit("where", affinity=about)
            for about in ("b", "a", "b", "a")
        ]
        turns = [await pool.submit("where") for _ in range(4)]
        held = pool.submit("nap", 0.5, affinity="a")
        await asyncio.sleep(0.1)
        elsewhere = await pool.submit("where", affinity="a")
        return first, again, second, back, turns, await held, elsewhere

    first, again, second, back, turns, held, elsewhere = on_a_loop(scenario)
    assert again == [first] * 3 and second != first
    assert back == [second, first, second, first]
    assert turns[0] != turns[1] and turns[:2] == turns[2:]
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
#: stdout when they are at work: the port, then the children — the idle
#: one first where there is one.
_DOOMED_PARENT = {
    "one-busy": """
        import asyncio, os, socket, time
        from repro.core.fanout import ForkPool
        class T:
            def nap(self, seconds): time.sleep(seconds)
        listener = socket.create_server(("127.0.0.1", 0))
        target = T()
        pool = ForkPool(target, 2)
        async def main():
            await pool.submit('nap', 0)  # the first child's turn; the next is
            pool.submit('nap', 2)
            (idle,) = pool._idle
            (busy,) = pool._running
            print(listener.getsockname()[1], idle.pid, busy.pid, flush=True)
            await asyncio.sleep(60)
        asyncio.run(main())
    """,
    "both-busy": """
        import asyncio, socket, time
        from repro.core.fanout import ForkPool
        class T:
            def nap(self, seconds): time.sleep(seconds)
        listener = socket.create_server(("127.0.0.1", 0))
        target = T()
        pool = ForkPool(target, 2)
        async def main():
            naps = [pool.submit('nap', 0.3) for _ in range(200)]
            pids = [child.pid for child in pool._running]
            print(listener.getsockname()[1], *pids, flush=True)
            await asyncio.gather(*naps)
        asyncio.run(main())
    """,
}


@pytest.mark.parametrize("scenario", _DOOMED_PARENT)
def test_children_do_not_outlive_a_killed_parent(scenario):
    """SIGKILL gives the parent no chance to stop anything: an idle
    child reads EOF on its pipe and leaves at once, a busy one when its
    job is done — quietly, and neither ever held the parent's listening
    socket, so the port is free the moment the parent is gone.  For
    that EOF to come, no sibling may hold a copy of the parent's end of
    the pipe — the child forked second inherited the first one's."""
    proc = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(_DOOMED_PARENT[scenario])],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    port, *children = (int(word) for word in proc.stdout.readline().split())
    # Both children are busy with jobs of 0.3 s, or the second naps for
    # 2 s and the first is idle.
    job_seconds = 2.0 if scenario == "one-busy" else 0.3
    try:
        assert len(children) == 2
        proc.kill()
        assert proc.wait(timeout=30) == -signal.SIGKILL
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=5).close()
        if scenario == "one-busy":
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
    import asyncio, os, signal, sys, time
    from repro.core.fanout import ForkPool

    class Interrupted(Exception):
        pass

    def handler(signum, frame):
        raise Interrupted(signum)

    class T:
        def nap(self, seconds):
            time.sleep(seconds)
        def where(self):
            return os.getpid()

    def run_jobs(name, jobs):
        async def gather():
            return await asyncio.gather(*(pool.submit(name, *a) for a in jobs))
        return asyncio.run(gather())

    signal.signal(signal.SIGTERM, handler)
    signal.signal(signal.SIGINT, handler)
    target = T()
    pool = ForkPool(target, 2)
"""

#: After the raise: the pool closed, or left to the exit.
_NAPS_OF_A_MINUTE = {
    "closed": """
    print("ready", flush=True)
    try:
        run_jobs("nap", [(60,), (60,)])
    except Interrupted:
        pool.close()
        sys.exit(130)
    """,
    "exited": """
    print("ready", flush=True)
    try:
        run_jobs("nap", [(60,), (60,)])
    except Interrupted:
        sys.exit(130)
    """,
}


@pytest.mark.parametrize("after", _NAPS_OF_A_MINUTE)
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
    send, after
):
    """The handler raises inside the private loop, past two answers
    that will not come for a minute.  The children that owe them are
    killed when the pool is closed or the process exits — left busy,
    they would hold up the exit for that minute.  Nothing of the
    process group is left (``run_in_own_group``) and nothing is said on
    the way."""
    returncode, stdout, stderr = run_in_own_group(
        _RAISING_HANDLER
        + _NAPS_OF_A_MINUTE[after]
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
    before = set(run_jobs("where", [()] * 2))
    print("ready", flush=True)
    try:
        time.sleep(30)
    except Interrupted:
        after = set(run_jobs("where", [()] * 2))
        print(after == before, pool.processes, pool.replaced_total)
        pool.close()
        sys.exit(130)
    sys.exit("no signal came")
        """,
        send=lambda group: os.killpg(group, signal.SIGINT),
        timeout=5.0,
    )
    assert (returncode, stdout.strip(), stderr) == (130, "True 2 0", "")


@pytest.mark.parametrize("forked_on", ["loop", "executor"])
def test_pool_child_under_an_event_loops_handlers_dies_of_sigterm_alone(
    forked_on,
):
    """``repro serve``'s shape: the loop owns SIGTERM through a wake-up
    fd, and forks the first generation's workers itself — a swap forks
    the next generation's on an executor thread.  A child that kept the
    loop's handler and wake-up fd would answer SIGTERM by running the
    *server's* stop callback through the shared fd, and live on."""
    returncode, stdout, stderr = run_in_own_group(
        """
        import asyncio, os, signal, sys
        from repro.core.fanout import ForkPool, WorkerLost

        class T:
            def where(self):
                return os.getpid()
            def stop_self(self):
                os.kill(os.getpid(), signal.SIGTERM)
                import time; time.sleep(30)

        async def main():
            loop = asyncio.get_running_loop()
            stops = []
            loop.add_signal_handler(signal.SIGTERM, stops.append, "TERM")
            target = T()
            if sys.argv[1] == "loop":
                pool = ForkPool(target, 2)
            else:
                pool = await loop.run_in_executor(None, ForkPool, target, 2)
            for _ in range(4):
                try:
                    await pool.submit("stop_self")
                except WorkerLost:
                    pass
                else:
                    raise SystemExit("the child outlived its SIGTERM")
                await asyncio.sleep(0.05)
            pid = await pool.submit("where")
            assert pid != os.getpid()
            print(stops, pool.processes, pool.replaced_total)
            pool.close()

        asyncio.run(main())
        """,
        forked_on,
        timeout=20.0,
    )
    assert (returncode, stderr) == (0, "")
    assert stdout.strip() == "[] 2 4"
