"""Server lifecycle, the closed-loop driver and its statistics.

The server under test is ``python -m repro.cli serve --store … --port
0 --port-file …`` with every other flag at its default, as a child
process; load comes from this process over real TCP through
``repro.client.HttpBackend`` (one connection per client thread, retries
off).  Nothing here is scheduled by the clock: clients walk fixed
operation lists, and delay posts fire when the query client *reaches*
a given index.
"""

from __future__ import annotations

import json
import os
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.client import HttpBackend, RetryPolicy

from e2ebench import BENCH_DIR, SRC_DIR
from e2ebench.workloads import Workload, post, requests_of

#: Segments the timed script is cut into; ``qps`` is the median
#: segment rate, so one neighbour's burst moves at most one of them.
QPS_SEGMENTS = 5
_SPAWN_TIMEOUT_S = 60.0
_REQUEST_TIMEOUT_S = 30.0


def nproc() -> int:
    """Cores this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        f"{SRC_DIR}{os.pathsep}{existing}" if existing else str(SRC_DIR)
    )
    return env


def prepare_store(workload: Workload, store: Path, scale: str | None) -> dict:
    """Run ``prepare.py`` in a fresh interpreter; returns its report."""
    shutil.rmtree(store, ignore_errors=True)
    cmd = [
        sys.executable,
        str(BENCH_DIR / "prepare.py"),
        "--workload", workload.name,
        "--store", str(store),
    ]
    if scale is not None:
        cmd += ["--scale", scale]
    done = subprocess.run(
        cmd, env=_child_env(), capture_output=True, text=True, timeout=170
    )
    if done.returncode != 0:
        raise RuntimeError(f"prepare failed:\n{done.stderr}")
    return json.loads(done.stdout)


class Server:
    """One ``repro.cli serve`` child process over one store."""

    def __init__(self, store: Path) -> None:
        self.store = store
        self._port_file = store.with_suffix(".port")
        self._log_path = store.with_suffix(".log")
        self._process: subprocess.Popen | None = None
        self.url = ""

    def start(self) -> None:
        self._port_file.unlink(missing_ok=True)
        with open(self._log_path, "wb") as log:
            self._process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--store", str(self.store),
                    "--port", "0",
                    "--port-file", str(self._port_file),
                ],
                env=_child_env(),
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + _SPAWN_TIMEOUT_S
        while not self._port_file.exists():
            if self._process.poll() is not None or time.monotonic() > deadline:
                log_text = self._log_path.read_text(errors="replace")
                self.stop()
                raise RuntimeError(f"server did not come up:\n{log_text}")
            time.sleep(0.005)
        port = int(self._port_file.read_text())
        self.url = f"http://127.0.0.1:{port}/{self.store.name}"

    def stop(self) -> None:
        """terminate → wait → kill; safe to call twice."""
        process, self._process = self._process, None
        if process is None:
            return
        process.terminate()
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()

    def cpu_seconds(self) -> float:
        """CPU time the server's threads have consumed: the scheduler's
        exact per-thread run time (``schedstat``, nanoseconds).  The
        ``utime``/``stime`` of ``/proc/<pid>/stat`` are sampled at the
        100 Hz tick on this kernel — a few percent of noise over a run
        of sub-millisecond bursts."""
        tasks = Path(f"/proc/{self._process.pid}/task")
        return sum(
            int((task / "schedstat").read_text().split()[0])
            for task in tasks.iterdir()
        ) / 1e9

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self._process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")


def connect(url: str) -> HttpBackend:
    return HttpBackend(
        url,
        pool_size=1,
        retry=RetryPolicy(retries=0),
        timeout=_REQUEST_TIMEOUT_S,
    )


@dataclass
class RunLog:
    """What one driven script observed, per operation and per call."""

    started: float = 0.0
    #: Per operation, by script index: latency, completion time.
    latency: dict = field(default_factory=dict)
    ended: dict = field(default_factory=dict)
    #: Per request shape: latencies of the single calls.
    call_latency: dict = field(default_factory=dict)
    calls: int = 0
    cache_hits: int = 0
    #: Answers of the operations named in ``keep``, by script index.
    answers: dict = field(default_factory=dict)
    #: Indices of failed operations with the error's text.
    failures: dict = field(default_factory=dict)
    swap_seconds: list = field(default_factory=list)
    posts: int = 0
    failed_posts: int = 0

    def merge(self, other: "RunLog") -> None:
        self.latency.update(other.latency)
        self.ended.update(other.ended)
        for shape, values in other.call_latency.items():
            self.call_latency.setdefault(shape, []).extend(values)
        self.calls += other.calls
        self.cache_hits += other.cache_hits
        self.answers.update(other.answers)
        self.failures.update(other.failures)

    # -- statistics -----------------------------------------------------

    def p50_ms(self) -> float:
        return statistics.median(self.latency.values()) * 1000.0

    def p95_ms(self) -> float:
        ordered = sorted(self.latency.values())
        return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))] * 1000.0

    def qps(self) -> float:
        """Median rate of ``QPS_SEGMENTS`` equal-count segments of the
        script, in completion order."""
        ends = sorted(self.ended.values())
        count = min(QPS_SEGMENTS, len(ends))
        cut = [k * len(ends) // count for k in range(count + 1)]
        starts = [self.started] + [ends[hi - 1] for hi in cut[1:-1]]
        return statistics.median(
            (hi - lo) / (ends[hi - 1] - start)
            for lo, hi, start in zip(cut, cut[1:], starts)
        )


def _client(url, ops, indices, posts, post_queue, keep, barrier, log) -> None:
    backend = connect(url)
    try:
        barrier.wait()
        for index in indices:
            event = posts.get(index)
            if event is not None:
                post_queue.put(event)
            requests = requests_of(ops[index])
            t_op = time.perf_counter()
            try:
                answers = []
                for shape, request in requests:
                    t_call = time.perf_counter()
                    answer = getattr(backend, shape)(request)
                    log.call_latency.setdefault(shape, []).append(
                        time.perf_counter() - t_call
                    )
                    answers.append(answer)
            except Exception as exc:  # noqa: BLE001 — any failure is a failed op
                log.failures[index] = f"{type(exc).__name__}: {exc}"
                answers = None
            t_end = time.perf_counter()
            log.latency[index] = t_end - t_op
            log.ended[index] = t_end
            if answers is None:
                continue
            for answer in answers:
                # A batch carries per-item stats only; it counts as one
                # uncached call.
                stats = getattr(answer, "stats", None)
                log.calls += 1
                log.cache_hits += bool(getattr(stats, "cache_hit", False))
            if index in keep:
                log.answers[index] = answers
    finally:
        backend.close()


def _poster(url, post_queue, log) -> None:
    backend = connect(url)
    try:
        while True:
            event = post_queue.get()
            if event is None:
                return
            log.posts += 1
            try:
                log.swap_seconds.append(post(backend, event).swap_seconds)
            except Exception:  # noqa: BLE001 — counted, the run goes on
                log.failed_posts += 1
    finally:
        backend.close()


def drive(
    url: str,
    workload: Workload,
    ops: list,
    posts: dict,
    keep: frozenset = frozenset(),
    *,
    cores: int | None = None,
) -> RunLog:
    """Run ``ops`` closed-loop from ``workload.clients`` threads (client
    ``k`` takes every ``clients``-th operation from ``k``); ``posts``
    are handed to a poster thread when their index is reached.  Refuses
    more load threads than cores: an oversubscribed driver measures its
    own scheduling."""
    cores = nproc() if cores is None else cores
    threads = workload.clients + (1 if posts else 0)
    if threads > cores:
        raise ValueError(
            f"{workload.name}: {threads} load threads on {cores} core(s) — "
            f"the driver refuses to oversubscribe the box"
        )
    if posts and workload.clients != 1:
        raise ValueError("count-triggered posts need exactly one query client")
    log = RunLog()
    post_queue: queue.SimpleQueue = queue.SimpleQueue()
    barrier = threading.Barrier(workload.clients + 1)
    logs = [RunLog() for _ in range(workload.clients)]
    clients = [
        threading.Thread(
            target=_client,
            args=(
                url, ops, range(k, len(ops), workload.clients), posts,
                post_queue, keep, barrier, logs[k],
            ),
        )
        for k in range(workload.clients)
    ]
    poster = threading.Thread(target=_poster, args=(url, post_queue, log))
    for thread in clients:
        thread.start()
    poster.start()
    barrier.wait()
    log.started = time.perf_counter()
    for thread in clients:
        thread.join()
    post_queue.put(None)
    poster.join()
    for part in logs:
        log.merge(part)
    return log
