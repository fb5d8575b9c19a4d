#!/usr/bin/env python3
"""The CI steps that drive a sub-command or a store, as functions.

Usage:  PYTHONPATH=src python scripts/ci.py JOB

Each job runs ``python -m repro.cli`` as a child process, exactly as a
shell step would, keeps its files in a temporary directory and exits
non-zero on the first failed assertion.  ``.github/workflows/ci.yml``
calls one job per step; every job also runs locally as is.

``transcripts`` asserts nothing about the answers: it prints the
invocation matrix (:func:`transcripts`) with run-dependent figures
masked, so that two checkouts can be compared with ``diff`` —
``PYTHONPATH=<checkout>/src python scripts/ci.py transcripts``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
#: Children import the package the caller's PYTHONPATH names, else this
#: checkout's.
ENV = {**os.environ, "PYTHONPATH": os.environ.get("PYTHONPATH", str(REPO / "src"))}
sys.path[:0] = [*ENV["PYTHONPATH"].split(os.pathsep), str(REPO)]

OAHU = ("--instance", "oahu", "--scale", "tiny")


def cli(
    *argv: str, check: bool = True, prefix: tuple[str, ...] = ()
) -> subprocess.CompletedProcess:
    """Run one ``repro-transit`` command to completion (``prefix``:
    a launcher such as ``taskset -c 0`` to run it under)."""
    proc = subprocess.run(
        [*prefix, sys.executable, "-m", "repro.cli", *argv],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=300,
    )
    if check and proc.returncode != 0:
        raise SystemExit(
            f"repro-transit {' '.join(argv)} exited {proc.returncode}:\n"
            f"{proc.stdout}{proc.stderr}"
        )
    return proc


def process_tree(root: int) -> list[int]:
    """``root`` and its live descendants (zombies are not alive)."""
    parent_of = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                state, ppid = (
                    (entry / "stat").read_text().rpartition(")")[2].split()[:2]
                )
            except OSError:  # gone between the listing and the read
                continue
            if state != "Z":
                parent_of[int(entry.name)] = int(ppid)
    tree = [root] if root in parent_of else []
    for pid in tree:
        tree.extend(child for child, ppid in parent_of.items() if ppid == pid)
    return tree


@contextlib.contextmanager
def serving(command: str, tmp: Path, *argv: str):
    """A background ``serve`` / ``serve-fleet`` on an ephemeral port:
    yields its URL and process id once the port file appears; on exit
    sends SIGTERM, asserts a clean drain (exit 0) that leaves no
    descendant of the server alive, and prints the server's log."""
    port_file = tmp / f"{command}.port"
    log = open(tmp / f"{command}.log", "w+")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", command, *argv,
            "--port", "0", "--port-file", str(port_file),
        ],
        env=ENV,
        stdout=log,
        stderr=subprocess.STDOUT,
    )
    try:
        deadline = time.monotonic() + 60
        while not port_file.exists() or not port_file.read_text().strip():
            assert proc.poll() is None, f"{command} exited {proc.returncode}"
            assert time.monotonic() < deadline, f"{command} published no port"
            time.sleep(0.1)
        yield f"http://127.0.0.1:{int(port_file.read_text())}", proc.pid
        descendants = process_tree(proc.pid)[1:]
        proc.send_signal(signal.SIGTERM)
        status = proc.wait(timeout=60)
        log.seek(0)
        text = log.read()
        print(text, end="")
        assert "drained" in text, f"{command} log shows no drain"
        assert status == 0, f"{command} exited {status} after SIGTERM"
        orphans = [p for p in descendants if process_tree(p)]
        assert not orphans, f"{command} left {orphans} of {descendants} behind"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        log.close()


def batch_backends(tmp: Path) -> None:
    """The one backend that forks, against the serial loop: same
    workload, same work, same classifications."""
    serial, forked = (
        json.loads(
            cli(
                "batch", *OAHU, "--n-queries", "8", "--seed", "1", "--json",
                *backend,
            ).stdout
        )
        for backend in (
            ("--backend", "serial"),
            ("--backend", "processes", "--workers", "2"),
        )
    )
    assert serial["backend"] == "serial", serial
    assert forked["backend"] == "processes", forked
    for key in ("num_queries", "settled_connections", "classifications"):
        assert serial[key] == forked[key], (key, serial[key], forked[key])
    print(
        f"{serial['queries_per_second']} queries/s serial, "
        f"{forked['queries_per_second']} queries/s on 2 processes"
    )


def global_queries(tmp: Path) -> None:
    """The fused flat loop (Theorems 3/4 inside the kernel) against the
    hook-driven reference kernel, at the CLI boundary: a global,
    table-pruned query prints the same connections whichever kernel
    runs it, over one connection subset or four.  0 → 2 has a
    non-transfer target (Theorem 3), 5 → 4 a transfer-station target
    (Theorem 4 as well); 0 → 2 without a table is a local query, where
    goal direction is the only thing the flat kernel adds to the
    stopping criterion — it must settle no more than the reference."""
    table = ("--transfer-fraction", "0.2")
    for label, source, target, kind, flags in (
        ("table-0-2", "0", "2", "global", table),
        ("table-5-4", "5", "4", "global", table),
        ("plain-0-2", "0", "2", "local", ()),
    ):
        runs = {
            (kernel, cores): cli(
                "query", *OAHU, *flags, "--source", source, "--target", target,
                "--kernel", kernel, "--cores", str(cores),
            ).stdout
            for kernel in ("flat", "python")
            for cores in (1, 4)
        }
        profiles = {
            key: [line for line in out.splitlines() if "depart" in line]
            for key, out in runs.items()
        }
        first = profiles["flat", 1]
        assert first, f"{label}: no connections printed"
        for key, out in runs.items():
            assert f"{source} → {target} ({kind})" in out, (label, key, out)
            assert profiles[key] == first, f"{label}: {key} differs from ('flat', 1)"
        print(f"{label}: {len(first)} identical profile lines, 2 kernels x 2 core counts")
        if not flags:
            settled = {
                key: int(re.search(r"(\d+) settled", out).group(1))
                for key, out in runs.items()
            }
            for cores in (1, 4):
                flat, python = settled["flat", cores], settled["python", cores]
                assert flat <= python, f"{label}: {settled}"
                print(f"{label}: {cores} core(s), flat settled {flat} <= python {python}")


def serve_fleet(tmp: Path) -> None:
    """serve-fleet at the CLI boundary: the gateway publishes its
    ephemeral port via --port-file, answers SDK queries, and SIGTERM
    drains the whole process tree to exit 0."""
    from repro.client import connect

    store = str(tmp / "oahu")
    cli("prepare", *OAHU, "--store", store, "--transfer-fraction", "0.25")
    with serving(
        "serve-fleet", tmp, "--store", store, "--workers", "2"
    ) as (url, _):
        with connect(url) as backend:
            answer = backend.journey(2, 5)
        assert answer.profile, "no connections through the gateway"
        print(f"gateway at {url} answered a journey")


def stream_replay(tmp: Path) -> None:
    """The CLI surface of the delay-stream loop: generate a committed
    scenario file, serve a store, replay the file against it."""
    store, stream = str(tmp / "oahu"), str(tmp / "stream.json")
    cli("prepare", *OAHU, "--store", store, "--transfer-fraction", "0.25")
    cli(
        "delay-stream", *OAHU, "--output", stream,
        "--events", "5", "--duration", "1", "--stream-seed", "3",
    )
    with serving("serve", tmp, "--store", store) as (url, _):
        report = json.loads(
            cli(
                "replay", "--stream", stream, "--remote", url,
                "--replan", "incremental", "--query-threads", "2", "--speed", "4",
            ).stdout
        )
    assert report["ok"] and report["failed_requests"] == 0, report
    assert report["metrics"]["last_generation"] == report["num_events"] == 5
    print(f"CLI replay committed {report['num_events']} batches, 0 failed")


def warm_start(tmp: Path) -> None:
    """A loaded service must never rebuild: loading with every builder
    poisoned and answering all six query shapes proves the store
    carried everything — the pack included, which the loaded graph
    owns, so the multi-criteria shapes re-pack nothing either."""
    import repro.graph.td_arrays as arrays_mod
    import repro.service.prepare as prepare_mod
    from repro import TransitService

    store = str(tmp / "store")
    cli("prepare", *OAHU, "--store", store, "--transfer-fraction", "0.2")

    def forbid(name):
        def _raise(*args, **kwargs):
            raise AssertionError(f"warm start called {name}")

        return _raise

    for mod, attr in (
        (prepare_mod, "build_td_graph"),
        (prepare_mod, "build_station_graph"),
        (prepare_mod, "build_distance_table"),
        (prepare_mod, "select_transfer_stations"),
        (prepare_mod, "packed_arrays"),
        (arrays_mod, "pack_td_graph"),
    ):
        setattr(mod, attr, forbid(attr))

    service = TransitService.load(store)
    assert service.prepare_stats.loaded_from_store
    service.profile(0)
    service.journey(0, 5)
    service.batch([(0, 5), (1, 6)])
    service.multicriteria(0, 5, departure=8 * 60)
    service.via(0, 3, 5, departure=8 * 60)
    service.min_transfers(0, 5, departure=8 * 60)
    assert service.timetable._conn_by_dep_station is None
    print(
        "all six query shapes answered with builders poisoned "
        "and the timetable never indexed"
    )


def table_build(tmp: Path) -> None:
    """The table build forks one pool for its rows when this process
    may use more than one core and the rows are long enough to repay it
    (docs/KERNEL.md, "Preprocessing"); pinned to one CPU it is the
    serial build.  The stored table is the same to the bit either way.
    (The oahu/tiny prepare steps elsewhere stay serial by the size rule
    and double as the "small builds fork nothing" smoke.)"""
    import numpy as np

    from repro import TransitService

    def prepare(label: str, *prefix: str):
        store = str(tmp / label)
        out = cli(
            "prepare", "--instance", "washington", "--scale", "small",
            "--transfer-fraction", "0.5", "--store", store, prefix=prefix,
        ).stdout
        ms, procs = re.search(r"table ([\d.]+) ms on (\d+) process", out).groups()
        return float(ms), int(procs), TransitService.load(store).table

    nproc = len(os.sched_getaffinity(0))
    free_ms, free_procs, free = prepare("free")
    pinned_ms, pinned_procs, pinned = prepare("pinned", "taskset", "-c", "0")
    rows = free.num_transfer_stations
    assert np.array_equal(free.transfer_stations, pinned.transfer_stations)
    for a in range(rows):
        for b in range(rows):
            p, q = free.profiles[a][b], pinned.profiles[a][b]
            assert p.deps.tobytes() == q.deps.tobytes(), (a, b)
            assert p.arrs.tobytes() == q.arrs.tobytes(), (a, b)
    assert pinned_procs == 1, pinned_procs
    # The first row is the caller's timed probe; the pool gets the rest.
    assert free_procs == (min(nproc, rows - 1) if nproc >= 2 else 1), free_procs
    print(
        f"{rows} rows: {free_ms:.0f} ms on {free_procs} process(es), "
        f"{pinned_ms:.0f} ms pinned to one CPU; tables bitwise equal"
    )


def table1_kernels(tmp: Path) -> None:
    """The Table 1 bench at tiny scale on oahu (both SPCS kernels and
    label-correcting), then its table: the flat kernel's one-to-all
    search at p = 1 beats the reference's by more than 1.5x.  Locally
    it is ≈ 3.5–4x; the margin absorbs one-sample noise on a shared
    runner without letting "no faster than the reference" through."""
    subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q",
            "benchmarks/bench_table1_one_to_all.py", "-k", "oahu",
        ],
        cwd=REPO,
        env={**ENV, "REPRO_BENCH_SCALE": "tiny"},
        check=True,
        timeout=600,
    )
    table = (REPO / "benchmarks/results/table1_one_to_all.txt").read_text()

    def time_of(kernel: str) -> float:
        row = re.search(rf"CS\[{kernel}\]\s+1\s+[\d,]+\s+([\d.]+)", table)
        assert row, f"missing CS[{kernel}] p=1 row in:\n{table}"
        return float(row.group(1))

    py, flat = time_of("python"), time_of("flat")
    print(f"CS[python] {py:.1f} ms vs CS[flat] {flat:.1f} ms -> {py / flat:.2f}x")
    assert flat * 1.5 < py, (
        f"flat kernel regressed: {flat:.1f} ms vs reference {py:.1f} ms"
    )


def _tree_cpu_seconds(pids: list[int]) -> float:
    """Scheduler run time of every thread of ``pids`` (``schedstat``,
    as ``e2ebench/harness.py`` reads it for the server alone)."""
    return sum(
        int((task / "schedstat").read_text().split()[0])
        for pid in pids
        for task in Path(f"/proc/{pid}/task").iterdir()
    ) / 1e9


def _proc_mb(pid: int, file: str, field: str) -> float:
    """A kB field of ``/proc/<pid>/<file>`` (``status``: ``VmRSS``,
    ``VmHWM``; ``smaps_rollup``: ``Pss``), in MB."""
    for line in Path(f"/proc/{pid}/{file}").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024
    raise KeyError(field)


def served_pool(tmp: Path) -> None:
    """The served path on the cores, and what it costs in whole.

    ``serve`` over washington/small (table on, result cache off — the
    ``cold_search`` store of ``e2ebench``), everything else as shipped.
    First that workload's own 264-pair script from two clients, with
    the accounting ``e2ebench/harness.py`` cannot do — it reads
    ``schedstat`` and ``VmHWM`` of the ``serve`` process alone, and the
    searches now run in its children: CPU per operation and memory over
    the server's process *tree*, beside the parent-only values.  Then
    the paper's scalability figure through HTTP: one client, one-to-all
    profiles from 12 seeded sources, three rounds, split over p = 1 and
    p = 2 connection subsets — answers equal to in-process ones, p = 2
    faster than p = 1 by more than 1.3x where there are two cores to
    run them on (the numbers are printed either way, the assertion
    comes last).  Last a delay swap whose table patch is long enough to
    fork a pool for its rows *inside* ``serve`` (``fan_out``: the same
    ``ForkPool``, for the call): row workers come and go, the answers
    after it are those of an in-process service that applied the same
    batch, and ``serving()``'s "no descendant survives" covers them."""
    import random
    import statistics
    import threading

    from e2ebench.workloads import WORKLOADS, build_script, requests_of
    from repro import ServiceConfig, TransitService
    from repro.client import LocalBackend, connect
    from repro.service.model import ProfileRequest
    from repro.synthetic.instances import make_instance
    from repro.timetable.delays import Delay

    cores = len(os.sched_getaffinity(0))
    store = tmp / "washington"
    TransitService(
        make_instance("washington", scale="small"),
        ServiceConfig(**WORKLOADS["cold_search"].config),
    ).save(store)
    service = TransitService.load(store)
    script = build_script(WORKLOADS["cold_search"], 0, 10, service)
    local = LocalBackend(store)
    with serving("serve", tmp, "--store", str(store)) as (base, server):
        url = f"{base}/washington"
        tree = process_tree(server)

        def client(ops: list) -> None:
            with connect(url) as backend:
                for op in ops:
                    for shape, request in requests_of(op):
                        getattr(backend, shape)(request)

        client(script.warmup)
        cpu0 = _tree_cpu_seconds(tree), _tree_cpu_seconds(tree[:1])
        t0 = time.perf_counter()
        threads = [
            threading.Thread(target=client, args=(script.timed[k::2],))
            for k in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
        ops = len(script.timed)
        assert process_tree(server) == tree, "the process tree changed"
        print(
            f"cold_search script: {ops} ops from 2 clients in {wall:.2f} s "
            f"({ops / wall:.1f}/s), server tree of {len(tree)} process(es)"
        )
        print(
            f"  CPU per op: tree "
            f"{(_tree_cpu_seconds(tree) - cpu0[0]) * 1000 / ops:.2f} ms, "
            f"serve process alone "
            f"{(_tree_cpu_seconds(tree[:1]) - cpu0[1]) * 1000 / ops:.2f} ms"
        )
        rss = [_proc_mb(pid, "status", "VmRSS") for pid in tree]
        pss = [_proc_mb(pid, "smaps_rollup", "Pss") for pid in tree]
        print(
            f"  memory: tree Pss {sum(pss):.1f} MB "
            f"(Rss {' + '.join(f'{mb:.1f}' for mb in rss)} MB), "
            f"serve process alone Pss {pss[0]:.1f} MB, "
            f"VmHWM {_proc_mb(server, 'status', 'VmHWM'):.1f} MB"
        )

        sources = random.Random("served-pool").sample(
            range(service.timetable.num_stations), 12
        )
        target = [s for s in range(3) if s not in sources][:1]
        times: dict[int, list[float]] = {1: [], 2: []}
        with connect(url) as backend:
            for _ in range(3):
                for source in sources:
                    for p in (1, 2):
                        request = ProfileRequest(source, num_threads=p)
                        t0 = time.perf_counter()
                        answer = backend.profile(request, targets=target)
                        times[p].append(time.perf_counter() - t0)
                        expected = local.profile(request, targets=target)
                        assert answer.profiles == expected.profiles, (source, p)
                        assert (
                            answer.stats.settled_connections
                            == expected.stats.settled_connections
                        ), (source, p)

        delays = [Delay(train=train, minutes=20) for train in (0, 1, 2)]
        before, seen, swapped = set(process_tree(server)), set(), threading.Event()

        def watch() -> None:
            while not swapped.is_set():
                seen.update(process_tree(server))
                time.sleep(0.01)

        watcher = threading.Thread(target=watch)
        watcher.start()
        with connect(url) as backend:
            update = backend.apply_delays(delays, replan="incremental")
            swapped.set()
            watcher.join()
            row_workers = seen - before - set(process_tree(server))
            local.apply_delays(delays, replan="incremental")
            stats = local.service.prepare_stats
            for source in sources:
                request = ProfileRequest(source, num_threads=1)
                answer = backend.profile(request, targets=target)
                expected = local.profile(request, targets=target)
                assert answer.profiles == expected.profiles, source
                journey = backend.journey(source, target[0])
                assert journey.profile == local.journey(source, target[0]).profile
        print(
            f"delay swap, table on: {stats.patched_table_rows} rows patched in "
            f"{update.swap_seconds * 1000:.0f} ms by {len(row_workers)} row "
            f"worker(s) inside serve ({stats.table_workers} process(es) "
            f"in-process); answers after it equal the in-process service's"
        )
        assert len(row_workers) == (stats.table_workers if cores >= 2 else 0)
    one, two = (statistics.median(times[p]) * 1000 for p in (1, 2))
    print(
        f"served profile, 12 sources x 3, one client, {cores} core(s): "
        f"p=1 {one:.1f} ms, p=2 {two:.1f} ms, speed-up {one / two:.2f}x"
    )
    if cores >= 2:
        assert one / two > 1.3, f"p=2 is only {one / two:.2f}x p=1"


#: ``batch --json`` keys that are wall-clock measurements.
_TIMED_KEYS = (
    "total_seconds", "queries_per_second", "setup_seconds",
    "prepare_seconds", "mean_simulated_seconds",
)


def _mask(text: str, tmp: Path, url: str) -> str:
    text = text.replace(url, "$URL").replace(str(tmp), "$TMP")
    text = re.sub(r"[\d.]+ (ms|queries/s)", r"# \1", text)
    text = re.sub(r"built in [\d.]+ s", "built in # s", text)
    lines = []
    for line in text.splitlines():
        if line.startswith("{"):
            summary = json.loads(line)
            summary.update(
                (key, "#") for key in _TIMED_KEYS if summary[key] is not None
            )
            line = json.dumps(summary, sort_keys=True)
        lines.append(line)
    return "\n".join(lines)


def _show(*argv: str) -> None:
    """One transcript entry: the command, its exit status, its stdout
    and — when it failed — the last line of its stderr."""
    proc = cli(*argv, check=False)
    print(f"$ repro-transit {' '.join(argv)}\nexit {proc.returncode}")
    print(proc.stdout, end="")
    if proc.returncode != 0:
        print(f"stderr: {proc.stderr.splitlines()[-1]}")
    print()


def transcripts(tmp: Path) -> None:
    """The invocation matrix: the dataset commands, the six query
    commands over ``--instance`` / ``--from-store`` / ``--remote``
    (text, and ``batch --json``), and the invalid values and
    combinations that must end in ``error: …`` rather than a traceback
    or a silently ignored flag."""
    store, feed = str(tmp / "store"), str(tmp / "feed")
    table = ("--transfer-fraction", "0.25")
    pair = ("--source", "2", "--target", "5", "--departure", "480")
    queries = {
        "profile": ("--source", "0", "--target", "3"),
        "query": ("--source", "0", "--target", "5"),
        "batch": ("--n-queries", "4", "--seed", "1"),
        "multicriteria": pair,
        "via": (*pair, "--via", "7"),
        "min-transfers": pair,
    }
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _show("generate", *OAHU, "--output", feed)
        _show("info", *OAHU)
        _show("info", "--gtfs", feed)
        _show("prepare", *OAHU, "--store", store, *table)
        _show("info", "--from-store", store)
        with serving("serve", tmp, "--store", store) as (url, _):
            remote = ("--remote", f"{url}/store")
            for command, flags in queries.items():
                local = OAHU if command == "profile" else (*OAHU, *table)
                for source in (local, ("--from-store", store), remote):
                    _show(command, *source, *flags)
                    if command == "batch":
                        _show(command, *source, *flags, "--json")
            _show("query", *remote, *queries["query"], "--cores", "2")
        _show("profile", *OAHU, "--source", "0", "--cores", "0")
        _show("profile", "--from-store", store, "--source", "0", "--cores", "0")
        _show("batch", *OAHU, "--workers", "0")
        for command in ("query", "multicriteria", "via", "min-transfers"):
            _show(command, *OAHU, *queries[command], "--transfer-fraction", "2")
        _show("prepare", *OAHU, "--store", str(tmp / "bad"), "--cores", "0")
        _show("table1", *OAHU, "--queries", "0")
        _show("table2", *OAHU, "--queries", "0")
        _show("query", "--from-store", store, *queries["query"], "--kernel", "python")
        _show("info", "--from-store", store, "--scale", "tiny")
        _show("query", "--from-store", str(tmp / "nope"), *queries["query"])
    print(_mask(out.getvalue(), tmp, url))


JOBS = {
    "batch-backends": batch_backends,
    "global-queries": global_queries,
    "serve-fleet": serve_fleet,
    "served-pool": served_pool,
    "stream-replay": stream_replay,
    "table-build": table_build,
    "table1-kernels": table1_kernels,
    "transcripts": transcripts,
    "warm-start": warm_start,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("job", choices=sorted(JOBS))
    job = JOBS[parser.parse_args().job]
    with tempfile.TemporaryDirectory(prefix="repro-ci-") as tmp:
        job(Path(tmp))
    return 0


if __name__ == "__main__":
    sys.exit(main())
