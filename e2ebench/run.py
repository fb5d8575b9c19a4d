"""One benchmark run: ``python3 e2ebench/run.py --workload NAME --seed N
--seconds S --trace 0|1``.

A run sets the server up from scratch (several times: ``setup_s`` is
the median, the last server is the one measured), drives the workload's
timed script against it, re-asks a seeded sample of the operations
in-process and compares the answers, and prints every metric by name
and unit.  The **last line of standard output** is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
(which sets up once and adds the traced pass of ``trace.py``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # run as a script: make `e2ebench` importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from e2ebench import BENCH_DIR, REPO_ROOT

from repro.benchops.machine import machine_fingerprint
from repro.client import LocalBackend
from repro.service.facade import TransitService

from e2ebench import harness
from e2ebench.control import Control
from e2ebench.trace import traced_pass
from e2ebench.workloads import SETUPS, WORKLOADS, build_script, perform, post

OUT_DIR = BENCH_DIR / "out"


def spec() -> dict:
    """``BENCHMARK.json``: the names and units this program must print."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def _say(message: str) -> None:
    print(f"[e2ebench] {message}", file=sys.stderr, flush=True)


def scrubbed(answer) -> object:
    """An answer with what may legitimately differ between two correct
    transports removed: wall-clock fields, private caches, and the
    ``cache_hit`` flag (the re-asking backend starts with a cold cache).
    Everything else must match bit for bit — the repo's transport-parity
    contract (``tests/client/test_transport_parity.py``)."""

    def scrub(obj):
        if isinstance(obj, dict):
            return {
                key: 0.0
                if isinstance(key, str) and key.endswith("_seconds")
                else scrub(value)
                for key, value in obj.items()
                if not (
                    isinstance(key, str)
                    and (key.startswith("_") or key == "cache_hit")
                )
            }
        if isinstance(obj, (list, tuple)):
            return [scrub(item) for item in obj]
        return obj

    return scrub(dataclasses.asdict(answer))


def _check_answers(script, log, store, server_url) -> int:
    """Re-ask in-process and compare; returns the number of operations
    whose answers differ."""
    local = LocalBackend(store)
    mismatches = 0
    for index in sorted(log.answers):
        expected = perform(local, script.timed[index])
        got = log.answers[index]
        if [scrubbed(a) for a in got] != [scrubbed(a) for a in expected]:
            mismatches += 1
            _say(f"MISMATCH at op {index}: {script.timed[index]}")
    if script.hot_pairs:
        # Answers during the run depend on which generation served
        # them; what must hold is the state after the last swap.
        for posts in (script.warmup_posts, script.timed_posts):
            for index in sorted(posts):
                post(local, posts[index])
        backend = harness.connect(server_url)
        try:
            for s, t in script.hot_pairs:
                if scrubbed(backend.journey(s, t)) != scrubbed(local.journey(s, t)):
                    mismatches += 1
                    _say(f"MISMATCH after the last swap: journey({s}, {t})")
        finally:
            backend.close()
    return mismatches


@dataclasses.dataclass
class _Timed:
    """The timed script as driven: its log and what the server and the
    machine did meanwhile."""

    log: harness.RunLog
    count: int
    seconds: float
    server_cpu_s: float
    rss_mb: float
    #: Machine slowdown over the window (``control.py``).
    slowdown: float


def _drive_timed(server, control, workload, script, seed) -> _Timed:
    count = len(script.timed)
    keep = frozenset(
        random.Random(f"e2ebench:check:{seed}").sample(
            range(count), round(workload.check_share * count)
        )
    )
    cpu0 = server.cpu_seconds()
    log = harness.drive(
        server.url, workload, script.timed, script.timed_posts, keep
    )
    finished = max(log.ended.values())
    return _Timed(
        log=log,
        count=count,
        seconds=finished - log.started,
        server_cpu_s=server.cpu_seconds() - cpu0,
        rss_mb=server.peak_rss_mb(),
        slowdown=control.slowdown(log.started, finished),
    )


def _end_to_end(timed: _Timed, setups: list) -> tuple[dict, dict]:
    """The five end-to-end metrics at reference speed, and raw."""
    raw = {
        "qps": timed.log.qps(),
        "p50_ms": timed.log.p50_ms(),
        "server_cpu_ms_per_op": timed.server_cpu_s * 1000.0 / timed.count,
    }
    values = {
        "setup_s": statistics.median(
            entry["raw_s"] / entry["slowdown"] for entry in setups
        ),
        "qps": raw["qps"] * timed.slowdown,
        "p50_ms": raw["p50_ms"] / timed.slowdown,
        "server_cpu_ms_per_op": raw["server_cpu_ms_per_op"] / timed.slowdown,
        "rss_mb": timed.rss_mb,
    }
    return values, raw


def _per_layer(
    timed, setup, workload, script, seed, store, server, control
) -> tuple[dict, dict, dict]:
    """The per-layer metrics at reference speed, raw, and the trace."""
    log = timed.log
    backend = harness.connect(server.url)
    try:
        served = backend.server_metrics()
    finally:
        backend.close()
    prefix = workload.trace_ops * script.cycle_ops
    traced, document = traced_pass(
        workload, seed, store, server, control,
        script.timed[:prefix],
        {i: e for i, e in script.timed_posts.items() if i < prefix},
    )
    prep = setup["prepare"]
    stats = prep["prepare"]
    from_run_ms = {
        "client.p95_ms": log.p95_ms(),
        **{
            f"client.p50_ms.{shape}": statistics.median(
                log.call_latency.get(shape, [0.0])
            ) * 1000.0
            for shape in ("profile", "multicriteria", "min_transfers", "via", "batch")
        },
        "server.swap_p50_ms": statistics.median(log.swap_seconds or [0.0])
        * 1000.0,
    }
    from_setup_s = {
        "query.table_build_s": stats["table_seconds"],
        "graph.pack_s": stats["pack_seconds"],
        "service.graph_build_s": stats["graph_seconds"]
        + stats["station_graph_seconds"],
        "store.save_s": prep["save_s"],
        "store.load_s": setup["load_s"],
    }
    raw = {**from_run_ms, **from_setup_s}
    # Each time is restated by the slowdown of the window it is from.
    values = {
        **{name: ms / timed.slowdown for name, ms in from_run_ms.items()},
        **{name: s / setup["slowdown"] for name, s in from_setup_s.items()},
        "server.mean_batch_size": served["micro_batching"]["mean_batch_size"]
        or 0.0,
        "server.rejected_total": served["rejected_total"],
        "service.cache_hit_ratio": log.cache_hits / log.calls
        if log.calls else 0.0,
        "store.bytes": prep["store_bytes"],
        **traced,
    }
    return values, raw, document


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    scale: str | None = None,
) -> dict:
    """One run (see module docstring); returns the result document."""
    workload = WORKLOADS[name]
    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    store = workdir / name
    control = Control(workdir / "control")
    phases: dict[str, float] = {}
    setups: list[dict] = []
    server = None
    script = None
    try:
        control.start()
        # -- set-up, from scratch each time ----------------------------
        for _ in range(1 if trace else SETUPS):
            if server is not None:
                server.stop()
            t_begin = time.perf_counter()
            entry = {"prepare": harness.prepare_store(workload, store, scale)}
            spent = time.perf_counter() - t_begin
            if script is None:
                # Needs the dataset, so it cannot precede the first
                # prepare; its time is not the server's set-up.
                t0 = time.perf_counter()
                service = TransitService.load(store)
                entry["load_s"] = time.perf_counter() - t0
                script = build_script(workload, seed, seconds, service)
            t0 = time.perf_counter()
            server = harness.Server(store)
            server.start()
            warm = harness.drive(
                server.url, workload, script.warmup, script.warmup_posts
            )
            if warm.failures or warm.failed_posts:
                raise RuntimeError(f"warm-up failed: {warm.failures}")
            t_end = time.perf_counter()
            entry["raw_s"] = spent + t_end - t0
            entry["slowdown"] = control.slowdown(t_begin, t_end)
            setups.append(entry)
            _say(
                f"set-up {len(setups)}: {entry['raw_s']:.3f} s, machine at "
                f"{entry['slowdown']:.2f}x reference time"
            )
        phases["setup"] = sum(entry["raw_s"] for entry in setups)

        timed = _drive_timed(server, control, workload, script, seed)
        phases["timed"] = timed.seconds
        _say(f"timed script: machine at {timed.slowdown:.2f}x reference time")

        # -- answers, outside the timed path ---------------------------
        t0 = time.perf_counter()
        mismatches = _check_answers(script, timed.log, store, server.url)
        phases["check"] = time.perf_counter() - t0

        document = None
        if trace:
            t0 = time.perf_counter()
            values, raw, document = _per_layer(
                timed, setups[0], workload, script, seed, store, server, control
            )
            phases["trace"] = time.perf_counter() - t0
        else:
            values, raw = _end_to_end(timed, setups)
    finally:
        if server is not None:
            server.stop()
        control.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    if document is not None:
        (OUT_DIR / f"trace-{name}.json").write_text(json.dumps(document))
    for phase, spent in phases.items():
        _say(f"phase {phase}: {spent:.1f} s")
    log = timed.log
    failed = len(log.failures) + log.failed_posts + mismatches
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": {**machine_fingerprint(), "nproc": harness.nproc()},
        "phases_s": phases,
        "setups": setups,
        "timed_slowdown": timed.slowdown,
        "raw": raw,
        "correct": failed == 0,
        # Delay posts count as operations for failure accounting only.
        "attempted": timed.count + log.posts,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec()["per_layer" if trace else "end_to_end"]
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workload", required=True,
        help="a workload of BENCHMARK.json, or 'all' for one run of each",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="scales the operation counts (default: run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = spec()
    names = [w["name"] for w in declared["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    exit_code = 0
    for name in names if args.workload == "all" else [args.workload]:
        result = run_workload(name, args.seed, seconds, bool(args.trace))
        OUT_DIR.mkdir(exist_ok=True)
        (
            OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        ).write_text(json.dumps(result, indent=1))
        print(f"workload {name} (seed {args.seed}, trace {args.trace})")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:32s} {entry['value']:14.6g} {entry['unit']}")
        print(
            json.dumps(
                {
                    key: result[key]
                    for key in ("correct", "attempted", "failed", "metrics")
                }
            ),
            flush=True,
        )
        if not result["correct"]:
            exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
