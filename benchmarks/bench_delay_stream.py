"""Delay-stream operations: incremental replanning and live swap rate.

Two measurements on **washington** — the medium synthetic city, dense
enough that a full rebuild visibly hurts — folded into one
``delay_stream`` record (shape pinned by
:data:`repro.benchops.RECORD_SHAPES`):

* **Replan speedup** — the tentpole's number.  Small live batches
  (≤5 trains: rush-hour cascades and rolling disruptions from
  :func:`repro.synthetic.delays.generate_delay_stream`) applied to a
  prepared service twice: ``mode="full"`` (cold rebuild of graph +
  packed arrays) vs ``mode="incremental"`` (patch only the touched
  travel-time functions of the pack, :mod:`repro.graph.td_patch`).  Both yield
  bitwise-identical datasets (``tests/streams``); the bench asserts
  the delta path is worth having: **≥ 3× median speedup**.

* **Sustained swap rate under closed-loop load** — the operational
  half.  A real ``TransitServer`` over TCP serves closed-loop query
  threads while the replay harness (:mod:`repro.streams.replay`)
  posts a zero-offset stream — each commit acknowledged before the
  next is sent, i.e. the swap path itself is driven closed-loop.
  Reported: committed swaps/minute, query throughput alongside, and
  the contract check (zero failed requests) that the fleet CI smoke
  also enforces.

The distance table is off here: delays must propagate into *serving*
within tens of milliseconds, and the production answer for that
regime is the incremental path over the packed arrays (a table rebuild
is a prepare-time cost either way — ``bench_table2`` owns it).
"""

from __future__ import annotations

import statistics
import time

from repro.analysis.formatting import format_table
from repro.client import HttpBackend, RetryPolicy
from repro.server import DatasetRegistry, ServerMetrics
from repro.service import ServiceConfig, TransitService
from repro.streams import ReplayConfig, replay_stream
from repro.synthetic.delays import generate_delay_stream
from repro.synthetic.instances import make_instance

from tests.server.harness import ServerHarness

INSTANCE = "washington"
#: ≤5-train live batches (the acceptance bar's batch size).
MAX_TRAINS = 5
BATCH_SHAPES = ("rush_hour_cascade", "rolling_disruption")
#: Replan pairs timed per scale.
NUM_BATCHES = {"tiny": 4, "small": 6, "medium": 8}
#: Streamed commits driven through the live server per scale.
STREAM_EVENTS = {"tiny": 10, "small": 20, "medium": 30}
QUERY_THREADS = 4
SERVER_WORKERS = 4
#: Acceptance floor: median full/incremental replan time ratio.
MIN_REPLAN_SPEEDUP = 3.0

CONFIG = ServiceConfig(num_threads=4)


def _time_replans(service, stream):
    full_ms, incremental_ms = [], []
    for event in stream.events:
        delays = list(event.delays)
        t0 = time.perf_counter()
        service.apply_delays(delays, slack_per_leg=event.slack_per_leg)
        full_ms.append((time.perf_counter() - t0) * 1000)
        t0 = time.perf_counter()
        replanned = service.apply_delays(
            delays, slack_per_leg=event.slack_per_leg, mode="incremental"
        )
        incremental_ms.append((time.perf_counter() - t0) * 1000)
        assert replanned.prepare_stats.incremental
    return full_ms, incremental_ms


def test_delay_stream_ops(report, benchops, scale):
    timetable = make_instance(INSTANCE, scale)
    service = TransitService(timetable, CONFIG)

    # -- replan speedup -------------------------------------------------
    batches = generate_delay_stream(
        timetable,
        seed=11,
        num_events=NUM_BATCHES[scale],
        duration_s=0.0,
        shapes=BATCH_SHAPES,
        max_trains_per_event=MAX_TRAINS,
    )
    # Warm-up pair: lazy kernel mirrors out of the measurement.
    _time_replans(service, generate_delay_stream(
        timetable, seed=12, num_events=1, duration_s=0.0,
        shapes=BATCH_SHAPES, max_trains_per_event=MAX_TRAINS,
    ))
    full_ms, incremental_ms = _time_replans(service, batches)
    full_median = statistics.median(full_ms)
    incremental_median = statistics.median(incremental_ms)
    speedup = full_median / incremental_median

    # -- sustained swaps under closed-loop load -------------------------
    stream = generate_delay_stream(
        timetable,
        seed=13,
        num_events=STREAM_EVENTS[scale],
        duration_s=0.0,  # zero offsets: the poster runs closed-loop
        shapes=BATCH_SHAPES,
        max_trains_per_event=MAX_TRAINS,
    )
    registry = DatasetRegistry.from_services({"bench": service})
    harness = ServerHarness(
        registry,
        workers=SERVER_WORKERS,
        max_inflight=QUERY_THREADS * 4 + 4,
        metrics=ServerMetrics(),
    )
    try:
        replay = replay_stream(
            stream,
            lambda: HttpBackend(
                f"http://127.0.0.1:{harness.port}/bench",
                timeout=120,
                pool_size=1,
                retry=RetryPolicy(retries=0),
            ),
            ReplayConfig(
                query_threads=QUERY_THREADS,
                speed=1000.0,
                replan="incremental",
            ),
        ).check()
    finally:
        harness.close()
    metrics = replay.metrics
    swaps_per_minute = metrics["replans_per_second"] * 60.0

    table = format_table(
        ["measure", "value"],
        [
            ["full replan (median)", f"{full_median:.1f} ms"],
            ["incremental replan (median)", f"{incremental_median:.1f} ms"],
            ["replan speedup", f"{speedup:.1f}x"],
            ["streamed commits", str(stream.num_events)],
            ["swaps/minute (closed loop)", f"{swaps_per_minute:.0f}"],
            ["query throughput alongside", f"{metrics['queries_per_second']:.0f} qps"],
            ["swap ack p-max", f"{metrics['swap_seconds_max'] * 1000:.1f} ms"],
            ["failed requests", str(replay.failed_requests)],
        ],
    )
    report.add(
        "delay_stream",
        f"[scale={scale}, {INSTANCE}, ≤{MAX_TRAINS}-train batches, "
        f"{QUERY_THREADS} query threads]\n{table}\n",
    )
    benchops.add(
        "delay_stream",
        {
            "replan_full_ms": full_median,
            "replan_incremental_ms": incremental_median,
            "replan_speedup": speedup,
            "swaps_per_minute": swaps_per_minute,
            "replay_qps": metrics["queries_per_second"],
            "failed_requests": float(replay.failed_requests),
        },
        config={
            "instance": INSTANCE,
            "max_trains_per_event": MAX_TRAINS,
            "shapes": list(BATCH_SHAPES),
            "num_batches": NUM_BATCHES[scale],
            "stream_events": STREAM_EVENTS[scale],
            "query_threads": QUERY_THREADS,
            "server_workers": SERVER_WORKERS,
            "kernel": CONFIG.kernel,
        },
    )

    assert replay.failed_requests == 0
    assert metrics["delay_posts_total"] == stream.num_events
    assert speedup >= MIN_REPLAN_SPEEDUP, (
        f"incremental replanning bought only {speedup:.1f}x over the "
        f"full rebuild on {INSTANCE} (floor {MIN_REPLAN_SPEEDUP:.1f}x; "
        f"full {full_median:.1f} ms, incremental {incremental_median:.1f} ms)"
    )
