"""Cold prepare vs warm start from the artifact store.

The serving claim behind :mod:`repro.store`: a process that owns a
store warm-starts in a fraction of the cold prepare cost, because it
loads (mmap + hydrate) instead of building (graph build, packing,
station graph, transfer selection, distance table).  Measured per
instance:

* **cold** — ``TransitService(timetable, config)`` on an in-memory
  timetable (the prepare pipeline alone);
* **save** — serializing the prepared dataset;
* **warm** — ``TransitService.load(store)`` (best of three: the first
  load pays page-cache warming for everyone after it).

Asserted (the PR's acceptance bar): on the *largest* synthetic
instance, with the production config (flat kernel + distance table),
warm start is at least 5× faster than cold prepare at the default
benchmark scale.  At ``tiny`` scale — CI smoke territory, where every
stage costs ~10 ms and constant overheads dominate — the bar relaxes
to 2.5×.  A sanity check also pins one journey bitwise-equal between
the cold and warm service, so the speed-up is never bought with a
wrong answer.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.formatting import format_table
from repro.service import ServiceConfig, TransitService
from repro.synthetic.instances import make_instance

#: Smallest and largest bus instance plus the large rail instance —
#: the shapes bracket the packed-buffer and table sizes.
INSTANCES = ("oahu", "losangeles", "germany")
#: The instance the ≥5× assertion runs on (largest: most connections).
LARGEST = "losangeles"

CONFIG = ServiceConfig(
    num_threads=4,
    use_distance_table=True,
    transfer_fraction=0.05,
)

WARM_ROUNDS = 3
MIN_SPEEDUP = {"tiny": 2.5, "small": 5.0, "medium": 5.0}


def _bench_instance(instance: str, scale: str, store_root) -> dict:
    timetable = make_instance(instance, scale)
    t0 = time.perf_counter()
    cold_service = TransitService(timetable, CONFIG)
    cold_seconds = time.perf_counter() - t0

    store = store_root / instance
    t0 = time.perf_counter()
    cold_service.save(store)
    save_seconds = time.perf_counter() - t0

    warm_seconds = float("inf")
    warm_service = None
    for _ in range(WARM_ROUNDS):
        t0 = time.perf_counter()
        warm_service = TransitService.load(store)
        warm_seconds = min(warm_seconds, time.perf_counter() - t0)

    # Never trade correctness for the speed-up: one journey, bitwise.
    cold_answer = cold_service.journey(0, timetable.num_stations // 2)
    warm_answer = warm_service.journey(0, timetable.num_stations // 2)
    assert np.array_equal(cold_answer.profile.deps, warm_answer.profile.deps)
    assert np.array_equal(cold_answer.profile.arrs, warm_answer.profile.arrs)

    return {
        "instance": instance,
        "connections": timetable.num_connections,
        "cold": cold_seconds,
        "save": save_seconds,
        "warm": warm_seconds,
        "speedup": cold_seconds / warm_seconds,
    }


def test_warm_start_speedup(report, benchops, scale, tmp_path_factory):
    store_root = tmp_path_factory.mktemp("stores")
    rows = [
        _bench_instance(instance, scale, store_root)
        for instance in INSTANCES
    ]
    table = format_table(
        ["instance", "conns", "cold [ms]", "save [ms]", "warm [ms]", "spd-up"],
        [
            [
                r["instance"],
                f"{r['connections']:,}",
                f"{r['cold'] * 1000:.1f}",
                f"{r['save'] * 1000:.1f}",
                f"{r['warm'] * 1000:.1f}",
                f"{r['speedup']:.1f}x",
            ]
            for r in rows
        ],
    )
    report.add(
        "store_warmstart",
        f"[scale={scale}, config=flat+table(5%)]\n{table}\n",
    )
    metrics: dict[str, float] = {}
    for r in rows:
        metrics[f"{r['instance']}_cold_ms"] = r["cold"] * 1000
        metrics[f"{r['instance']}_warm_ms"] = r["warm"] * 1000
        metrics[f"{r['instance']}_warmstart_speedup"] = r["speedup"]
    benchops.add(
        "store_warmstart",
        metrics,
        config={
            "instances": list(INSTANCES),
            "largest": LARGEST,
            "warm_rounds": WARM_ROUNDS,
            "kernel": CONFIG.kernel,
            "transfer_fraction": CONFIG.transfer_fraction,
        },
    )

    largest = next(r for r in rows if r["instance"] == LARGEST)
    min_speedup = MIN_SPEEDUP[scale]
    assert largest["warm"] * min_speedup <= largest["cold"], (
        f"warm start regressed on {LARGEST}: {largest['warm'] * 1000:.1f} ms "
        f"vs cold prepare {largest['cold'] * 1000:.1f} ms "
        f"({largest['speedup']:.1f}x < {min_speedup}x at scale={scale})"
    )
