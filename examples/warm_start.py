#!/usr/bin/env python3
"""Warm-start serving: persist prepared artifacts, reload in milliseconds.

The serving lifecycle of :mod:`repro.store`:

1. prepare once (graph build + packing + station graph + transfer
   selection + distance table) and ``service.save(path)``;
2. every later process calls ``TransitService.load(path)`` — no
   builder runs, the numpy buffers are memory-mapped, and answers are
   bitwise-identical to the cold service;
3. repeated requests are served from the per-service LRU result cache;
4. ``apply_delays`` returns a fresh service with an empty cache, so
   stale answers can never leak past a delay.

Run:  python examples/warm_start.py
"""

import tempfile
import time
from pathlib import Path

from repro import Delay, ServiceConfig, TransitService, make_instance
from repro.store import describe_store


def main() -> None:
    timetable = make_instance("losangeles", scale="small")
    config = ServiceConfig(
        num_threads=4,
        use_distance_table=True,
        transfer_fraction=0.05,
    )

    # --- 1. Cold prepare + save (paid once per dataset) ---------------
    t0 = time.perf_counter()
    service = TransitService(timetable, config)
    cold_seconds = time.perf_counter() - t0
    stats = service.prepare_stats
    print(timetable.summary())
    print(
        f"cold prepare: {cold_seconds * 1000:.0f} ms "
        f"(graph {stats.graph_seconds * 1000:.0f} ms, "
        f"pack {stats.pack_seconds * 1000:.0f} ms, "
        f"table {stats.table_seconds * 1000:.0f} ms)"
    )

    store = Path(tempfile.mkdtemp()) / "la-store"
    service.save(store)
    info = describe_store(store)
    print(
        f"store: {info['total_bytes'] / 1024:.0f} KiB on disk, "
        f"format v{info['format_version']}, "
        f"config {info['config_hash'][:12]}…\n"
    )

    # --- 2. Warm start (every process start after the first) ----------
    t0 = time.perf_counter()
    warm = TransitService.load(store)
    warm_seconds = time.perf_counter() - t0
    assert warm.prepare_stats.loaded_from_store
    print(
        f"warm start: {warm_seconds * 1000:.0f} ms "
        f"({cold_seconds / warm_seconds:.1f}x faster, zero builds)"
    )

    source, target = 0, timetable.num_stations // 2
    cold_answer = service.journey(source, target)
    warm_answer = warm.journey(source, target)
    assert (cold_answer.profile.deps == warm_answer.profile.deps).all()
    print(
        f"journey {source} → {target}: {len(warm_answer.profile)} profile "
        f"points, identical cold vs warm\n"
    )

    # --- 3. The result cache serves repeats from memory ---------------
    t0 = time.perf_counter()
    warm.journey(source, target)  # already computed above -> cache hit
    hit_seconds = time.perf_counter() - t0
    cache = warm.cache_stats
    print(
        f"repeat answered in {hit_seconds * 1e6:.0f} µs from cache "
        f"({cache.hits} hits / {cache.misses} misses)"
    )

    # --- 4. Delays invalidate by construction -------------------------
    delayed = warm.apply_delays([Delay(train=0, minutes=30)])
    print(
        f"after a delay: new service, cache starts empty "
        f"(size {delayed.cache_stats.size}) — no stale answers possible"
    )


if __name__ == "__main__":
    main()
