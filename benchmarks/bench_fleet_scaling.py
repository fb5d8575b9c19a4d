"""Fleet mode: QPS of N worker processes behind the routing gateway.

A fleet of closed-loop clients (each waits for its answer before
sending the next request) drives one dataset's journey endpoint through
a :class:`repro.fleet.FleetGateway` over real TCP with persistent
connections — each client is an :class:`repro.client.HttpBackend` with
a single pooled keep-alive connection, i.e. the production SDK path.
Every pair forces a full search, so per-request CPU dwarfs the
gateway's passthrough cost.

Reported and recorded as the ``fleet_scaling`` trajectory: QPS,
speed-up over the 1-worker fleet and p50 latency per fleet size.
Answers are not checked here (the e2e suite pins parity); the result
cache is disabled so every request pays its search.
"""

from __future__ import annotations

import os
import random
import statistics
import threading
import time

from repro.analysis.formatting import format_table
from repro.client import HttpBackend, RetryPolicy
from repro.service import ServiceConfig, TransitService
from repro.synthetic.instances import make_instance

from tests.fleet.harness import FleetHarness

INSTANCE = "oahu"
#: Closed-loop clients (each holds one keep-alive connection).
CLIENTS = 8

#: Distance table over half the stations (the benched pairs all start
#: outside it).  Result cache off: every request pays its search.
CONFIG = ServiceConfig(
    num_threads=1,
    result_cache_size=0,
    use_distance_table=True,
    transfer_fraction=0.5,
)


def _drive(harness: FleetHarness, pairs, requests_per_client) -> dict:
    """Run ``CLIENTS`` closed-loop journey clients over ``pairs``;
    returns QPS + latency percentiles.  A latency sample wraps exactly
    one exchange."""
    latencies: list[list[float]] = [[] for _ in range(CLIENTS)]
    barrier = threading.Barrier(CLIENTS + 1)

    def client(cid: int) -> None:
        # One backend per closed-loop client: a single persistent
        # keep-alive connection, retries off so every latency sample
        # is one exchange (max_inflight is sized to never 503 here).
        backend = HttpBackend(
            f"http://127.0.0.1:{harness.port}/bench",
            timeout=60,
            pool_size=1,
            retry=RetryPolicy(retries=0),
        )
        try:
            barrier.wait()
            for i in range(requests_per_client):
                source, target = pairs[
                    (cid * requests_per_client + i) % len(pairs)
                ]
                t0 = time.perf_counter()
                answer = backend.journey(source, target)
                assert answer.source == source and answer.target == target
                latencies[cid].append(time.perf_counter() - t0)
        finally:
            backend.close()

    threads = [
        threading.Thread(target=client, args=(cid,)) for cid in range(CLIENTS)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0

    flat = sorted(lat for per_client in latencies for lat in per_client)
    return {
        "requests": len(flat),
        "qps": len(flat) / wall,
        "p50_ms": statistics.quantiles(flat, n=100)[49] * 1000,
        "p99_ms": statistics.quantiles(flat, n=100)[98] * 1000,
    }


#: Fleet sizes swept (workers per gateway).
FLEET_SIZES = (1, 2, 4)
#: Requests per client per fleet size.
FLEET_REQUESTS = {"tiny": 15, "small": 25, "medium": 40}
#: Acceptance floors vs the 1-worker fleet, from the PR bar — asserted
#: only where the hardware can express process parallelism at all
#: (``cpu_count > workers``); always *recorded* either way.
FLEET_MIN_SPEEDUP = {2: 1.6, 4: 2.5}
#: Even on a starved box the gateway must not collapse throughput.
FLEET_SANITY_FLOOR = 0.3


def test_fleet_scaling_near_linear(
    report, benchops, scale, tmp_path_factory
):
    """QPS scaling 1 → 2 → 4 worker processes behind one gateway.

    One ``TransitServer`` already searches on every usable core: its
    event loop hands each search to one of its datasets' search worker
    processes (``docs/SERVER.md``, "Execution model").  What the fleet
    adds is whole servers — isolation, failover and more front ends —
    so on one box the curve measures what several servers and a
    gateway hop give over one server, with the cores as the ceiling
    either way.  The workload is the opposite of
    the journey bench above: every pair forces a full search
    (at least one endpoint outside ``S_trans``, result cache off), so
    per-request CPU dwarfs the gateway's passthrough cost and the
    measurable ceiling is compute, not HTTP framing.
    """
    timetable = make_instance(INSTANCE, scale)
    requests_per_client = FLEET_REQUESTS[scale]
    service = TransitService(timetable, CONFIG)
    # Workers warm-start from one shared on-disk store — the fleet's
    # deployment shape (and mmap lets the OS share the pages).
    store = tmp_path_factory.mktemp("fleet-bench") / "bench"
    service.save(store)

    transfer = {int(s) for s in service.table.transfer_stations}
    outside = [
        s for s in range(timetable.num_stations) if s not in transfer
    ]
    rng = random.Random(7)
    pairs = []
    for _ in range(CLIENTS * requests_per_client):
        source = rng.choice(outside)  # never classifies "table"
        target = rng.randrange(timetable.num_stations)
        while target == source:
            target = rng.randrange(timetable.num_stations)
        pairs.append((source, target))

    rows: dict[int, dict] = {}
    for num_workers in FLEET_SIZES:
        fleet = FleetHarness(
            [store],
            num_workers,
            runtime_dir=tmp_path_factory.mktemp(f"fleet-{num_workers}w"),
            gateway_kwargs={"max_inflight": CLIENTS * 4},
        )
        try:
            _drive(fleet, pairs[:CLIENTS], 2)  # warm-up, unmeasured
            rows[num_workers] = _drive(fleet, pairs, requests_per_client)
        finally:
            fleet.close()

    base_qps = rows[FLEET_SIZES[0]]["qps"]
    cores = os.cpu_count() or 1
    table = format_table(
        ["workers", "reqs", "QPS", "speedup", "p50 [ms]", "p99 [ms]"],
        [
            [
                str(n),
                str(rows[n]["requests"]),
                f"{rows[n]['qps']:.0f}",
                f"{rows[n]['qps'] / base_qps:.2f}x",
                f"{rows[n]['p50_ms']:.1f}",
                f"{rows[n]['p99_ms']:.1f}",
            ]
            for n in FLEET_SIZES
        ],
    )
    report.add(
        "server_throughput",
        f"[fleet mode: scale={scale}, {CLIENTS} closed-loop clients, "
        f"full-search pairs, {cores} cores]\n{table}\n",
    )
    benchops.add(
        "fleet_scaling",
        {
            **{f"fleet_qps_{n}": rows[n]["qps"] for n in FLEET_SIZES},
            **{
                f"fleet_speedup_{n}": rows[n]["qps"] / base_qps
                for n in FLEET_SIZES[1:]
            },
            **{f"fleet_p50_ms_{n}": rows[n]["p50_ms"] for n in FLEET_SIZES},
        },
        config={
            "instance": INSTANCE,
            "clients": CLIENTS,
            "requests_per_client": requests_per_client,
            "fleet_sizes": list(FLEET_SIZES),
            "cpu_count": cores,
        },
    )

    for num_workers, floor in FLEET_MIN_SPEEDUP.items():
        speedup = rows[num_workers]["qps"] / base_qps
        if cores > num_workers:
            assert speedup >= floor, (
                f"{num_workers}-worker fleet reached only "
                f"{speedup:.2f}x the 1-worker QPS (need ≥{floor}x on "
                f"{cores} cores)"
            )
        else:
            # One interpreter per core is the whole premise; with
            # cpu_count <= workers there is no parallelism to measure.
            # The trajectory still records the (flat) curve.
            assert speedup >= FLEET_SANITY_FLOOR, (
                f"gateway collapsed throughput at {num_workers} workers: "
                f"{speedup:.2f}x (sanity floor {FLEET_SANITY_FLOOR}x)"
            )
