"""Closed-loop load test of the query server.

A fleet of closed-loop clients (each waits for its answer before
sending the next request) hammers one dataset's journey endpoint over
real TCP with persistent connections — each client is an
:class:`repro.client.HttpBackend` with a single pooled keep-alive
connection, i.e. the production SDK path, not a hand-rolled socket
loop.

The workload is the distance-table serving shape: every pair has both
endpoints in ``S_trans``, so queries classify "table" and answer in
microseconds — which is the paper's production regime (the table
exists precisely to make interactive queries sub-millisecond) and the
regime where the server's own per-request cost is the dominant cost:
HTTP and JSON, and no executor hand-off, because a table journey takes
no search and is answered on the event loop (``docs/SERVER.md``,
"Execution model").

Reported: QPS plus client-side p50/p99 latency at ``CLIENTS`` clients,
and a **1-client row** — its p50 is the latency a single interactive
user sees.  The drive is repeated for ``ROUNDS`` rounds and the median
round (by QPS, by p50 for the 1-client row) is reported: one drive
lasts a fraction of a second, far shorter than a shared box's slow
phases.  Asserted: nothing in the server waits on a clock (1-client
p50 under ``NO_WAIT_P50_MS``; the 2 ms collection window this server
once had put it near 3 ms).

The ``server_throughput`` records written from this file are **not
config-comparable** with the trajectory's first entry: that one
compared a timed 3 ms micro-batch window against one-job-per-request
dispatch (``micro_*`` / ``naive_*`` metrics).  Grouping is gone from
the executor (``docs/SERVER.md``, "Execution model"), so there is one
dispatch left to measure — the gate starts a fresh lineage at the
first entry with ``loaded_*`` / ``solo_*`` metrics.

Answers are not checked here (the e2e suite pins parity); the result
cache is disabled so every request pays its lookup.
"""

from __future__ import annotations

import os
import random
import statistics
import threading
import time

from repro.analysis.formatting import format_table
from repro.client import HttpBackend, RetryPolicy
from repro.server import DatasetRegistry, ServerMetrics
from repro.service import ServiceConfig, TransitService
from repro.synthetic.instances import make_instance

from tests.fleet.harness import FleetHarness
from tests.server.harness import ServerHarness

INSTANCE = "oahu"
#: Closed-loop clients (each holds one keep-alive connection).
CLIENTS = 8
#: Requests per client per round.
REQUESTS = {"tiny": 40, "small": 60, "medium": 80}
#: Worker threads per server.
WORKERS = 8
#: Rounds driven; the median round is reported.
ROUNDS = 5
#: Ceiling on the 1-client p50 over the table pairs: a lone request
#: must not wait on anything.
NO_WAIT_P50_MS = 1.5

#: Distance table over half the stations: the benched pairs all
#: classify "table".  Result cache off: every request pays its lookup,
#: so the trajectory tracks serving cost, not cache luck.
CONFIG = ServiceConfig(
    num_threads=1,
    result_cache_size=0,
    use_distance_table=True,
    transfer_fraction=0.5,
)


def _journey_call(backend: HttpBackend, item) -> None:
    source, target = item
    answer = backend.journey(source, target)
    assert answer.source == source and answer.target == target


def _drive(
    harness: ServerHarness,
    pairs,
    requests_per_client,
    *,
    call=_journey_call,
    clients: int = CLIENTS,
) -> dict:
    """Run the closed loop; returns QPS + latency percentiles.

    ``call(backend, item)`` issues one request for one workload item
    (default: a journey for a ``(source, target)`` pair); the latency
    sample wraps exactly that one exchange.
    """
    latencies: list[list[float]] = [[] for _ in range(clients)]
    barrier = threading.Barrier(clients + 1)

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
                item = pairs[(cid * requests_per_client + i) % len(pairs)]
                t0 = time.perf_counter()
                call(backend, item)
                latencies[cid].append(time.perf_counter() - t0)
        finally:
            backend.close()

    threads = [
        threading.Thread(target=client, args=(cid,)) for cid in range(clients)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0

    flat = sorted(lat for per_client in latencies for lat in per_client)
    total = len(flat)
    return {
        "requests": total,
        "wall": wall,
        "qps": total / wall,
        "p50_ms": statistics.quantiles(flat, n=100)[49] * 1000,
        "p99_ms": statistics.quantiles(flat, n=100)[98] * 1000,
    }


def _server(service) -> ServerHarness:
    registry = DatasetRegistry.from_services({"bench": service})
    return ServerHarness(
        registry,
        workers=WORKERS,
        max_inflight=CLIENTS * 4,
        metrics=ServerMetrics(),
    )


def _median_round(rounds: list[dict], key: str) -> dict:
    return sorted(rounds, key=lambda row: row[key])[len(rounds) // 2]


def test_journey_serving_throughput(report, benchops, scale):
    timetable = make_instance(INSTANCE, scale)
    requests_per_client = REQUESTS[scale]
    service = TransitService(timetable, CONFIG)
    transfer = [int(s) for s in service.table.transfer_stations]
    rng = random.Random(3)
    pairs = [
        tuple(rng.sample(transfer, 2))
        for _ in range(CLIENTS * requests_per_client)
    ]

    harness = _server(service)
    loaded_rounds: list[dict] = []
    solo_rounds: list[dict] = []
    try:
        # Warm-up: JIT-free Python, but the first requests pay lazy
        # engine/kernel-mirror setup; keep them out of the measurement.
        _drive(harness, pairs[:CLIENTS], 2)
        for _ in range(ROUNDS):
            loaded_rounds.append(_drive(harness, pairs, requests_per_client))
            solo_rounds.append(
                _drive(harness, pairs, requests_per_client * 2, clients=1)
            )
    finally:
        harness.close()
    loaded = _median_round(loaded_rounds, "qps")
    solo = _median_round(solo_rounds, "p50_ms")

    table = format_table(
        ["clients", "reqs", "QPS", "p50 [ms]", "p99 [ms]"],
        [
            [
                str(clients),
                str(row["requests"]),
                f"{row['qps']:.0f}",
                f"{row['p50_ms']:.2f}",
                f"{row['p99_ms']:.2f}",
            ]
            for clients, row in ((CLIENTS, loaded), (1, solo))
        ],
    )
    report.add(
        "server_throughput",
        f"[scale={scale}, closed-loop clients, {WORKERS} workers, "
        f"{INSTANCE}, median round of {ROUNDS}]\n{table}\n",
    )
    benchops.add(
        "server_throughput",
        {
            "loaded_qps": loaded["qps"],
            "loaded_p50_ms": loaded["p50_ms"],
            "loaded_p99_ms": loaded["p99_ms"],
            "solo_qps": solo["qps"],
            "solo_p50_ms": solo["p50_ms"],
            "solo_p99_ms": solo["p99_ms"],
        },
        config={
            "instance": INSTANCE,
            "clients": CLIENTS,
            "requests_per_client": requests_per_client,
            "workers": WORKERS,
            "rounds": ROUNDS,
        },
    )

    assert solo["p50_ms"] < NO_WAIT_P50_MS, (
        f"1-client p50 {solo['p50_ms']:.2f} ms — a lone request must "
        f"not wait on anything (ceiling {NO_WAIT_P50_MS} ms)"
    )


# ---------------------------------------------------------------------------
# Query zoo: the three promoted shapes under closed-loop serving load.
# ---------------------------------------------------------------------------

#: Requests per client per zoo shape (each shape pays a full §6 search
#: or two chained profile queries per request — heavier than the
#: table-classified journeys above).
ZOO_REQUESTS = {"tiny": 20, "small": 30, "medium": 40}
#: One anchored departure: the zoo shapes are time queries.
ZOO_DEPARTURE = 480


def test_query_zoo_serving_throughput(report, benchops, scale):
    """Closed-loop QPS + latency for multicriteria, via and
    min-transfers through the production server path.

    Same harness and client discipline as the journey bench above, one
    served dataset, result cache off — so each request pays its real
    query cost and the recorded per-shape QPS/p99 trajectory gates the
    serving cost of the promoted shapes, not cache luck.  ``mixed``
    interleaves all three shapes per client, the realistic front-door
    blend.
    """
    timetable = make_instance(INSTANCE, scale)
    requests_per_client = ZOO_REQUESTS[scale]
    service = TransitService(timetable, CONFIG)
    rng = random.Random(11)
    stations = range(timetable.num_stations)
    triples = [
        tuple(rng.sample(stations, 3))
        for _ in range(CLIENTS * requests_per_client)
    ]

    def mc_call(backend, item):
        source, _, target = item
        answer = backend.multicriteria(source, target, departure=ZOO_DEPARTURE)
        assert answer.stats.kind == "multicriteria"

    def via_call(backend, item):
        source, via, target = item
        answer = backend.via(source, via, target, departure=ZOO_DEPARTURE)
        assert answer.stats.kind == "via"

    def mt_call(backend, item):
        source, _, target = item
        answer = backend.min_transfers(source, target, departure=ZOO_DEPARTURE)
        assert answer.stats.kind == "min_transfers"

    def mixed_call(backend, item):
        (mc_call, via_call, mt_call)[sum(item) % 3](backend, item)

    registry = DatasetRegistry.from_services({"bench": service})
    harness = ServerHarness(
        registry,
        workers=WORKERS,
        max_inflight=CLIENTS * 4,
        metrics=ServerMetrics(),
    )
    rows: dict[str, dict] = {}
    shapes = (
        ("multicriteria", mc_call),
        ("via", via_call),
        ("min_transfers", mt_call),
        ("mixed", mixed_call),
    )
    try:
        _drive(harness, triples[:CLIENTS], 2, call=mixed_call)  # warm-up
        for name, call in shapes:
            rows[name] = _drive(
                harness, triples, requests_per_client, call=call
            )
    finally:
        harness.close()

    table = format_table(
        ["shape", "reqs", "QPS", "p50 [ms]", "p99 [ms]"],
        [
            [
                name,
                str(rows[name]["requests"]),
                f"{rows[name]['qps']:.0f}",
                f"{rows[name]['p50_ms']:.1f}",
                f"{rows[name]['p99_ms']:.1f}",
            ]
            for name, _ in shapes
        ],
    )
    report.add(
        "server_throughput",
        f"[query zoo: scale={scale}, {CLIENTS} closed-loop clients, "
        f"{WORKERS} workers, {INSTANCE}]\n{table}\n",
    )
    benchops.add(
        "query_zoo",
        {
            "multicriteria_qps": rows["multicriteria"]["qps"],
            "via_qps": rows["via"]["qps"],
            "min_transfers_qps": rows["min_transfers"]["qps"],
            "mixed_qps": rows["mixed"]["qps"],
            "multicriteria_p99_ms": rows["multicriteria"]["p99_ms"],
            "via_p99_ms": rows["via"]["p99_ms"],
            "min_transfers_p99_ms": rows["min_transfers"]["p99_ms"],
        },
        config={
            "instance": INSTANCE,
            "clients": CLIENTS,
            "requests_per_client": requests_per_client,
            "workers": WORKERS,
            "departure": ZOO_DEPARTURE,
        },
    )

    # Every shape answered its full closed loop through the server.
    want = CLIENTS * requests_per_client
    for name, _ in shapes:
        assert rows[name]["requests"] == want, (name, rows[name])


# ---------------------------------------------------------------------------
# Fleet mode: N worker processes behind the routing gateway.
# ---------------------------------------------------------------------------

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

    This is the subsystem's reason to exist: ``TransitServer`` is one
    CPython process, so its query compute serializes on the GIL no
    matter how many threads it runs; worker *processes* each bring
    their own interpreter.  The workload is therefore the opposite of
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
