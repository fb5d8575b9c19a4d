"""Fleet mode against one pooled ``serve``: the three-arm record.

Three arms serve one workload on one box: one ``serve --workers 2``
at its own port (``direct``), the same ``serve`` through a gateway
(``gateway``: the hop), and two ``serve --workers 1`` behind a gateway
(``split``: the cores divided).  ``CLIENTS`` closed-loop
:class:`repro.client.HttpBackend` clients, one keep-alive connection
each, ask journeys that each pay a full search (sources outside
``S_trans``, result cache off).  Every arm first answers
``CHECKED_PAIRS`` seeded pairs, each equal to the in-process answer,
and is warmed by one unmeasured pass of all clients; then ``ROUNDS``
rounds run the arms in a seeded-shuffled order, every answer's pair
checked.  The ``fleet_scaling`` record holds each arm's qps per round,
median qps and p50, with ``cpu_count`` and the in-process qps of one
core over the same pairs (the box's speed in that run).  No qps floor is asserted: the fleet is
for failover, catch-up and generation-routed swaps (``docs/FLEET.md``).
"""

from __future__ import annotations

import contextlib
import os
import random
import statistics
import threading
import time

from repro.analysis.formatting import format_table
from repro.client import HttpBackend, LocalBackend, RetryPolicy
from repro.service import ServiceConfig, TransitService
from repro.synthetic.instances import make_instance

from tests.helpers import scrubbed
from tests.fleet.harness import FleetHarness

INSTANCE = "oahu"
#: Closed-loop clients (each holds one keep-alive connection).
CLIENTS = 8
#: Requests per client per arm and round.
REQUESTS_PER_CLIENT = {"tiny": 15, "small": 100, "medium": 40}
#: Seeded pairs every arm must answer like the in-process service.
CHECKED_PAIRS = 16
ROUNDS = 5
#: Search processes on the box in every arm.
SEARCH_WORKERS = 2
#: Per arm: serves, and search workers per serve.
ARM_SHAPES = {
    "direct": [1, SEARCH_WORKERS],
    "gateway": [1, SEARCH_WORKERS],
    "split": [SEARCH_WORKERS, 1],
}
ARMS = tuple(ARM_SHAPES)

#: Distance table over half the stations (the benched pairs all start
#: outside it).  Result cache off: every request pays its search.
CONFIG = ServiceConfig(
    num_threads=1,
    result_cache_size=0,
    use_distance_table=True,
    transfer_fraction=0.5,
)


def _drive(url: str, pairs, requests_per_client: int) -> dict:
    """Run ``CLIENTS`` closed-loop journey clients over ``pairs``;
    returns QPS and the latencies.  A latency sample wraps exactly one
    exchange."""
    latencies: list[list[float]] = [[] for _ in range(CLIENTS)]
    barrier = threading.Barrier(CLIENTS + 1)

    def client(cid: int) -> None:
        # Retries off so every latency sample is one exchange
        # (max_inflight is sized to never 503 here).
        backend = HttpBackend(
            url, timeout=60, pool_size=1, retry=RetryPolicy(retries=0)
        )
        try:
            barrier.wait()
            for i in range(requests_per_client):
                pair = pairs[(cid * requests_per_client + i) % len(pairs)]
                t0 = time.perf_counter()
                answer = backend.journey(*pair)
                latencies[cid].append(time.perf_counter() - t0)
                assert (answer.source, answer.target) == pair
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
    flat = [lat for per_client in latencies for lat in per_client]
    return {"qps": len(flat) / wall, "latencies": flat}


def test_fleet_against_pooled_serve(
    report, benchops, scale, tmp_path_factory
):
    timetable = make_instance(INSTANCE, scale)
    requests_per_client = REQUESTS_PER_CLIENT[scale]
    service = TransitService(timetable, CONFIG)
    # Every serve warm-starts from one shared on-disk store.
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

    # One core, no HTTP, the same pairs: the box's search speed in this
    # run.  Every arm's qps moves with it from one session to the next.
    oracle = LocalBackend(service, name="bench")
    t0 = time.perf_counter()
    answers = [oracle.journey(s, t) for s, t in pairs]
    qps_in_process = len(pairs) / (time.perf_counter() - t0)
    expected = [scrubbed(answer) for answer in answers[:CHECKED_PAIRS]]

    with contextlib.ExitStack() as fleets:

        def fleet(arm: str) -> FleetHarness:
            serves, search_workers = ARM_SHAPES[arm]
            harness = FleetHarness(
                [store],
                serves,
                runtime_dir=tmp_path_factory.mktemp(f"fleet-{arm}"),
                supervisor_kwargs={"search_workers": search_workers},
                gateway_kwargs={"max_inflight": CLIENTS * 4},
            )
            fleets.callback(harness.close)
            return harness

        pooled = fleet("gateway")
        split = fleet("split")
        urls = {
            "direct": f"http://127.0.0.1:{pooled.worker_ports()['w0']}/bench",
            "gateway": f"http://127.0.0.1:{pooled.port}/bench",
            "split": f"http://127.0.0.1:{split.port}/bench",
        }

        for arm, url in urls.items():
            backend = HttpBackend(url, timeout=60)
            try:
                got = [
                    scrubbed(backend.journey(s, t))
                    for s, t in pairs[:CHECKED_PAIRS]
                ]
            finally:
                backend.close()
            assert got == expected, f"{arm} answers differ from in-process"
            # Unmeasured, all clients at once: every connection and
            # search worker is warm before the first timed round.
            _drive(url, pairs[:CLIENTS], 2)

        qps: dict[str, list[float]] = {arm: [] for arm in ARMS}
        latencies: dict[str, list[float]] = {arm: [] for arm in ARMS}
        order_rng = random.Random(11)
        orders = []
        for _ in range(ROUNDS):
            order = list(ARMS)
            order_rng.shuffle(order)
            orders.append(order)
            for arm in order:
                run = _drive(urls[arm], pairs, requests_per_client)
                qps[arm].append(run["qps"])
                latencies[arm].extend(run["latencies"])

    median_qps = {arm: statistics.median(qps[arm]) for arm in ARMS}
    p50_ms = {arm: statistics.median(latencies[arm]) * 1000 for arm in ARMS}
    cores = os.cpu_count() or 1
    table = format_table(
        ["arm", "QPS per round", "median QPS", "p50 [ms]"],
        [
            [
                arm,
                " / ".join(f"{q:.0f}" for q in qps[arm]),
                f"{median_qps[arm]:.0f}",
                f"{p50_ms[arm]:.1f}",
            ]
            for arm in ARMS
        ],
    )
    report.add(
        "fleet_scaling",
        f"[fleet against one pooled serve: scale={scale}, {CLIENTS} "
        f"closed-loop clients, full-search pairs, {cores} cores, round "
        f"orders {orders}; in process on one core "
        f"{qps_in_process:.0f} QPS]\n{table}\n",
    )
    benchops.add(
        "fleet_scaling",
        {
            "qps_in_process": qps_in_process,
            **{f"qps_{arm}": median_qps[arm] for arm in ARMS},
            **{f"p50_ms_{arm}": p50_ms[arm] for arm in ARMS},
            **{
                f"qps_{arm}_round{i + 1}": value
                for arm in ARMS
                for i, value in enumerate(qps[arm])
            },
        },
        config={
            "instance": INSTANCE,
            "clients": CLIENTS,
            "requests_per_client": requests_per_client,
            "rounds": ROUNDS,
            "arms": ARM_SHAPES,
            "cpu_count": cores,
        },
    )
