"""``TransitService.batch`` ≡ one-at-a-time requests, bitwise, with and
without search workers.

A batch's whole contract is distribution without semantic drift: for
any workload, kernel, distance table on or off and number of search
workers, every item of ``service.batch(...)`` must be exactly what
``service.journey`` / ``service.profile`` answer for that request on
its own — profile arrays element for element, legs, arrival and the
per-item :class:`QueryStats` (wall-clock fields aside) — including the
target-stopping path (no table), the distance-table pruning paths
(local/global classification, Theorems 3/4) and the trivial/table
shortcuts.  With workers each item is one ``_search`` job of the
generation's pool, like a profile's partitions; without, the items run
one after another on the calling thread.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.core.fanout import ForkPool
from repro.service import (
    BatchRequest,
    JourneyRequest,
    ProfileRequest,
    ServiceConfig,
    TransitService,
)
from repro.synthetic.workloads import random_station_pairs

from tests.oracles.reference_service import SERVICE_OF_KERNEL

#: Search workers the batching service has: none, or two.
WORKERS = (0, 2)
WORKER_IDS = ["no-workers", "2-workers"]
KERNELS = ("python", "flat")


@pytest.fixture()
def make_service(oahu_tiny):
    """``make_service(workers, **config)``: distance table on (fraction
    0.3) unless the test says otherwise, the result cache off so every
    single request really searches, and ``workers`` search workers
    (stopped when the test ends)."""
    services: list[TransitService] = []

    def make(workers: int = 0, kernel: str = "flat", **config) -> TransitService:
        config.setdefault("use_distance_table", True)
        service = SERVICE_OF_KERNEL[kernel](
            oahu_tiny,
            ServiceConfig(
                num_threads=2,
                transfer_fraction=0.3,
                result_cache_size=0,
                **config,
            ),
        )
        if workers:
            service.start_workers(workers)
        services.append(service)
        return service

    yield make
    for service in services:
        service.stop_workers()


def workload(service: TransitService) -> BatchRequest:
    """Random pairs plus hand-picked ones hitting every classification
    — trivial (s == t), table (both transfer stations), the pruned
    local/global paths — one journey with legs, and profile searches
    with and without a per-request core count."""
    timetable = service.timetable
    pairs = random_station_pairs(timetable, 10, seed=7)
    pairs.append((3, 3))  # trivial
    if service.table is not None:
        transfer = [int(s) for s in service.table.transfer_stations]
        non_transfer = next(
            s
            for s in range(timetable.num_stations)
            if s not in set(transfer)
        )
        pairs.append((transfer[0], transfer[1]))  # table shortcut
        pairs.append((non_transfer, transfer[0]))  # target pruning path
    journeys = [JourneyRequest(s, t) for s, t in pairs]
    journeys.append(JourneyRequest(*pairs[0], departure=7 * 60))
    return BatchRequest(
        journeys=tuple(journeys),
        profiles=(ProfileRequest(0), ProfileRequest(4, num_threads=3)),
    )


def sans_clock(stats):
    return replace(stats, simulated_seconds=0.0, total_seconds=0.0)


def assert_batch_equals_singles(service, request, context):
    """Every batch item against the same request asked on its own."""
    got = service.batch(request)
    assert len(got.journeys) == len(request.journeys), context
    assert len(got.profiles) == len(request.profiles), context
    for req, res in zip(request.journeys, got.journeys):
        exp = service.journey(req)
        where = f"{req} {context}"
        assert (res.source, res.target) == (req.source, req.target), where
        assert res.profile.period == exp.profile.period, where
        assert np.array_equal(res.profile.deps, exp.profile.deps), where
        assert np.array_equal(res.profile.arrs, exp.profile.arrs), where
        assert (res.departure, res.arrival) == (exp.departure, exp.arrival)
        assert res.legs == exp.legs, where
        assert sans_clock(res.stats) == sans_clock(exp.stats), where
    for req, res in zip(request.profiles, got.profiles):
        exp = service.profile(req)
        where = f"{req} {context}"
        assert res.source == req.source, where
        assert np.array_equal(res.raw.merged.labels, exp.raw.merged.labels)
        assert np.array_equal(
            res.raw.merged.conn_deps, exp.raw.merged.conn_deps
        ), where
        assert sans_clock(res.stats) == sans_clock(exp.stats), where
    return got


@pytest.mark.parametrize("workers", WORKERS, ids=WORKER_IDS)
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("with_table", (False, True), ids=["plain", "table"])
def test_batch_matches_one_at_a_time(make_service, workers, kernel, with_table):
    service = make_service(
        workers, kernel=kernel, use_distance_table=with_table
    )
    got = assert_batch_equals_singles(
        service, workload(service), f"on {workers} workers/{kernel}"
    )
    classes = {j.stats.classification for j in got.journeys}
    if with_table:
        assert {"trivial", "table"} <= classes, (
            f"workload misses shortcut paths: {classes}"
        )
    assert got.journeys[-1].legs, "workload misses the legs path"


@pytest.mark.parametrize("workers", WORKERS, ids=WORKER_IDS)
def test_results_come_back_in_submission_order(make_service, workers):
    pairs = [(9, 2), (0, 5), (7, 1), (2, 9)]
    sources = [6, 1]
    got = make_service(workers).batch(
        BatchRequest(
            journeys=tuple(JourneyRequest(s, t) for s, t in pairs),
            profiles=tuple(ProfileRequest(s) for s in sources),
        )
    )
    assert [(j.source, j.target) for j in got.journeys] == pairs
    assert [p.source for p in got.profiles] == sources


@pytest.mark.parametrize("workers", WORKERS, ids=WORKER_IDS)
def test_each_item_is_one_search_job(make_service, monkeypatch, workers):
    """With workers the batch is composed here and searched there: one
    ``_search`` job per item that searches, journeys then profiles as
    submitted, each one ``ForkPool.submit`` — not the whole batch as
    one job, and not on this thread.  An undated journey between
    transfer stations or from a station to itself takes no search and
    no job (paper §4).  Without workers there is no pool to ask."""
    service = make_service(workers)
    request = workload(service)
    transfer = (
        {int(s) for s in service.table.transfer_stations}
        if service.table is not None
        else set()
    )

    def searches(item) -> bool:
        return not (
            isinstance(item, JourneyRequest)
            and item.departure is None
            and (
                item.source == item.target
                or {item.source, item.target} <= transfer
            )
        )
    jobs = []
    real_submit = ForkPool.submit

    def spy(pool, name, *args, **kwargs):
        jobs.append((name, args))
        return real_submit(pool, name, *args, **kwargs)

    monkeypatch.setattr(ForkPool, "submit", spy)
    service.batch(request)
    items = [*request.journeys, *request.profiles]
    searched = [item for item in items if searches(item)]
    assert len(searched) < len(items)  # the workload has table pairs
    expected = [("_search", (item,)) for item in searched]
    assert jobs == (expected if workers else [])


@pytest.mark.parametrize("workers", WORKERS, ids=WORKER_IDS)
def test_batch_stats_accounting(make_service, workers):
    """What a batch reports is what it did, never where: the stats of
    the same batch with and without workers agree, clock aside."""
    request = BatchRequest(
        journeys=(JourneyRequest(0, 1),), profiles=(ProfileRequest(2),)
    )
    stats = make_service(workers).batch(request).stats
    assert asdict(stats) == {
        "num_queries": 2, "kernel": "flat", "total_seconds": stats.total_seconds,
    }
    assert stats.total_seconds > 0
    assert stats.queries_per_second > 0


@pytest.mark.parametrize("workers", WORKERS, ids=WORKER_IDS)
@pytest.mark.parametrize("pairs", ([], [(0, 1)]), ids=["empty", "single"])
def test_tiny_batches(make_service, workers, pairs):
    """An empty batch and a one-item batch are answered like any other
    — by the calling thread or by one job."""
    service = make_service(workers)
    got = service.batch(pairs)
    assert got.stats.num_queries == len(pairs)
    assert [(j.source, j.target) for j in got.journeys] == pairs


@pytest.mark.parametrize("workers", WORKERS, ids=WORKER_IDS)
def test_two_services_batch_concurrently_without_clobbering(
    make_service, oahu_tiny_graph, workers
):
    """Regression: fork-worker state used to live under one shared
    module-global key, so two fan-outs at the same time clobbered each
    other (one batch silently ran on the other's distance table).  Each
    service's items go to its own workers, or run on its own thread."""
    plain = make_service(workers, use_distance_table=False)
    table = make_service(workers)
    request = BatchRequest.from_pairs(
        random_station_pairs(oahu_tiny_graph.timetable, 6, seed=21)
    )
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [
            pool.submit(assert_batch_equals_singles, service, request, name)
            for service, name in ((plain, "plain"), (table, "table"))
        ]
        got_plain, got_table = (f.result() for f in futures)
    # The two services really are different engines over this workload.
    assert [j.stats.classification for j in got_plain.journeys] != [
        j.stats.classification for j in got_table.journeys
    ]
