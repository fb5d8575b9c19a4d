"""Equivalence + prepare-once guarantees of the TransitService facade.

Two contracts:

1. **Answer equivalence** — for any dataset and config, the facade's
   profile / journey / batch answers are bitwise-identical to the
   pre-facade entry points (``parallel_profile_search``,
   ``StationToStationEngine``) it wraps; batch ≡ one request at a
   time is ``tests/query/test_batch_engine.py``.
2. **Prepare-once** — the expensive artifacts (graph pack, station
   graph, distance table) are built at most once per service instance,
   asserted via call counters on the underlying constructors.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import sys

import numpy as np
import pytest

import repro.service.prepare as prepare_mod
from repro.baselines.label_correcting import label_correcting_profile
from repro.client import LocalBackend
from repro.core.fanout import ForkPool, WorkerLost
from repro.core.multicriteria import mc_profile_search, mc_time_search
from repro.core.parallel import parallel_profile_search
from repro.core.spcs import spcs_profile_search
from repro.graph.station_graph import build_station_graph
from repro.graph.td_arrays import pack_timetable, packed_arrays
from repro.graph.td_model import build_td_graph
from repro.pq import AddressableHeap, LazyHeap
from repro.query.distance_table import build_distance_table
from repro.query.table_query import StationToStationEngine
from repro.query.transfer_selection import select_transfer_stations
from repro.service import (
    RUNTIME_FIELDS,
    BatchRequest,
    ProfileRequest,
    ServiceConfig,
    TransitService,
)
from repro.synthetic.workloads import random_station_pairs

from tests.helpers import random_line_timetable, scrubbed
from tests.oracles.mc_time_query import mc_time_query
from tests.oracles.reference_service import SERVICE_OF_KERNEL, ReferenceService
from tests.server.test_search_workers import CALLS

KERNELS = ("python", "flat")


def assert_profiles_bitwise_equal(expected, got, context=""):
    assert got.period == expected.period, context
    assert np.array_equal(got.deps, expected.deps), context
    assert np.array_equal(got.arrs, expected.arrs), context


# ---------------------------------------------------------------------------
# Answer equivalence vs the pre-facade paths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS)
def test_profile_matches_parallel_profile_search(oahu_tiny, kernel):
    service = SERVICE_OF_KERNEL[kernel](oahu_tiny, ServiceConfig(num_threads=2))
    graph = build_td_graph(oahu_tiny)
    for source in (0, 4, 9):
        expected = parallel_profile_search(
            graph, source, 2, kernel=kernel
        )
        got = service.profile(source)
        assert (
            got.stats.settled_connections
            == expected.stats.settled_connections
        )
        for target in range(oahu_tiny.num_stations):
            assert_profiles_bitwise_equal(
                expected.profile(target),
                got.profile(target),
                f"{source}->{target} [{kernel}]",
            )


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("with_table", (False, True), ids=["plain", "table"])
def test_journey_matches_station_to_station_engine(
    oahu_tiny, oahu_tiny_graph, kernel, with_table
):
    config = ServiceConfig(
        num_threads=2,
        use_distance_table=with_table,
        transfer_fraction=0.3,
    )
    service = SERVICE_OF_KERNEL[kernel](oahu_tiny, config)
    table = None
    if with_table:
        stations = select_transfer_stations(
            oahu_tiny, method="contraction", fraction=0.3
        )
        table = build_distance_table(packed_arrays(oahu_tiny_graph), stations)
    reference = StationToStationEngine(
        oahu_tiny_graph, table, num_threads=2, kernel=kernel
    )
    pairs = random_station_pairs(oahu_tiny, 8, seed=11) + [(3, 3)]
    for s, t in pairs:
        expected = reference.query(s, t)
        got = service.journey(s, t)
        assert got.stats.classification == expected.classification
        assert (
            got.stats.settled_connections == expected.settled_connections
        )
        assert_profiles_bitwise_equal(
            expected.profile, got.profile, f"{s}->{t}"
        )


def test_batch_accepts_raw_pairs(oahu_tiny):
    service = TransitService(oahu_tiny, ServiceConfig(num_threads=1))
    result = service.batch([(0, 5), (2, 7)])
    assert len(result.journeys) == 2
    assert result.journeys[0].source == 0
    assert result.journeys[0].target == 5


def test_a_batchs_items_run_in_the_workers_which_fork_nothing(
    oahu_tiny, monkeypatch
):
    """The generation's search workers *are* the processes: a batch's
    items are their jobs, and a worker runs its item — a profile's two
    partitions included — on its one thread.  A served batch used to
    fork a pool of its own inside a worker, per request — 2 workers x 4
    grandchildren on a 2-core box, behind admission control's back.
    Here the search is poisoned in this process once the workers are
    up, so every answer below came from them."""
    config = ServiceConfig(num_threads=2)
    request = BatchRequest(
        journeys=BatchRequest.from_pairs(
            [(0, 5), (2, 7), (1, 6), (3, 9), (4, 11), (7, 2)]
        ).journeys,
        profiles=(ProfileRequest(3),),
    )
    in_process = TransitService(oahu_tiny, config).batch(request)

    here = os.getpid()
    fork = ForkPool._fork

    def fork_here_only(pool, target):
        assert os.getpid() == here, "a search worker forked"
        return fork(pool, target)

    def poisoned(*args, **kwargs):
        raise AssertionError("a search ran in this process")

    monkeypatch.setattr(ForkPool, "_fork", fork_here_only)
    service = TransitService(oahu_tiny, config)
    service.start_workers(2)
    monkeypatch.setattr("repro.core.spcs_kernel.spcs_kernel_search", poisoned)
    with pytest.raises(AssertionError, match="in this process"):
        TransitService(oahu_tiny, config).batch(request)  # it is live
    try:
        served = service.batch(request)
    finally:
        service.stop_workers()
    for got, expected in zip(served.journeys, in_process.journeys):
        assert (got.source, got.target) == (expected.source, expected.target)
        assert (
            got.stats.settled_connections
            == expected.stats.settled_connections
        )
        assert_profiles_bitwise_equal(
            expected.profile, got.profile, f"{got.source}->{got.target}"
        )
    (got,), (expected,) = served.profiles, in_process.profiles
    assert np.array_equal(got.raw.merged.labels, expected.raw.merged.labels)
    assert got.stats.settled_connections == expected.stats.settled_connections


def test_a_worker_lost_under_a_batch_fails_that_batch_only(
    oahu_tiny, monkeypatch
):
    """The worker running one of a batch's items dies: the batch raises
    ``WorkerLost`` naming it (and nothing is cached), the pool forks a
    replacement from the live service, and the next batch is answered
    there — as a service without workers answers it."""
    here = os.getpid()
    search = TransitService._search

    def mortal(self, req):
        if os.getpid() != here and req.source == 7:
            os.kill(os.getpid(), signal.SIGKILL)
        return search(self, req)

    monkeypatch.setattr(TransitService, "_search", mortal)
    config = ServiceConfig(num_threads=1)
    service = TransitService(oahu_tiny, config)
    service.start_workers(1)
    try:
        (victim,) = (child.pid for child in service._workers._children)
        with pytest.raises(WorkerLost, match=f"worker {victim} died"):
            service.batch([(0, 5), (7, 2), (4, 11)])
        assert service.worker_stats == (1, 1)
        assert service.cache_stats.size == 0
        served = service.batch([(0, 5), (4, 11)])
        (replacement,) = (child.pid for child in service._workers._children)
        assert replacement != victim
    finally:
        service.stop_workers()
    expected = TransitService(oahu_tiny, config).batch([(0, 5), (4, 11)])
    for got, want in zip(served.journeys, expected.journeys):
        assert got.stats.settled_connections == want.stats.settled_connections
        assert_profiles_bitwise_equal(want.profile, got.profile)


def test_where_searches_run_is_not_configuration():
    for knob in ({"backend": "processes"}, {"workers": 2}):
        with pytest.raises(TypeError, match="unexpected keyword"):
            ServiceConfig(**knob)


def test_facade_equivalence_on_random_instances():
    """Seeded random instances (different shape than the fixtures):
    facade == pre-facade paths, both kernels."""
    for seed in (1, 2):
        timetable = random_line_timetable(
            1000 * seed + 17, num_stations=8, num_lines=5
        )
        graph = build_td_graph(timetable)
        engine = StationToStationEngine(graph, None, num_threads=2)
        service = TransitService(timetable, ServiceConfig(num_threads=2))
        for s, t in random_station_pairs(timetable, 5, seed=seed):
            assert_profiles_bitwise_equal(
                engine.query(s, t).profile,
                service.journey(s, t).profile,
                f"seed {seed}: {s}->{t}",
            )


# ---------------------------------------------------------------------------
# Journey legs
# ---------------------------------------------------------------------------


def test_journey_legs_chain_and_match_profile(oahu_tiny):
    service = TransitService(oahu_tiny, ServiceConfig(num_threads=2))
    departure = 7 * 60
    checked = 0
    for s, t in random_station_pairs(oahu_tiny, 6, seed=5):
        res = service.journey(s, t, departure=departure)
        assert res.departure == departure
        expected_arrival = res.profile.earliest_arrival(departure)
        assert res.arrival == expected_arrival
        if res.legs:
            assert res.legs[0].from_station == s
            assert res.legs[-1].to_station == t
            assert res.legs[0].departure == departure
            assert res.legs[-1].arrival == expected_arrival
            for a, b in zip(res.legs, res.legs[1:]):
                assert a.arrival == b.departure
                assert a.to_station == b.from_station
            checked += 1
    assert checked > 0, "workload produced no multi-leg journeys to check"


def test_trivial_journey_has_empty_legs(oahu_tiny):
    service = TransitService(oahu_tiny)
    res = service.journey(3, 3, departure=100)
    assert res.legs == ()
    assert res.arrival == 100
    assert res.stats.classification == "trivial"


# ---------------------------------------------------------------------------
# Prepare-once guarantees
# ---------------------------------------------------------------------------


def test_artifacts_built_at_most_once(oahu_tiny, monkeypatch):
    counters = {"pack": 0, "station_graph": 0, "table": 0}

    def counting_pack(timetable, routes):
        counters["pack"] += 1
        return pack_timetable(timetable, routes)

    def counting_station_graph(timetable):
        counters["station_graph"] += 1
        return build_station_graph(timetable)

    def counting_table(arrays, stations):
        counters["table"] += 1
        return build_distance_table(arrays, stations)

    monkeypatch.setattr(prepare_mod, "pack_timetable", counting_pack)
    monkeypatch.setattr(
        prepare_mod, "build_station_graph", counting_station_graph
    )
    monkeypatch.setattr(
        prepare_mod, "build_distance_table", counting_table
    )

    service = TransitService(
        oahu_tiny,
        ServiceConfig(
            num_threads=2,
            use_distance_table=True,
            transfer_fraction=0.3,
        ),
    )
    # Exercise every query path several times.
    service.profile(0)
    service.profile(1)
    service.journey(0, 5)
    service.journey(2, 7)
    service.batch([(0, 5), (1, 6)])
    service.batch(BatchRequest.from_sources([0, 3]))

    assert counters["pack"] == 1, "pack built more than once"
    assert counters["station_graph"] == 1, "station graph rebuilt"
    assert counters["table"] == 1, "distance table rebuilt"


def test_engines_share_the_prepared_pack(oahu_tiny):
    service = TransitService(oahu_tiny, ServiceConfig(num_threads=1))
    prepared = service.prepared
    assert service._engine._arrays is prepared.arrays
    assert service._engine.station_graph is prepared.station_graph


# ---------------------------------------------------------------------------
# Config validation and stats plumbing
# ---------------------------------------------------------------------------


#: Each shape with one station id ``x`` where a station belongs.
STATION_ARGUMENTS = {
    "journey-source": lambda svc, x: svc.journey(x, 2),
    "journey-target": lambda svc, x: svc.journey(2, x),
    "dated-journey-source": lambda svc, x: svc.journey(x, 2, departure=480),
    "profile": lambda svc, x: svc.profile(x),
    "batch-journey": lambda svc, x: svc.batch([(x, 2)]),
    "batch-profile": lambda svc, x: svc.batch(BatchRequest.from_sources([x])),
    "multicriteria-source": lambda svc, x: svc.multicriteria(x, 2, departure=480),
    "multicriteria-target": lambda svc, x: svc.multicriteria(2, x, departure=480),
    "min-transfers-source": lambda svc, x: svc.min_transfers(x, 2, departure=480),
    "min-transfers-target": lambda svc, x: svc.min_transfers(2, x, departure=480),
    "via-source": lambda svc, x: svc.via(x, 3, 2, departure=480),
    "via-via": lambda svc, x: svc.via(0, x, 2, departure=480),
    "via-target": lambda svc, x: svc.via(0, 3, x, departure=480),
    "table": lambda svc, x: build_distance_table(svc.prepared.arrays, [x, 0]),
}


@pytest.mark.parametrize("where", STATION_ARGUMENTS)
@pytest.mark.parametrize("bad", ("negative", "num-stations"))
def test_an_id_that_is_no_station_is_refused(oahu_tiny, where, bad):
    """-1 and |S| are no station: every shape refuses either, in each
    place it takes a station — a negative id is not read from the end
    of a list, |S| is not the first route node."""
    service = TransitService(oahu_tiny, ServiceConfig())
    station = -1 if bad == "negative" else oahu_tiny.num_stations
    with pytest.raises(ValueError, match="station node"):
        STATION_ARGUMENTS[where](service, station)


def test_invalid_configs_rejected_eagerly():
    with pytest.raises(ValueError, match="selection"):
        ServiceConfig(transfer_selection="random")
    with pytest.raises(ValueError, match="thread"):
        ServiceConfig(num_threads=0)
    with pytest.raises(ValueError, match="fraction"):
        ServiceConfig(transfer_fraction=1.5)


def test_with_overrides_revalidates():
    config = ServiceConfig()
    assert config.with_overrides(num_threads=4).num_threads == 4
    with pytest.raises(ValueError, match="thread"):
        config.with_overrides(num_threads=0)


def test_a_config_is_what_shapes_a_service():
    """Six fields; two of them runtime-only."""
    assert [f.name for f in dataclasses.fields(ServiceConfig)] == [
        "num_threads",
        "result_cache_size",
        "use_distance_table",
        "transfer_selection",
        "transfer_fraction",
        "min_degree",
    ]
    assert RUNTIME_FIELDS == {"num_threads", "result_cache_size"}


#: The read-only class constants of every config: the served kernel
#: and its queue, and the paper's full algorithm — the §3.2 partition,
#: the stopping criterion, Theorems 3 / 4 and self-pruning.  The
#: ablation switches are the engines' arguments.
CLASS_CONSTANTS = {
    "kernel": "flat",
    "queue": "binary",
    "strategy": "equal-connections",
    "stopping": True,
    "table_pruning": True,
    "target_pruning": True,
    "self_pruning": True,
}


@pytest.mark.parametrize("name", CLASS_CONSTANTS)
def test_the_kernel_is_not_configuration(oahu_tiny, name):
    """Every service runs the flat kernel and the full algorithm: each
    of these is a read-only class constant, so naming one is a
    ``TypeError`` wherever a config is made — as for ``backend`` and
    ``workers`` — and no service overrides it."""
    assert getattr(ServiceConfig, name) == CLASS_CONSTANTS[name]
    knob = {name: CLASS_CONSTANTS[name]}
    with pytest.raises(TypeError, match="unexpected keyword"):
        ServiceConfig(**knob)
    with pytest.raises(TypeError, match="unexpected keyword"):
        ServiceConfig().with_overrides(**knob)
    service = TransitService(oahu_tiny, ServiceConfig())
    with pytest.raises(ValueError, match="not runtime-overridable"):
        service.with_runtime_overrides(**knob)


def test_prepare_stats_accounting(oahu_tiny):
    service = TransitService(
        oahu_tiny,
        ServiceConfig(use_distance_table=True, transfer_fraction=0.3),
    )
    stats = service.prepare_stats
    assert stats.num_stations == oahu_tiny.num_stations
    assert stats.num_nodes > stats.num_stations
    assert stats.num_connections == len(oahu_tiny.connections)
    assert stats.packed_bytes > 0
    assert stats.num_transfer_stations > 0
    assert stats.table_mib > 0
    assert stats.total_seconds >= (
        stats.graph_seconds + stats.pack_seconds
    )
    assert not stats.shared_station_graph


def test_query_stats_shapes(oahu_tiny):
    service = TransitService(oahu_tiny, ServiceConfig(num_threads=2))
    p = service.profile(0)
    assert p.stats.kind == "profile"
    assert p.stats.num_threads == 2
    assert p.stats.settled_connections > 0
    assert p.stats.total_seconds > 0
    j = service.journey(0, 5)
    assert j.stats.kind == "journey"
    assert j.stats.classification in ("local", "global", "table", "trivial")


def test_multicriteria_shapes_share_one_search_on_the_pack(
    oahu_tiny, monkeypatch
):
    """``multicriteria`` / ``min_transfers`` run the fixed-departure
    search — the flat loop over ``prepared.arrays`` — once per (source,
    departure, budget) and nothing else: their legs come from that
    search's parents, not from a time query of their own.  A dated
    journey and a via read the same search with no budget, one layer,
    shared the same way.  The reference search over the same prepared
    dataset gives the same fronts."""
    import repro.service.facade as facade_mod

    calls = []
    real = facade_mod.mc_time_search

    def spy(data, *args, **kwargs):
        calls.append((data, args, kwargs["max_transfers"]))
        return real(data, *args, **kwargs)

    monkeypatch.setattr(facade_mod, "mc_time_search", spy)

    service = TransitService(oahu_tiny)
    front = service.multicriteria(2, 5, departure=480)
    fewest = service.min_transfers(2, 9, departure=480)
    data = service.prepared.arrays
    # One shared search, on the service's own pack.
    assert calls == [(data, (2, 480), 5)]
    assert front.legs and fewest.legs
    for stats in (front.stats, fewest.stats):
        assert (stats.kernel, stats.num_threads) == ("flat", 1)
        assert stats.settled_connections > 0
    # Another departure is another search.
    later = service.min_transfers(2, 9, departure=481)
    assert calls[1:] == [(data, (2, 481), 5)]
    assert later.stats.settled_connections > 0
    # A dated journey and a via from 2 at 480 share one unbounded
    # search; the via's second hop leaves the via station.
    dated = service.journey(2, 9, departure=480)
    via = service.via(2, 9, 5, departure=480)
    assert calls[2:] == [
        (data, (2, 480), None),
        (data, (9, via.via_arrival), None),
    ]
    assert dated.legs and via.legs and via.via_arrival == dated.arrival
    assert (via.stats.kernel, via.stats.num_threads) == ("flat", 1)

    oracle = ReferenceService.beside(service)
    assert oracle.multicriteria(2, 5, departure=480).options == front.options
    twin = oracle.min_transfers(2, 9, departure=480)
    assert (twin.transfers, twin.arrival) == (fewest.transfers, fewest.arrival)
    assert len(calls) == 4, "the oracle ran the served search"


@pytest.mark.parametrize("kernel", KERNELS)
def test_departure_time_shapes_count_the_searches_they_ran(oahu_tiny, kernel):
    """``multicriteria`` / ``min_transfers`` count the labels their
    fixed-departure search settled; ``via`` counts those of the two
    one-layer searches it read, a memo hit as the search it reads —
    and, with no profile search left, no table rule fires."""
    service = SERVICE_OF_KERNEL[kernel](
        oahu_tiny,
        ServiceConfig(use_distance_table=True, transfer_fraction=0.3),
    )
    front = service.multicriteria(2, 5, departure=480)
    fewest = service.min_transfers(2, 5, departure=480)
    via = service.via(2, 5, 7, departure=480)
    assert front.reachable and fewest.reachable and via.reachable
    assert front.stats.settled_connections > 0
    assert fewest.stats.settled_connections == front.stats.settled_connections
    # Its first hop again (a memo hit), and a second hop that is none.
    first = service.via(2, 5, 5, departure=480)
    unbounded = (
        mc_time_search(service.prepared.arrays, 2, 480, max_transfers=None)
        if kernel == "flat"
        else mc_time_query(service.graph, 2, 480, max_transfers=None)
    )
    assert first.stats.settled_connections == unbounded.settled > 0
    assert first.stats.settled_connections < via.stats.settled_connections
    assert via.stats.num_threads == 1
    assert (via.stats.table_prunes, via.stats.connection_stops) == (0, 0)


#: Every heap-driven search, each building a ``repro.pq`` queue: the
#: object-graph SPCS, the whole-day multi-criteria search, the
#: fixed-departure oracle and the label-correcting baseline.
HEAP_USERS = (
    lambda graph: spcs_profile_search(graph, 0),
    lambda graph: mc_profile_search(graph, 0, max_transfers=1),
    lambda graph: mc_time_query(graph, 0, 480, max_transfers=1),
    lambda graph: label_correcting_profile(graph, 0),
)


@pytest.mark.parametrize("with_table", (True, False), ids=["table", "plain"])
def test_a_flat_service_builds_no_oracle_queue(
    oahu_tiny, monkeypatch, with_table
):
    """A service answers every shape on its packed arrays, the legs of
    a dated journey and of a via included: with both ``repro.pq``
    queues poisoned wherever a module bound them — each of the four
    heap-driven searches builds one, as the poison proves — all six
    shapes answer as before."""
    config = ServiceConfig(
        num_threads=2,
        use_distance_table=with_table,
        transfer_fraction=0.25,
    )
    local = LocalBackend(TransitService(oahu_tiny, config))
    expected = [scrubbed(call(local)) for call in CALLS]
    service = TransitService(oahu_tiny, config)

    def poisoned():
        raise AssertionError("a repro.pq queue was built")

    bound = [
        (module, attr)
        for name, module in list(sys.modules.items())
        if name.partition(".")[0] in ("repro", "tests")
        for attr, value in vars(module).items()
        if value is AddressableHeap or value is LazyHeap
    ]
    for module, attr in bound:
        monkeypatch.setattr(module, attr, poisoned)
    for search in HEAP_USERS:
        with pytest.raises(AssertionError, match="queue was built"):
            search(service.graph)  # the poison is live
    backend = LocalBackend(service)
    assert [scrubbed(call(backend)) for call in CALLS] == expected


#: Every reference search there is: the object-graph SPCS, the
#: fixed-departure oracle and the label-correcting baseline.
ORACLES = (
    spcs_profile_search,
    mc_time_query,
    label_correcting_profile,
)


@pytest.mark.parametrize("workers", (0, 2), ids=["inline", "workers"])
def test_served_code_never_reaches_an_oracle(oahu_tiny, monkeypatch, workers):
    """Served code runs the flat engines only: with every reference
    search replaced, wherever a module bound it, by one that raises —
    before any search worker forks, so they inherit the poison — all
    six shapes are answered with the table on, as before, in process
    and through search workers.  The reference service over the same
    prepared dataset proves the poison is live."""
    config = ServiceConfig(
        num_threads=2, use_distance_table=True, transfer_fraction=0.25
    )
    expected = [
        scrubbed(call(LocalBackend(TransitService(oahu_tiny, config))))
        for call in CALLS
    ]
    service = TransitService(oahu_tiny, config)

    def poisoned(*args, **kwargs):
        raise AssertionError("served code reached an oracle")

    bound = [
        (module, attr)
        for name, module in list(sys.modules.items())
        if name.partition(".")[0] in ("repro", "tests")
        for attr, value in vars(module).items()
        if any(value is oracle for oracle in ORACLES)
    ]
    for module, attr in bound:
        monkeypatch.setattr(module, attr, poisoned)
    oracle = ReferenceService.beside(service)
    baselines = sys.modules["repro.baselines"]
    for ask in (
        lambda: oracle.profile(0),
        lambda: oracle.journey(0, 5),
        lambda: oracle.multicriteria(2, 5, departure=480),
        lambda: baselines.label_correcting_profile(service.graph, 0),
    ):
        with pytest.raises(AssertionError, match="reached an oracle"):
            ask()
    if workers:
        service.start_workers(workers)
    try:
        backend = LocalBackend(service)
        assert [scrubbed(call(backend)) for call in CALLS] == expected
    finally:
        service.stop_workers()


def test_profile_request_thread_override(oahu_tiny):
    service = TransitService(oahu_tiny, ServiceConfig(num_threads=1))
    res = service.profile(ProfileRequest(0, num_threads=3))
    assert res.stats.num_threads == 3
    assert len(res.raw.stats.settled_per_thread) == 3


def test_batch_profile_requests_honor_thread_override(oahu_tiny):
    """ProfileRequest.num_threads must bind on the batch path exactly
    as on the single path (regression: batch silently used the config
    thread count)."""
    service = TransitService(oahu_tiny, ServiceConfig(num_threads=1))
    single = service.profile(ProfileRequest(0, num_threads=4))
    batched = service.batch(
        BatchRequest(profiles=(ProfileRequest(0, num_threads=4),))
    ).profiles[0]
    assert batched.stats.num_threads == 4
    assert len(batched.raw.stats.settled_per_thread) == 4
    assert (
        batched.stats.settled_connections
        == single.stats.settled_connections
    )
    np.testing.assert_array_equal(
        batched.raw.merged.labels, single.raw.merged.labels
    )
