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

import os

import numpy as np
import pytest

import repro.service.prepare as prepare_mod
from repro.core.fanout import ForkPool
from repro.core.parallel import parallel_profile_search
from repro.graph.station_graph import build_station_graph
from repro.graph.td_arrays import pack_td_graph
from repro.graph.td_model import build_td_graph
from repro.query.distance_table import build_distance_table
from repro.query.table_query import StationToStationEngine
from repro.query.transfer_selection import select_transfer_stations
from repro.service import (
    BatchRequest,
    ProfileRequest,
    ServiceConfig,
    TransitService,
)
from repro.synthetic.workloads import random_station_pairs

from tests.helpers import random_line_timetable

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
    service = TransitService(
        oahu_tiny, ServiceConfig(kernel=kernel, num_threads=2)
    )
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
        kernel=kernel,
        num_threads=2,
        use_distance_table=with_table,
        transfer_fraction=0.3,
    )
    service = TransitService.from_graph(oahu_tiny_graph, config)
    table = None
    if with_table:
        stations = select_transfer_stations(
            oahu_tiny, method="contraction", fraction=0.3
        )
        table = build_distance_table(
            oahu_tiny_graph, stations, num_threads=2
        )
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


def test_a_batch_inside_a_search_worker_forks_nothing(oahu_tiny, monkeypatch):
    """Under search workers the generation's workers *are* the
    processes: ``backend`` / ``workers`` size an in-process batch only.
    A served batch used to fork its own pool inside the worker, per
    request — 2 workers x 4 grandchildren on a 2-core box, behind
    admission control's back; now it runs there on the one thread, says
    so (``BatchStats``: what actually executed), and answers the same."""
    config = ServiceConfig(num_threads=1, backend="processes", workers=4)
    pairs = [(0, 5), (2, 7), (1, 6), (3, 9), (4, 11), (7, 2)]
    in_process = TransitService(oahu_tiny, config).batch(pairs)
    assert in_process.stats.backend == "processes"
    assert in_process.stats.num_workers == 4
    assert in_process.stats.setup_seconds > 0

    here = os.getpid()
    fork = ForkPool._fork

    def fork_here_only(pool, target):
        assert os.getpid() == here, "a search worker forked"
        return fork(pool, target)

    monkeypatch.setattr(ForkPool, "_fork", fork_here_only)
    service = TransitService(oahu_tiny, config)
    service.start_workers(2)
    try:
        served = service.batch(pairs)
    finally:
        service.stop_workers()
    stats = served.stats
    assert (stats.backend, stats.num_workers, stats.setup_seconds) == (
        "serial", 1, 0.0,
    )
    for (s, t), got, expected in zip(
        pairs, served.journeys, in_process.journeys
    ):
        assert (got.source, got.target) == (s, t)
        assert (
            got.stats.settled_connections
            == expected.stats.settled_connections
        )
        assert_profiles_bitwise_equal(
            expected.profile, got.profile, f"{s}->{t}"
        )


def test_facade_equivalence_on_random_instances():
    """Seeded random instances (different shape than the fixtures):
    facade == pre-facade paths, both kernels."""
    for seed in (1, 2):
        timetable = random_line_timetable(
            1000 * seed + 17, num_stations=8, num_lines=5
        )
        graph = build_td_graph(timetable)
        engine = StationToStationEngine(graph, None, num_threads=2)
        service = TransitService.from_graph(
            graph, ServiceConfig(kernel="flat", num_threads=2)
        )
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

    def counting_pack(graph):
        counters["pack"] += 1
        return pack_td_graph(graph)

    def counting_station_graph(timetable):
        counters["station_graph"] += 1
        return build_station_graph(timetable)

    def counting_table(graph, stations, **kwargs):
        counters["table"] += 1
        return build_distance_table(graph, stations, **kwargs)

    # Patch what prepare_dataset actually calls: packed_arrays'
    # memoized cache consults pack_td_graph on miss.
    monkeypatch.setattr(
        "repro.graph.td_arrays.pack_td_graph", counting_pack
    )
    monkeypatch.setattr(
        prepare_mod, "build_station_graph", counting_station_graph
    )
    monkeypatch.setattr(
        prepare_mod, "build_distance_table", counting_table
    )

    service = TransitService(
        oahu_tiny,
        ServiceConfig(
            kernel="flat",
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

    assert counters["pack"] == 1, "graph packed more than once"
    assert counters["station_graph"] == 1, "station graph rebuilt"
    assert counters["table"] == 1, "distance table rebuilt"


def test_engines_share_the_prepared_pack(oahu_tiny):
    service = TransitService(
        oahu_tiny, ServiceConfig(kernel="flat", num_threads=1)
    )
    prepared = service.prepared
    assert service._engine._arrays is prepared.arrays
    assert service._engine.station_graph is prepared.station_graph


def test_python_kernel_never_packs(oahu_tiny, monkeypatch):
    def failing_pack(graph):  # pragma: no cover - exercised on failure
        raise AssertionError("python kernel must not pack")

    monkeypatch.setattr(
        "repro.graph.td_arrays.pack_td_graph", failing_pack
    )
    service = TransitService(
        oahu_tiny, ServiceConfig(kernel="python", num_threads=1)
    )
    assert service.prepared.arrays is None
    service.profile(0)
    service.journey(0, 5)
    service.multicriteria(0, 5, departure=480)


# ---------------------------------------------------------------------------
# Config validation and stats plumbing
# ---------------------------------------------------------------------------


def test_invalid_configs_rejected_eagerly():
    with pytest.raises(ValueError, match="kernel"):
        ServiceConfig(kernel="gpu")
    for backend in ("mpi", "threads"):
        with pytest.raises(ValueError, match="backend"):
            ServiceConfig(backend=backend)
    with pytest.raises(ValueError, match="strategy"):
        ServiceConfig(strategy="round-robin")
    with pytest.raises(ValueError, match="queue"):
        ServiceConfig(queue="fib")
    with pytest.raises(ValueError, match="selection"):
        ServiceConfig(transfer_selection="random")
    with pytest.raises(ValueError, match="thread"):
        ServiceConfig(num_threads=0)
    with pytest.raises(ValueError, match="worker"):
        ServiceConfig(workers=0)
    with pytest.raises(ValueError, match="fraction"):
        ServiceConfig(transfer_fraction=1.5)


def test_with_overrides_revalidates():
    config = ServiceConfig()
    assert config.with_overrides(num_threads=4).num_threads == 4
    with pytest.raises(ValueError, match="kernel"):
        config.with_overrides(kernel="gpu")


def test_prepare_stats_accounting(oahu_tiny):
    service = TransitService(
        oahu_tiny,
        ServiceConfig(
            kernel="flat", use_distance_table=True, transfer_fraction=0.3
        ),
    )
    stats = service.prepare_stats
    assert stats.num_stations == oahu_tiny.num_stations
    assert stats.num_nodes > stats.num_stations
    assert stats.num_connections == len(oahu_tiny.connections)
    assert stats.packed_bytes > 0
    assert stats.num_transfer_stations > 0
    assert stats.table_mib > 0
    # A table this small is built on the calling thread, whatever the box.
    assert stats.table_workers == 1
    assert stats.total_seconds >= (
        stats.graph_seconds + stats.pack_seconds
    )
    assert not stats.shared_station_graph
    # No table built, no process built it.
    assert TransitService(oahu_tiny).prepare_stats.table_workers == 0


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


@pytest.mark.parametrize("kernel", KERNELS)
def test_multicriteria_shapes_follow_and_report_the_kernel(
    oahu_tiny, kernel, monkeypatch
):
    """``multicriteria`` / ``min_transfers`` run the fixed-departure
    search — the flat loop over ``prepared.arrays`` on a ``flat``
    service, its object-graph twin on a ``python`` one — once per
    (source, departure, budget) and nothing else: their legs come from
    that search's parents, not from a time query of their own.  Their
    stats name the kernel that ran."""
    import repro.service.facade as facade_mod
    import repro.service.journeys as journeys_mod

    calls = []
    for module, name in (
        (facade_mod, "mc_time_search"),
        (facade_mod, "mc_time_query"),
        (facade_mod, "reconstruct_legs"),
        (journeys_mod, "time_query"),
    ):
        real = getattr(module, name)

        def spy(data, *args, _name=name, _real=real, **kwargs):
            calls.append((_name, data, args))
            return _real(data, *args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    service = TransitService(oahu_tiny, ServiceConfig(kernel=kernel))
    front = service.multicriteria(2, 5, departure=480)
    fewest = service.min_transfers(2, 9, departure=480)
    prepared = service.prepared
    name, data = (
        ("mc_time_search", prepared.arrays)
        if kernel == "flat"
        else ("mc_time_query", prepared.graph)
    )
    # One shared search, on the service's own artifacts.
    assert calls == [(name, data, (2, 480))]
    assert front.legs and fewest.legs
    for stats in (front.stats, fewest.stats):
        assert (stats.kernel, stats.num_threads) == (kernel, 1)
        assert stats.settled_connections > 0
    # Another departure is another search.
    later = service.min_transfers(2, 9, departure=481)
    assert calls[1:] == [(name, data, (2, 481))]
    assert later.stats.settled_connections > 0

    other = TransitService(
        oahu_tiny,
        ServiceConfig(kernel="python" if kernel == "flat" else "flat"),
    )
    assert other.multicriteria(2, 5, departure=480).options == front.options
    twin = other.min_transfers(2, 9, departure=480)
    assert (twin.transfers, twin.arrival) == (fewest.transfers, fewest.arrival)


@pytest.mark.parametrize("kernel", KERNELS)
def test_departure_time_shapes_count_the_searches_they_ran(oahu_tiny, kernel):
    """``multicriteria`` / ``min_transfers`` count the labels their
    fixed-departure search settled; ``via`` counts its two §2 time
    queries — and, with no profile search left, no table rule fires."""
    service = TransitService(
        oahu_tiny,
        ServiceConfig(
            kernel=kernel, use_distance_table=True, transfer_fraction=0.3
        ),
    )
    front = service.multicriteria(2, 5, departure=480)
    fewest = service.min_transfers(2, 5, departure=480)
    via = service.via(2, 5, 7, departure=480)
    assert front.reachable and fewest.reachable and via.reachable
    assert front.stats.settled_connections > 0
    assert fewest.stats.settled_connections == front.stats.settled_connections
    first = service.via(2, 5, 5, departure=480)
    assert 0 < first.stats.settled_connections < via.stats.settled_connections
    assert (via.stats.kernel, via.stats.num_threads) == ("python", 1)
    assert (via.stats.table_prunes, via.stats.connection_stops) == (0, 0)


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
