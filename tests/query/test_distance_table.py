"""Unit tests for the profile distance table D (paper §4), and for the
rule that decides whether its rows are built on a fork pool (§5.2)."""

import os
import signal
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import fanout
from repro.core.spcs import spcs_profile_search
from repro.functions.piecewise import INF_TIME
from repro.query import distance_table
from repro.query.distance_table import build_distance_table
from repro.query.transfer_selection import select_transfer_stations
from repro.service import ServiceConfig, TransitService
from repro.timetable.delays import Delay, apply_delays

from tests.helpers import run_in_own_group


@pytest.fixture(scope="module")
def table_setup(request):
    oahu_graph = request.getfixturevalue("oahu_tiny_graph")
    stations = select_transfer_stations(
        oahu_graph.timetable, method="contraction", fraction=0.3
    )
    table = build_distance_table(oahu_graph, stations, num_threads=4)
    return oahu_graph, stations, table


class TestBuildDistanceTable:
    def test_contains(self, table_setup):
        graph, stations, table = table_setup
        for s in stations:
            assert table.contains(int(s))
        non_transfer = set(range(graph.num_stations)) - set(stations.tolist())
        assert all(not table.contains(s) for s in non_transfer)

    def test_entries_match_direct_profile_search(self, table_setup):
        graph, stations, table = table_setup
        for origin in stations.tolist():
            truth = spcs_profile_search(graph, origin)
            for dest in stations.tolist():
                if origin == dest:
                    continue
                assert table.profile_between(origin, dest) == truth.profile(dest)

    def test_self_distance_is_identity(self, table_setup):
        _graph, stations, table = table_setup
        origin = int(stations[0])
        assert table.earliest_arrival(origin, origin, 333) == 333

    def test_evaluation_consistency(self, table_setup):
        graph, stations, table = table_setup
        a, b = int(stations[0]), int(stations[1])
        profile = table.profile_between(a, b)
        for tau in (0, 480, 720, 1300):
            assert table.earliest_arrival(a, b, tau) == profile.earliest_arrival(tau)

    def test_unknown_station_rejected(self, table_setup):
        graph, stations, table = table_setup
        outsider = next(
            s for s in range(graph.num_stations) if not table.contains(s)
        )
        with pytest.raises(KeyError):
            table.earliest_arrival(outsider, int(stations[0]), 0)

    def test_size_accounting(self, table_setup):
        _graph, _stations, table = table_setup
        points = sum(
            len(profile) for row in table.profiles for profile in row
        )
        assert table.size_bytes() == 16 * points
        assert table.size_mib() == pytest.approx(table.size_bytes() / 2**20)

    def test_build_metadata(self, table_setup):
        _graph, stations, table = table_setup
        assert table.num_transfer_stations == stations.size
        assert table.build_seconds > 0
        assert table.build_settled > 0

    def test_rejects_route_node(self, oahu_tiny_graph):
        with pytest.raises(ValueError, match="station"):
            build_distance_table(
                oahu_tiny_graph, [oahu_tiny_graph.num_nodes - 1]
            )

    def test_duplicate_stations_deduplicated(self, oahu_tiny_graph):
        table = build_distance_table(oahu_tiny_graph, [0, 0, 1], num_threads=2)
        assert table.num_transfer_stations == 2


# ---------------------------------------------------------------------------
# Rows on a fork pool: same table to the bit, and only when it pays
# ---------------------------------------------------------------------------


@pytest.fixture
def force_pool(monkeypatch):
    """Every build with two or more rows after the probe forks a
    2-worker pool, however small the table and whatever the box."""
    monkeypatch.setattr(distance_table, "POOL_MIN_SECONDS", 0.0)
    monkeypatch.setattr(distance_table, "usable_cores", lambda: 2)


def _never_pool(monkeypatch):
    monkeypatch.setattr(distance_table, "POOL_MIN_SECONDS", float("inf"))


def _forbid_pools(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("this build must not fork")

    monkeypatch.setattr(fanout.ForkPool, "_fork", no_pool)


def assert_tables_bitwise_equal(serial, pooled):
    assert pooled.index_of == serial.index_of
    assert np.array_equal(pooled.transfer_stations, serial.transfer_stations)
    assert pooled.period == serial.period
    for a, serial_row in enumerate(serial.profiles):
        assert len(pooled.profiles[a]) == len(serial_row)
        for b, expected in enumerate(serial_row):
            got = pooled.profiles[a][b]
            assert got.period == expected.period, (a, b)
            assert got.deps.dtype == expected.deps.dtype, (a, b)
            assert got.deps.tobytes() == expected.deps.tobytes(), (a, b)
            assert got.arrs.tobytes() == expected.arrs.tobytes(), (a, b)


MATRIX = [
    pytest.param(instance, kernel, num_threads, id=f"{instance}-{kernel}-p{num_threads}")
    for instance in ("oahu_tiny", "germany_tiny")
    for kernel in ("flat", "python")
    for num_threads in (1, 3)
]


@pytest.mark.parametrize("instance,kernel,num_threads", MATRIX)
def test_pooled_build_equals_serial_build(
    request, monkeypatch, force_pool, instance, kernel, num_threads
):
    graph = request.getfixturevalue(f"{instance}_graph")
    stations = select_transfer_stations(
        graph.timetable, method="contraction", fraction=0.3
    )
    kwargs = dict(num_threads=num_threads, kernel=kernel)
    pooled = build_distance_table(graph, stations, **kwargs)
    assert pooled.build_workers == 2
    _never_pool(monkeypatch)
    _forbid_pools(monkeypatch)
    serial = build_distance_table(graph, stations, **kwargs)
    assert serial.build_workers == 1
    assert_tables_bitwise_equal(serial, pooled)
    assert pooled.build_settled == serial.build_settled


@pytest.mark.parametrize("instance,kernel,num_threads", MATRIX)
def test_pooled_patch_equals_serial_full_rebuild(
    request, monkeypatch, force_pool, instance, kernel, num_threads
):
    """The incremental swap's row rebuild goes through the same pool
    rule: same rows and same work as the serial patch, same table as
    the oracle — a cold service on the delayed timetable."""
    timetable = request.getfixturevalue(instance)
    config = ServiceConfig(
        kernel=kernel,
        num_threads=num_threads,
        use_distance_table=True,
        transfer_fraction=0.3,
    )
    delays = [Delay(train=timetable.connections[0].train, minutes=25)]
    base = TransitService(timetable, config)
    pooled = base.apply_delays(delays, mode="incremental")
    assert pooled.prepare_stats.patched_table_rows >= 3
    assert pooled.prepare_stats.table_workers == 2
    _never_pool(monkeypatch)
    _forbid_pools(monkeypatch)
    serial = base.apply_delays(delays, mode="incremental")
    assert serial.prepare_stats.table_workers == 1
    assert_tables_bitwise_equal(serial.table, pooled.table)
    assert pooled.table.build_settled == serial.table.build_settled
    cold = TransitService(apply_delays(timetable, delays), config)
    assert_tables_bitwise_equal(cold.table, pooled.table)


def test_small_build_forks_nothing(oahu_tiny_graph, monkeypatch):
    """Under the shipped constant a tier-1-sized table (three rows of a
    few ms after the probe) is not worth a pool, even on many cores."""
    monkeypatch.setattr(distance_table, "usable_cores", lambda: 8)
    _forbid_pools(monkeypatch)
    table = build_distance_table(
        oahu_tiny_graph, [0, 1, 2, 3], num_threads=1, kernel="flat"
    )
    assert table.build_workers == 1
    assert all(len(row) == 4 for row in table.profiles)


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here"
)
def test_one_usable_cpu_builds_serially():
    """The worker count is the affinity mask, not the machine: pinned
    to one CPU the build forks nothing even when the size rule says a
    pool would pay."""
    returncode, stdout, stderr = run_in_own_group(
        """
        import os
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        import repro.query.distance_table as distance_table
        from repro.core.fanout import ForkPool
        from repro.service import ServiceConfig, TransitService
        from repro.synthetic.instances import make_instance

        def no_pool(*args, **kwargs):
            raise AssertionError("forked a pool on one usable CPU")

        ForkPool._fork = no_pool
        distance_table.POOL_MIN_SECONDS = 0.0
        service = TransitService(
            make_instance("oahu", "tiny"),
            ServiceConfig(use_distance_table=True, transfer_fraction=0.3),
        )
        print(
            service.prepare_stats.table_workers,
            service.table.num_transfer_stations,
        )
        """
    )
    assert returncode == 0, stderr
    assert stdout.split() == ["1", "4"]


def test_build_inside_a_pool_worker_falls_back_to_serial(
    oahu_tiny_graph, force_pool
):
    """A pool child never forks: a build that lands in one (a batch
    item, a served request) runs its rows itself."""

    def build(_):
        table = build_distance_table(
            oahu_tiny_graph, [0, 1, 2, 3], num_threads=1, kernel="flat"
        )
        return os.getpid(), table.build_workers, table.build_settled

    here, workers_here, settled = build(None)
    assert workers_here == 2
    run = fanout.fan_out(build, [0, 1], backend="processes", workers=2)
    for pid, workers, settled_there in run.results:
        assert pid != here
        assert (workers, settled_there) == (1, settled)


@pytest.mark.parametrize(
    "fate,error",
    [
        pytest.param("raises", (RuntimeError, "row 3 failed"), id="raises"),
        pytest.param(
            "killed", (fanout.WorkerLost, r"pool worker \d+ died"), id="killed"
        ),
    ],
)
def test_a_row_failing_in_a_worker_raises_in_the_caller(
    oahu_tiny_graph, force_pool, monkeypatch, fate, error
):
    """Whether the row's search raises or its process is killed under
    it (the OOM killer): the build fails, within the rows' own time — a
    ``multiprocessing.Pool`` lost a killed worker's task and never
    returned, hence the thread and its bounded join."""
    parent = os.getpid()
    real = distance_table.parallel_profile_search

    def failing(graph, source, *args, **kwargs):
        if source == 3:
            assert os.getpid() != parent, "row 3 was meant for the pool"
            if fate == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("row 3 failed")
        return real(graph, source, *args, **kwargs)

    monkeypatch.setattr(distance_table, "parallel_profile_search", failing)
    outcome = []

    def build():
        try:
            outcome.append(
                build_distance_table(oahu_tiny_graph, [0, 1, 2, 3], kernel="flat")
            )
        except Exception as exc:  # noqa: BLE001 — judged below
            outcome.append(exc)

    thread = threading.Thread(target=build, daemon=True)
    thread.start()
    thread.join(timeout=6)
    assert not thread.is_alive(), "the build has not returned"
    with pytest.raises(error[0], match=error[1]):
        raise outcome[0]


def test_concurrent_pooled_prepares_build_their_own_tables(
    oahu_tiny, germany_tiny, force_pool, monkeypatch
):
    """Two datasets prepared from two threads at once, each forking its
    own pool: neither may build rows from the other's graph."""
    config = ServiceConfig(use_distance_table=True, transfer_fraction=0.3)
    timetables = [oahu_tiny, germany_tiny] * 2
    with ThreadPoolExecutor(max_workers=len(timetables)) as pool:
        services = list(
            pool.map(lambda tt: TransitService(tt, config), timetables)
        )
    assert [s.prepare_stats.table_workers for s in services] == [2] * 4
    _never_pool(monkeypatch)
    for timetable, service in zip(timetables, services):
        serial = TransitService(timetable, config).table
        assert_tables_bitwise_equal(serial, service.table)
        assert service.table.build_settled == serial.build_settled
