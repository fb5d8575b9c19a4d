"""End-to-end integration: generate → serialize → graph → query stack.

Exercises the full pipeline the README advertises, across both network
families, asserting cross-layer consistency rather than per-module
behaviour (unit tests cover that).
"""

import numpy as np
import pytest

from repro import (
    StationToStationEngine,
    build_distance_table,
    build_td_graph,
    label_correcting_profile,
    load_gtfs,
    parallel_profile_search,
    save_gtfs,
    select_transfer_stations,
)
from repro.graph.td_arrays import packed_arrays

from tests.oracles.mc_time_query import mc_time_query


@pytest.mark.parametrize("instance_fixture", ["oahu_tiny", "germany_tiny"])
def test_full_pipeline(instance_fixture, tmp_path, request):
    timetable = request.getfixturevalue(instance_fixture)

    # 1. GTFS round trip preserves the network.
    feed_dir = tmp_path / "feed"
    save_gtfs(timetable, feed_dir)
    reloaded = load_gtfs(feed_dir)
    assert reloaded.num_connections == timetable.num_connections

    # 2. Graphs from both copies answer identically.
    graph = build_td_graph(timetable)
    graph2 = build_td_graph(reloaded)
    tq1 = mc_time_query(graph, 0, 480, max_transfers=None)
    tq2 = mc_time_query(graph2, 0, 480, max_transfers=None)
    for station in range(timetable.num_stations):
        assert tq1.arrival_at_station(station, 0) == tq2.arrival_at_station(
            station, 0
        )

    # 3. Parallel one-to-all == LC on a couple of sources.
    for source in (0, timetable.num_stations // 2):
        par = parallel_profile_search(graph, source, 4)
        lc = label_correcting_profile(graph, source)
        for station in range(timetable.num_stations):
            assert par.profile(station) == lc.profile(station, timetable.period)

    # 4. Accelerated station-to-station == plain profile.
    stations = select_transfer_stations(
        timetable, method="contraction", fraction=0.25
    )
    table = build_distance_table(packed_arrays(graph), stations)
    engine = StationToStationEngine(graph, table, num_threads=4)
    rng = np.random.default_rng(0)
    for _ in range(8):
        s, t = rng.integers(0, timetable.num_stations, 2)
        if s == t:
            continue
        truth = parallel_profile_search(graph, int(s), 4).profile(int(t))
        assert engine.query(int(s), int(t)).profile == truth


def test_public_api_surface():
    """Everything the README imports must be exposed at top level."""
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_quickstart_snippet_runs():
    """The README quickstart, verbatim in spirit."""
    from repro import build_td_graph, make_instance, parallel_profile_search

    timetable = make_instance("oahu", scale="tiny")
    graph = build_td_graph(timetable)
    result = parallel_profile_search(graph, 0, num_threads=4)
    profile = result.profile(5)
    arrival = profile.earliest_arrival(8 * 60)
    assert arrival >= 8 * 60
