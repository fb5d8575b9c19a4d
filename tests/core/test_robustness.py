"""Robustness and failure-injection tests.

The paper assumes FIFO networks (§2).  Our edge evaluation computes the
*lower envelope* over connections ("wait for the better train"), which
is FIFO by construction even when the underlying schedule lets trains
overtake — so the whole algorithm stack must stay correct on non-FIFO
timetables.  These tests lock that in, along with assorted hostile
inputs.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.label_correcting import label_correcting_profile
from repro.core.parallel import parallel_profile_search
from repro.core.spcs import spcs_profile_search
from repro.functions.piecewise import INF_TIME
from repro.graph.td_model import build_td_graph
from repro.timetable.builder import TimetableBuilder

from tests.oracles.mc_time_query import mc_time_query


def _non_fifo_timetable(seed: int):
    """Random network whose legs contain overtaking trains (slow local
    and fast express on the same leg)."""
    rng = random.Random(seed)
    builder = TimetableBuilder(name=f"nonfifo-{seed}")
    stations = [builder.add_station(f"s{k}", transfer_time=rng.randint(0, 4)) for k in range(8)]
    for _ in range(5):
        stops = rng.sample(stations, rng.randint(2, 4))
        for direction in (stops, stops[::-1]):
            for dep in range(300 + rng.randint(0, 40), 1300, rng.randint(40, 90)):
                t = dep
                trip = [(direction[0], t)]
                for nxt in direction[1:]:
                    # Per-trip random leg time ⇒ overtaking is possible.
                    t += rng.randint(3, 30)
                    trip.append((nxt, t))
                builder.add_trip(trip)
    return builder.build(require_fifo=False)


class TestNonFifoNetworks:
    @settings(deadline=None, max_examples=8)
    @given(seed=st.integers(min_value=0, max_value=300))
    def test_spcs_equals_lc_on_non_fifo(self, seed):
        graph = build_td_graph(_non_fifo_timetable(seed))
        spcs = spcs_profile_search(graph, 0)
        lc = label_correcting_profile(graph, 0)
        for station in range(graph.num_stations):
            assert spcs.profile(station) == lc.profile(
                station, graph.timetable.period
            ), (seed, station)

    @settings(deadline=None, max_examples=6)
    @given(seed=st.integers(min_value=0, max_value=300))
    def test_profile_matches_time_query_on_non_fifo(self, seed):
        graph = build_td_graph(_non_fifo_timetable(seed))
        spcs = spcs_profile_search(graph, 0)
        for station in range(1, graph.num_stations):
            profile = spcs.profile(station)
            for tau in (0, 400, 700, 1200, 1439):
                truth = mc_time_query(
                    graph, 0, tau, max_transfers=None
                ).arrival_at_station(station, 0)
                assert profile.earliest_arrival(tau) == truth, (seed, station, tau)

    @settings(deadline=None, max_examples=5)
    @given(
        seed=st.integers(min_value=0, max_value=300),
        p=st.integers(min_value=2, max_value=5),
    )
    def test_parallel_on_non_fifo(self, seed, p):
        graph = build_td_graph(_non_fifo_timetable(seed))
        single = spcs_profile_search(graph, 0)
        parallel = parallel_profile_search(graph, 0, p)
        for station in range(graph.num_stations):
            assert parallel.profile(station) == single.profile(station)


class TestHostileInputs:
    def test_isolated_station(self):
        builder = TimetableBuilder()
        a, b = builder.add_station("a"), builder.add_station("b")
        builder.add_station("island")
        builder.add_trip([(a, 100), (b, 130)])
        graph = build_td_graph(builder.build())
        result = spcs_profile_search(graph, 0)
        assert result.profile(2).is_empty()
        # Searching *from* the island is a no-op, not a crash.
        assert spcs_profile_search(graph, 2).stats.settled_connections == 0

    def test_single_connection_network(self):
        builder = TimetableBuilder()
        a, b = builder.add_station("a"), builder.add_station("b")
        builder.add_trip([(a, 100), (b, 130)])
        graph = build_td_graph(builder.build())
        profile = spcs_profile_search(graph, 0).profile(1)
        assert profile.connection_points() == [(100, 30)]

    def test_zero_transfer_times(self):
        builder = TimetableBuilder()
        ids = [builder.add_station(f"s{k}", transfer_time=0) for k in range(3)]
        builder.add_trip([(ids[0], 100), (ids[1], 110)])
        builder.add_trip([(ids[1], 110), (ids[2], 125)])  # same-minute transfer
        graph = build_td_graph(builder.build())
        result = mc_time_query(graph, 0, 100, max_transfers=None)
        assert result.arrival_at_station(2, 0) == 125

    def test_huge_transfer_time_forces_wait(self):
        builder = TimetableBuilder()
        a = builder.add_station("a", transfer_time=0)
        b = builder.add_station("b", transfer_time=600)
        c = builder.add_station("c", transfer_time=0)
        builder.add_trip([(a, 100), (b, 120)])
        builder.add_trip([(b, 130), (c, 150)])  # missed: needs 120+600
        builder.add_trip([(b, 800), (c, 820)])
        graph = build_td_graph(builder.build())
        result = mc_time_query(graph, 0, 100, max_transfers=None)
        assert result.arrival_at_station(2, 0) == 820

    def test_connections_spanning_midnight_repeatedly(self):
        """A journey that wraps past midnight twice."""
        builder = TimetableBuilder()
        ids = [builder.add_station(f"s{k}", transfer_time=1) for k in range(3)]
        builder.add_trip([(ids[0], 1430), (ids[1], 1470)])  # arrives 00:30+1d
        builder.add_trip([(ids[1], 20), (ids[2], 50)])      # next day 00:20→00:50
        graph = build_td_graph(builder.build())
        result = mc_time_query(graph, 0, 1430, max_transfers=None)
        # Arrive s1 at 1470 (00:30); next s1→s2 train at 00:20 *the day
        # after* (1440+20=1460 already passed → 2880+20).
        assert result.arrival_at_station(2, 0) == 2880 + 50

    def test_parallel_with_single_connection_many_threads(self):
        builder = TimetableBuilder()
        a, b = builder.add_station("a"), builder.add_station("b")
        builder.add_trip([(a, 100), (b, 130)])
        graph = build_td_graph(builder.build())
        result = parallel_profile_search(graph, 0, 8)
        assert result.profile(1).connection_points() == [(100, 30)]
        assert sum(result.stats.partition_sizes) == 1


class TestProfileEdgeSemantics:
    def test_unreachable_everywhere_profile(self, toy_graph):
        # Station D (3) has no departures: empty conn set, empty profiles.
        result = spcs_profile_search(toy_graph, 3)
        for station in range(toy_graph.num_stations):
            assert result.profile(station).is_empty()

    def test_inf_never_leaks_into_points(self, oahu_tiny_graph):
        result = spcs_profile_search(oahu_tiny_graph, 0)
        for station in range(oahu_tiny_graph.num_stations):
            for dep, dur in result.profile(station).connection_points():
                assert 0 <= dep < oahu_tiny_graph.timetable.period
                assert 0 < dur < INF_TIME
