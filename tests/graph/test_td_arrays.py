"""Unit tests for the packed flat-array graph (td_arrays)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.functions.piecewise import INF_TIME, TravelTimeFunction
from repro.graph.td_arrays import pack_td_graph, packed_arrays
from repro.graph.td_model import Edge, build_td_graph
from repro.timetable.builder import TimetableBuilder
from repro.timetable.delays import Delay, apply_delays

from tests.helpers import assert_packs_equal, patched_pack, retimed
from tests.strategies import adversarial_timetables, retimings


@pytest.fixture(scope="module")
def packed(toy_graph):
    return pack_td_graph(toy_graph)


class TestPackTdGraph:
    def test_shapes_match_graph(self, toy_graph, packed):
        assert packed.num_nodes == toy_graph.num_nodes
        assert packed.num_stations == toy_graph.num_stations
        assert packed.period == toy_graph.timetable.period
        assert packed.num_edges == toy_graph.num_edges
        assert packed.edge_indptr.shape == (toy_graph.num_nodes + 1,)
        assert packed.node_station.tolist() == list(toy_graph.node_station)

    def test_edge_order_matches_adjacency(self, toy_graph, packed):
        """The kernel relaxes in graph.adjacency order; packing must
        preserve it (targets, constant weights, ttf point sets)."""
        e = 0
        for u, edges in enumerate(toy_graph.adjacency):
            assert packed.edge_indptr[u] == e
            for edge in edges:
                assert packed.edge_target[e] == edge.target
                if edge.ttf is None:
                    assert packed.edge_ttf[e] == -1
                    assert packed.edge_weight[e] == edge.weight
                else:
                    fid = int(packed.edge_ttf[e])
                    lo, hi = packed.ttf_indptr[fid], packed.ttf_indptr[fid + 1]
                    assert packed.ttf_dep[lo:hi].tolist() == list(edge.ttf.deps)
                    assert packed.ttf_dur[lo:hi].tolist() == list(edge.ttf.durs)
                    assert bool(packed.ttf_fifo[fid]) == edge.ttf.is_fifo()
                e += 1
        assert packed.edge_indptr[-1] == e

    def test_connection_csr_matches_timetable(self, toy, toy_graph, packed):
        assert packed.num_connections == toy.num_connections
        for station in range(toy.num_stations):
            conns = toy.outgoing_connections(station)
            deps, starts = packed.source_connection_arrays(station)
            assert deps.tolist() == [c.dep_time for c in conns]
            assert starts.tolist() == [
                toy_graph.source_route_node(c) for c in conns
            ]
            assert packed.outgoing_connection_count(station) == len(conns)

    def test_transfer_times(self, toy, packed):
        assert packed.transfer_time.tolist() == [
            s.transfer_time for s in toy.stations
        ]

    def test_station_node_predicate(self, toy_graph, packed):
        assert packed.is_station_node(0)
        assert not packed.is_station_node(toy_graph.num_stations)

    def test_nbytes_positive(self, packed):
        assert packed.nbytes() > 0


class TestKernelAdjacency:
    def test_mirrors_are_cached(self, packed):
        assert packed.kernel_adjacency() is packed.kernel_adjacency()

    def test_ttf_tuples_shared_between_edges(self, germany_tiny_graph):
        """Edges referencing the same TravelTimeFunction share one
        mirror tuple (memory and cache locality)."""
        packed = pack_td_graph(germany_tiny_graph)
        adjacency = packed.kernel_adjacency()
        by_id = {}
        for edges in adjacency:
            for _tgt, _w, ttf in edges:
                if ttf is not None:
                    by_id[id(ttf)] = ttf
        assert len(by_id) == packed.ttf_fifo.size

    def test_constant_and_ttf_arithmetic(self, toy_graph, packed):
        """Every edge of the mirror against the object evaluation, and
        a row's least cost is the function's least duration."""
        adjacency = packed.kernel_adjacency()
        period = packed.period
        for u, edges in enumerate(toy_graph.adjacency):
            for edge, (tgt, w, row) in zip(edges, adjacency[u]):
                assert tgt == edge.target
                for t in (0, 600, period - 1, period + 600):
                    if edge.ttf is None:
                        assert row is None and edge.arrival(t) == t + w
                    else:
                        assert edge.arrival(t) == t + row[t % period]
                if row is not None:
                    assert len(row) == period
                    assert min(row) == edge.ttf.min_duration()


#: The bound below which each row typecode holds its values.
BOUNDS = {"B": 1 << 8, "H": 1 << 16, "I": 1 << 32, "q": 1 << 63}


def _function_rows(graph, arrays):
    """``(ttf, row)`` per route edge, the row from the kernel mirror."""
    for edges, mirrored in zip(graph.adjacency, arrays.kernel_adjacency()):
        for edge, (_, _, row) in zip(edges, mirrored):
            if edge.ttf is not None:
                yield edge.ttf, row


class TestTravelTimeRows:
    """The mirror's one-index travel-time functions against
    :meth:`TravelTimeFunction.arrival`, on the adversarial timetables
    of the kernel suites: overtaking (non-FIFO) legs, period wrap,
    zero transfer times, duplicate trains."""

    @settings(
        deadline=None,
        max_examples=80,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(timetable=adversarial_timetables())
    def test_a_row_is_its_function_at_every_minute(self, timetable):
        graph = build_td_graph(timetable)
        period = timetable.period
        for ttf, row in _function_rows(graph, pack_td_graph(graph)):
            assert list(row) == [
                ttf.arrival(tau) - tau for tau in range(period)
            ]
            # The narrowest typecode that holds the row.
            codes = [code for code, bound in BOUNDS.items() if max(row) < bound]
            assert row.typecode == codes[0]
            assert min(row) == ttf.min_duration()

    @settings(
        deadline=None,
        max_examples=80,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(timetable=adversarial_timetables(), data=st.data())
    def test_a_patched_pack_has_the_rows_of_a_fresh_one(self, timetable, data):
        """Patched from the routes, no graph involved: every buffer and
        both mirrors of a cold pack of the re-timed timetable."""
        changes = data.draw(retimings(timetable), label="(shift, stretch) per train")
        assert_packs_equal(
            *patched_pack(timetable, retimed(timetable, changes), changes)
        )

    def test_a_longer_ride_alone_reorders_its_conn_row(self):
        """Two trains leave s0 at minute 0 and reach s1 at minute 1;
        the first then rides a minute longer.  Its departure is
        unchanged, but ``conn(s0)`` is ordered by arrival among equal
        departures, so the patched row must swap the two — else the
        table's reduction keeps a different point than a fresh pack's."""
        builder = TimetableBuilder(period=60)
        s0, s1, s2 = (builder.add_station(f"s{k}") for k in range(3))
        builder.add_trip([(s0, 0), (s1, 1)])
        builder.add_trip([(s0, 0), (s1, 1), (s2, 2)])
        timetable = builder.build()
        patched, fresh = patched_pack(
            timetable, retimed(timetable, {0: (0, 1)}), {0}
        )
        assert patched.conn_start.tolist() == fresh.conn_start.tolist()
        assert_packs_equal(patched, fresh)

    def test_two_departures_at_one_minute_seed_their_own_legs(self):
        """Slack recovery on a ride without dwell can move a train's
        next departure onto the minute of the one before (here both at
        15, from s0 and s1).  Each ``conn(S)`` entry still seeds its own
        leg's route node, patched as cold."""
        builder = TimetableBuilder(period=60)
        s0, s1, s2 = (builder.add_station(f"s{k}") for k in range(3))
        builder.add_trip([(s0, 10), (s1, 12), (s2, 20)])
        timetable = builder.build()
        delayed = apply_delays(timetable, [Delay(train=0, minutes=5)], slack_per_leg=2)
        assert [c.dep_time for c in delayed.connections] == [15, 15]
        patched, fresh = patched_pack(timetable, delayed, {0})
        assert_packs_equal(patched, fresh)
        route_nodes = [timetable.num_stations, timetable.num_stations + 1]
        assert [
            int(fresh.source_connection_arrays(s)[1][0]) for s in (s0, s1)
        ] == route_nodes

    def test_a_route_through_one_station_twice_seeds_each_visit(self):
        """A loop line leaves s0 from its first and its third stop: the
        k-th departure of a train from s0 seeds the k-th of those legs,
        in the patched pack as in a cold one."""
        builder = TimetableBuilder(period=1440)
        s0, s1, s2 = (builder.add_station(f"s{k}") for k in range(3))
        for start in (0, 100):
            builder.add_trip(
                [(s0, start), (s1, start + 10), (s0, start + 20), (s2, start + 30)]
            )
        timetable = builder.build()
        patched, fresh = patched_pack(
            timetable, retimed(timetable, {0: (15, 0), 1: (5, 2)}), {0, 1}
        )
        assert_packs_equal(patched, fresh)
        assert sorted(fresh.source_connection_arrays(s0)[1].tolist()) == [
            3, 3, 5, 5
        ]

    def test_a_function_without_points_is_never_taken(self, toy):
        graph = build_td_graph(toy)
        graph.adjacency[0].append(
            Edge(graph.num_stations, 0, TravelTimeFunction([], []))
        )
        ((_, row),) = [
            (ttf, row)
            for ttf, row in _function_rows(graph, pack_td_graph(graph))
            if not len(ttf)
        ]
        assert row.typecode == "q" and set(row) == {INF_TIME}


class TestPickling:
    def test_roundtrip_drops_cache_and_preserves_arrays(self, packed):
        packed.kernel_adjacency()  # warm the caches
        packed.reverse_min_adjacency()
        clone = pickle.loads(pickle.dumps(packed))
        assert clone._adjacency_cache is None
        assert clone._reverse_cache is None
        assert np.array_equal(clone.edge_target, packed.edge_target)
        assert np.array_equal(clone.conn_dep, packed.conn_dep)
        assert clone.kernel_adjacency() == packed.kernel_adjacency()
        assert clone.reverse_min_adjacency() == packed.reverse_min_adjacency()


class TestPackedArraysCache:
    def test_same_graph_hits_cache(self, toy_graph):
        assert packed_arrays(toy_graph) is packed_arrays(toy_graph)

    def test_distinct_graphs_get_distinct_packs(self, toy):
        g1, g2 = build_td_graph(toy), build_td_graph(toy)
        a1, a2 = packed_arrays(g1), packed_arrays(g2)
        assert a1 is not a2
        assert np.array_equal(a1.edge_target, a2.edge_target)
