"""Unit tests for the packed flat-array graph (td_arrays)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.functions.piecewise import INF_TIME
from repro.graph.td_arrays import pack_td_graph, packed_arrays
from repro.graph.td_model import build_td_graph


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
        """Spot-check one ttf mirror against the object evaluation."""
        adjacency = packed.kernel_adjacency()
        for u, edges in enumerate(toy_graph.adjacency):
            for edge, (tgt, w, ttf) in zip(edges, adjacency[u]):
                assert tgt == edge.target
                if edge.ttf is None:
                    assert edge.arrival(600) == 600 + w
                else:
                    deps, durs, fifo, n = ttf
                    assert n == len(deps) == len(durs)
                    arrival = edge.arrival(600)
                    assert arrival >= 600 or arrival == INF_TIME


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
