"""Unit and property tests for the station-to-station engine (paper §4).

The decisive property: whatever combination of stopping criterion,
distance-table pruning and target pruning is enabled, the answer must
equal the unaccelerated one-to-all profile.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parallel import KERNELS, parallel_profile_search
from repro.graph.td_arrays import packed_arrays
from repro.graph.td_model import build_td_graph
from repro.query.distance_table import build_distance_table
from repro.query.table_query import StationToStationEngine
from repro.query.transfer_selection import select_transfer_stations

from tests.helpers import random_line_timetable


@pytest.fixture(scope="module")
def oahu_engines(request):
    graph = request.getfixturevalue("oahu_tiny_graph")
    stations = select_transfer_stations(
        graph.timetable, method="contraction", fraction=0.3
    )
    table = build_distance_table(packed_arrays(graph), stations)
    return {
        "graph": graph,
        "table": table,
        "full": StationToStationEngine(graph, table, num_threads=4),
        "plain": StationToStationEngine(graph, None, num_threads=4),
        "no_stop": StationToStationEngine(graph, table, num_threads=4, stopping=False),
    }


class TestCorrectnessOnInstance:
    def test_matches_ground_truth(self, oahu_engines):
        graph = oahu_engines["graph"]
        rng = np.random.default_rng(11)
        for _ in range(25):
            s, t = rng.integers(0, graph.num_stations, 2)
            if s == t:
                continue
            truth = parallel_profile_search(graph, int(s), 4).profile(int(t))
            for engine_name in ("full", "plain", "no_stop"):
                result = oahu_engines[engine_name].query(int(s), int(t))
                assert result.profile == truth, (engine_name, s, t)

    def test_table_shortcut_used_for_transfer_pairs(self, oahu_engines):
        table = oahu_engines["table"]
        a, b = table.transfer_stations[:2].tolist()
        result = oahu_engines["full"].query(a, b)
        assert result.classification == "table"
        assert result.settled_connections == 0

    def test_trivial_query(self, oahu_engines):
        result = oahu_engines["full"].query(3, 3)
        assert result.classification == "trivial"
        assert result.profile.is_empty()

    def test_rejects_route_nodes(self, oahu_engines):
        graph = oahu_engines["graph"]
        with pytest.raises(ValueError, match="station"):
            oahu_engines["full"].query(0, graph.num_nodes - 1)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_rejects_a_bad_partition_when_constructed(
        self, oahu_engines, kernel
    ):
        """An unknown strategy or no thread is refused before any
        query, naming the choices, as ``parallel_profile_search`` does
        — not a ``KeyError`` at the first search."""
        graph = oahu_engines["graph"]
        choices = r"partition strategy 'nope'; choose from .*equal-time-slots"
        with pytest.raises(ValueError, match=choices):
            StationToStationEngine(graph, strategy="nope", kernel=kernel)
        with pytest.raises(ValueError, match="at least one thread"):
            StationToStationEngine(graph, num_threads=0, kernel=kernel)

    def test_pruning_reduces_work_for_global_queries(self, oahu_engines):
        graph = oahu_engines["graph"]
        rng = np.random.default_rng(5)
        with_table = 0
        without = 0
        globals_seen = 0
        for _ in range(30):
            s, t = rng.integers(0, graph.num_stations, 2)
            if s == t:
                continue
            full = oahu_engines["full"].query(int(s), int(t))
            plain = oahu_engines["plain"].query(int(s), int(t))
            if full.classification in ("global", "table"):
                globals_seen += 1
                with_table += full.settled_connections
                without += plain.settled_connections
        assert globals_seen > 0
        assert with_table < without

    def test_stopping_reduces_work(self, oahu_engines):
        graph = oahu_engines["graph"]
        no_stop = oahu_engines["no_stop"]
        full = oahu_engines["full"]
        rng = np.random.default_rng(7)
        stopped_total, unstopped_total = 0, 0
        for _ in range(15):
            s, t = rng.integers(0, graph.num_stations, 2)
            if s == t:
                continue
            stopped_total += full.query(int(s), int(t)).settled_connections
            unstopped_total += no_stop.query(int(s), int(t)).settled_connections
        assert stopped_total <= unstopped_total

    def test_classification_reported(self, oahu_engines):
        graph = oahu_engines["graph"]
        table = oahu_engines["table"]
        non_transfer = [
            s for s in range(graph.num_stations) if not table.contains(s)
        ]
        result = oahu_engines["full"].query(non_transfer[0], non_transfer[-1])
        assert result.classification in ("local", "global")

    def test_simulated_time_accounting(self, oahu_engines):
        result = oahu_engines["full"].query(0, 5)
        if result.time_per_thread:
            assert result.simulated_time == pytest.approx(
                max(result.time_per_thread) + result.merge_time
            )

    def test_earliest_arrival_convenience(self, oahu_engines):
        result = oahu_engines["full"].query(0, 5)
        assert result.earliest_arrival(480) == result.profile.earliest_arrival(480)


class TestPropertyRandomNetworks:
    @settings(deadline=None, max_examples=8)
    @given(seed=st.integers(min_value=0, max_value=400))
    def test_engine_matches_truth_on_random_networks(self, seed):
        graph = build_td_graph(
            random_line_timetable(seed, num_stations=10, num_lines=5)
        )
        stations = select_transfer_stations(
            graph.timetable, method="contraction", fraction=0.3
        )
        table = (
            build_distance_table(packed_arrays(graph), stations)
            if stations.size
            else None
        )
        engine = StationToStationEngine(graph, table, num_threads=2)
        rng = np.random.default_rng(seed)
        for _ in range(6):
            s, t = rng.integers(0, graph.num_stations, 2)
            if s == t:
                continue
            truth = parallel_profile_search(graph, int(s), 2).profile(int(t))
            answer = engine.query(int(s), int(t))
            assert answer.profile == truth, (seed, s, t, answer.classification)

    @settings(deadline=None, max_examples=6)
    @given(seed=st.integers(min_value=0, max_value=400))
    def test_target_pruning_correct_for_transfer_targets(self, seed):
        """Queries *to* a transfer station exercise Theorem 4."""
        graph = build_td_graph(
            random_line_timetable(seed, num_stations=9, num_lines=5)
        )
        stations = select_transfer_stations(
            graph.timetable, method="contraction", fraction=0.35
        )
        if stations.size == 0:
            return
        table = build_distance_table(packed_arrays(graph), stations)
        engine = StationToStationEngine(graph, table, num_threads=2)
        non_transfer = [
            s for s in range(graph.num_stations) if not table.contains(s)
        ]
        for s in non_transfer[:4]:
            for t in stations.tolist()[:4]:
                truth = parallel_profile_search(graph, s, 2).profile(t)
                answer = engine.query(s, t)
                assert answer.profile == truth, (seed, s, t)


class TestEngineConfiguration:
    def test_table_pruning_flag(self, oahu_tiny_graph):
        engine = StationToStationEngine(oahu_tiny_graph, None)
        assert not engine.table_pruning
        assert not engine.target_pruning

    def test_the_flat_kernel_refuses_theorem_3(self, oahu_engines):
        """Theorem 3 is the reference kernel's rule: a flat engine with
        a table and ``table_pruning`` on is refused when constructed;
        without either it runs, and classifies a searched query
        ``local`` with no via stations computed."""
        graph, table = oahu_engines["graph"], oahu_engines["table"]
        with pytest.raises(ValueError, match="Theorem 3"):
            StationToStationEngine(graph, table, kernel="flat")
        assert not StationToStationEngine(graph, None, kernel="flat").table_pruning
        engine = StationToStationEngine(
            graph, table, table_pruning=False, kernel="flat"
        )
        assert engine.target_pruning
        outside = [s for s in range(graph.num_stations) if not table.contains(s)]
        assert engine.classify(outside[0], outside[-1]) == ("local", None)

    def test_classify_trivial(self, oahu_tiny_graph):
        engine = StationToStationEngine(oahu_tiny_graph, None)
        assert engine.classify(2, 2)[0] == "trivial"
