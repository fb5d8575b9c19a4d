"""Unit tests for the parallel SPCS driver (paper §3.2)."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.merge import merge_thread_results
from repro.core.parallel import parallel_profile_search, timed_subset_search
from repro.core.spcs import spcs_profile_search
from repro.core.spcs_kernel import run_spcs_search
from repro.graph.td_arrays import packed_arrays


class TestCorrectness:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
    def test_any_core_count_matches_single_run(self, toy_graph, p):
        single = spcs_profile_search(toy_graph, 0)
        result = parallel_profile_search(toy_graph, 0, p)
        for station in range(toy_graph.num_stations):
            assert result.profile(station) == single.profile(station)

    @pytest.mark.parametrize("strategy", ["equal-connections", "equal-time-slots", "kmeans"])
    def test_all_strategies_agree(self, toy_graph, strategy):
        base = parallel_profile_search(toy_graph, 0, 3)
        other = parallel_profile_search(toy_graph, 0, 3, strategy=strategy)
        for station in range(toy_graph.num_stations):
            assert other.profile(station) == base.profile(station)

    def test_more_threads_than_connections(self, toy_graph):
        conns = toy_graph.timetable.outgoing_connections(0)
        result = parallel_profile_search(toy_graph, 0, len(conns) + 5)
        single = spcs_profile_search(toy_graph, 0)
        for station in range(toy_graph.num_stations):
            assert result.profile(station) == single.profile(station)

    def test_rejects_zero_threads(self, toy_graph):
        with pytest.raises(ValueError, match="thread"):
            parallel_profile_search(toy_graph, 0, 0)

    def test_rejects_unknown_strategy(self, toy_graph):
        with pytest.raises(ValueError, match="strategy"):
            parallel_profile_search(toy_graph, 0, 2, strategy="nope")

    @pytest.mark.parametrize("backend", ["gpu", "threads"])
    def test_rejects_unknown_backend(self, toy_graph, backend):
        with pytest.raises(ValueError, match="backend"):
            parallel_profile_search(toy_graph, 0, 2, backend=backend)


class TestBackends:
    @pytest.mark.slow
    def test_processes_backend_matches_serial(self, toy_graph):
        serial = parallel_profile_search(toy_graph, 0, 2, backend="serial")
        procs = parallel_profile_search(toy_graph, 0, 2, backend="processes")
        for station in range(toy_graph.num_stations):
            assert procs.profile(station) == serial.profile(station)
        # Each forked search reports the wall time it measured itself.
        assert len(procs.stats.time_per_thread) == 2
        assert all(t > 0 for t in procs.stats.time_per_thread)

    @pytest.mark.parametrize("kernel", ["python", "flat"])
    def test_two_graphs_fork_concurrently_without_clobbering(
        self, oahu_tiny_graph, germany_tiny_graph, kernel
    ):
        """Regression: the fork workers used to find their graph under
        one shared module-global key, so two threads searching different
        graphs (two datasets, two delay generations) could fork each
        other's graph, or hit ``KeyError`` after the other's cleanup."""
        graphs = [oahu_tiny_graph, germany_tiny_graph] * 3
        expected = [
            parallel_profile_search(g, 1, 2, kernel=kernel) for g in graphs
        ]
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(
                pool.map(
                    lambda g: parallel_profile_search(
                        g, 1, 2, kernel=kernel, backend="processes"
                    ),
                    graphs,
                )
            )
        for exp, res in zip(expected, got):
            assert np.array_equal(res.merged.labels, exp.merged.labels)
            assert np.array_equal(res.merged.conn_deps, exp.merged.conn_deps)
            assert (
                res.stats.settled_per_thread == exp.stats.settled_per_thread
            )


class TestAccounting:
    def test_stats_shapes(self, toy_graph):
        result = parallel_profile_search(toy_graph, 0, 4)
        stats = result.stats
        assert stats.num_threads == 4
        assert len(stats.partition_sizes) == 4
        assert len(stats.settled_per_thread) == 4
        assert len(stats.time_per_thread) == 4
        assert stats.settled_connections == sum(stats.settled_per_thread)

    def test_simulated_time_definition(self, toy_graph):
        stats = parallel_profile_search(toy_graph, 0, 4).stats
        assert stats.simulated_time == pytest.approx(
            max(stats.time_per_thread) + stats.merge_time
        )

    def test_partition_sizes_cover_connections(self, toy_graph):
        result = parallel_profile_search(toy_graph, 0, 4)
        conns = toy_graph.timetable.outgoing_connections(0)
        assert sum(result.stats.partition_sizes) == len(conns)

    def test_parallel_work_never_less_due_to_pruning_loss(self, oahu_tiny_graph):
        """More threads ⇒ less cross-connection self-pruning ⇒ the total
        settled count stays within a small factor of — and typically
        above — the single-thread count (paper §3.2)."""
        single = parallel_profile_search(oahu_tiny_graph, 0, 1)
        multi = parallel_profile_search(oahu_tiny_graph, 0, 8)
        # Tie-breaking noise can shave individual settles; the count must
        # never *drop* noticeably.
        assert multi.stats.settled_connections >= 0.95 * single.stats.settled_connections


class TestStationRows:
    """The driver keeps the station rows of every subset's labels — a
    profile reads nothing else — whichever kernel ran it, however many
    subsets there are, empty ones included."""

    @pytest.mark.parametrize("kernel", ["python", "flat"])
    def test_a_subset_search_returns_its_station_rows(self, oahu_tiny_graph, kernel):
        graph = oahu_tiny_graph
        arrays = packed_arrays(graph) if kernel == "flat" else None
        n = graph.num_stations
        num_conns = len(graph.timetable.outgoing_connections(0))
        for subset in ([], list(range(1, num_conns, 2)), list(range(num_conns))):
            result, _ = timed_subset_search(
                graph, arrays, 0, subset, self_pruning=True
            )
            assert result.labels.shape == (n, len(subset))
            # A copy of its own: the run's node rows are not kept alive.
            assert result.labels.base is None
            assert result.labels.flags.c_contiguous
            whole = run_spcs_search(graph, arrays, 0, connection_subset=subset)
            assert whole.labels.shape[0] == graph.num_nodes > n
            assert np.array_equal(result.labels, whole.labels[:n])

    @pytest.mark.parametrize("kernel", ["python", "flat"])
    def test_every_profile_result_has_one_shape(self, oahu_tiny_graph, kernel):
        graph = oahu_tiny_graph
        n = graph.num_stations
        num_conns = len(graph.timetable.outgoing_connections(0))
        single = spcs_profile_search(graph, 0)
        for p in (1, 2, num_conns + 3):  # the last has empty subsets
            result = parallel_profile_search(graph, 0, p, kernel=kernel)
            assert result.merged.labels.shape == (n, num_conns)
            assert [r.labels.shape[0] for r in result.thread_results] == [n] * p
            for station in range(n):
                assert result.profile(station) == single.profile(station)

    def test_the_merge_refuses_mixed_row_counts(self, oahu_tiny_graph):
        graph = oahu_tiny_graph
        arrays = packed_arrays(graph)
        trimmed, _ = timed_subset_search(
            graph, arrays, 0, [0], self_pruning=True
        )
        whole = run_spcs_search(graph, arrays, 0, connection_subset=[1])
        num_conns = len(graph.timetable.outgoing_connections(0))
        with pytest.raises(ValueError, match="disagree on the graph"):
            merge_thread_results([trimmed, whole], num_conns)
