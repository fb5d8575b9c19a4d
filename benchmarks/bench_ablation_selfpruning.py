"""A-sp — ablation: self-pruning on/off (paper §3.1 / Table 1 gap).

Disabling Theorem 1's self-pruning makes SPCS settle every reachable
(node, connection) pair, approaching the LC work level — quantifying
how much of the CS-vs-LC gap the pruning rule delivers.
"""

from __future__ import annotations

from statistics import fmean

import pytest

from repro.analysis.formatting import format_table
from repro.core.spcs import spcs_profile_search
from repro.synthetic.workloads import random_sources

NUM_QUERIES = 3
INSTANCES = ("oahu", "germany")

_rows: list[list] = []


_settled: dict[tuple[str, bool], float] = {}


@pytest.mark.parametrize("instance", INSTANCES)
@pytest.mark.parametrize("self_pruning", (True, False), ids=["pruned", "unpruned"])
def test_self_pruning(benchmark, graphs, report, benchops, instance, self_pruning):
    graph = graphs.graph(instance)
    sources = random_sources(graph.timetable, NUM_QUERIES, seed=5)

    def run():
        return [
            spcs_profile_search(graph, s, self_pruning=self_pruning)
            for s in sources
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    settled = fmean(r.stats.settled_connections for r in results)
    pruned = fmean(r.stats.pruned_self for r in results)
    _settled[(instance, self_pruning)] = settled
    _rows.append(
        [instance, "on" if self_pruning else "off", f"{settled:,.0f}", f"{pruned:,.0f}"]
    )
    if len(_rows) == len(INSTANCES) * 2:
        table = format_table(
            ["instance", "self-pruning", "settled conns", "self-pruned"], _rows
        )
        report.add("ablation_selfpruning", table + "\n")

        # Settled counts are deterministic for a fixed seed; the
        # per-source counts with and without self-pruning are pinned
        # by tests/core/test_reference_queues.py's WORK.
        metrics: dict[str, float] = {}
        for inst in INSTANCES:
            on, off = _settled[(inst, True)], _settled[(inst, False)]
            metrics[f"{inst}_pruned_settled"] = on
            metrics[f"{inst}_unpruned_settled"] = off
            if on:
                metrics[f"{inst}_work_reduction_speedup"] = off / on
        benchops.add(
            "ablation_selfpruning",
            metrics,
            config={"instances": list(INSTANCES), "num_queries": NUM_QUERIES},
        )
