"""F-part — partition strategy balance (paper §3.2, "Choice of the
Partition").

Measures, per strategy, the *work* imbalance (max thread settled count
over mean) and resulting simulated time on 8 cores.  Expected shape:
equal time-slots is clearly unbalanced (rush hours + night break),
equal #connections is near-balanced, k-means adds little — exactly the
paper's justification for the equal-#connections default.
"""

from __future__ import annotations

from statistics import fmean

import pytest

from repro.analysis.formatting import format_table
from repro.core.parallel import parallel_profile_search
from repro.synthetic.workloads import random_sources

NUM_QUERIES = 3
NUM_CORES = 8
STRATEGIES = ("equal-time-slots", "equal-connections", "kmeans")
INSTANCE = "losangeles"

_rows: dict[str, dict] = {}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_partition_strategy(benchmark, graphs, report, benchops, strategy):
    graph = graphs.graph(INSTANCE)
    sources = random_sources(graph.timetable, NUM_QUERIES, seed=4)

    def run():
        return [
            parallel_profile_search(
                graph, s, NUM_CORES, strategy=strategy, kernel="python"
            )
            for s in sources
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    def work_imbalance(stats):
        per_thread = stats.settled_per_thread
        mean = fmean(per_thread) if per_thread else 0.0
        return max(per_thread) / mean if mean else 1.0

    _rows[strategy] = {
        "imbalance": fmean(work_imbalance(r.stats) for r in results),
        "time": fmean(r.stats.simulated_time for r in results),
        "settled": fmean(r.stats.settled_connections for r in results),
    }
    if len(_rows) == len(STRATEGIES):
        rows = [
            [
                s,
                f"{_rows[s]['imbalance']:.2f}",
                f"{_rows[s]['settled']:,.0f}",
                f"{_rows[s]['time'] * 1000:.1f}",
            ]
            for s in STRATEGIES
        ]
        table = format_table(
            ["strategy", "max/mean thread work", "settled conns", "time [ms]"],
            rows,
        )
        report.add("fig_partition_balance", f"[{INSTANCE}, p={NUM_CORES}]\n{table}\n")

        # Per-strategy wall time (gated) + work imbalance (recorded,
        # ungated — a balance shape, not a speed claim).
        metrics = {}
        for strategy_name, cell in _rows.items():
            slug = strategy_name.replace("-", "_")
            metrics[f"{slug}_ms"] = cell["time"] * 1000
            metrics[f"{slug}_imbalance"] = cell["imbalance"]
        benchops.add(
            "fig_partition_balance",
            metrics,
            config={
                "instance": INSTANCE,
                "num_queries": NUM_QUERIES,
                "cores": NUM_CORES,
                "strategies": list(STRATEGIES),
            },
        )
