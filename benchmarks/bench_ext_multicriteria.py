"""EXT-mc — the §6 future-work extension: multi-criteria profile search
(arrival time × number of transfers).

Measures the cost of adding the transfer criterion relative to the
single-criterion SPCS, and the effectiveness of the generalized
per-layer self-pruning rule.  Not a paper artifact — an extension bench
recorded for completeness.
"""

from __future__ import annotations

from statistics import fmean

import pytest

from repro.analysis.formatting import format_table
from repro.core.multicriteria import mc_profile_search
from repro.core.spcs import spcs_profile_search
from repro.synthetic.workloads import random_sources

NUM_QUERIES = 2
INSTANCE = "germany"
VARIANTS = ("single", "mc-k2", "mc-k4", "mc-k4-noprune")

_rows: dict[str, dict] = {}


def _run(graph, variant, sources):
    if variant == "single":
        runs = [spcs_profile_search(graph, s) for s in sources]
        return {
            "settled": fmean(r.stats.settled_connections for r in runs),
            "pruned": fmean(r.stats.pruned_self for r in runs),
        }
    max_transfers = {"mc-k2": 2, "mc-k4": 4, "mc-k4-noprune": 4}[variant]
    self_pruning = variant != "mc-k4-noprune"
    runs = [
        mc_profile_search(
            graph, s, max_transfers=max_transfers, self_pruning=self_pruning
        )
        for s in sources
    ]
    return {
        "settled": fmean(r.stats.settled for r in runs),
        "pruned": fmean(r.stats.pruned for r in runs),
    }


@pytest.mark.parametrize("variant", VARIANTS)
def test_multicriteria_cost(benchmark, graphs, report, benchops, variant):
    graph = graphs.graph(INSTANCE)
    sources = random_sources(graph.timetable, NUM_QUERIES, seed=8)
    stats = benchmark.pedantic(_run, args=(graph, variant, sources), rounds=1, iterations=1)
    _rows[variant] = {**stats, "time": benchmark.stats["mean"]}
    if len(_rows) == len(VARIANTS):
        rows = [
            [
                v,
                f"{_rows[v]['settled']:,.0f}",
                f"{_rows[v]['pruned']:,.0f}",
                f"{_rows[v]['time'] * 1000:.1f}",
            ]
            for v in VARIANTS
        ]
        table = format_table(
            ["variant", "settled", "dominance-pruned", "time [ms]"], rows
        )
        report.add("ext_multicriteria", f"[{INSTANCE}]\n{table}\n")

        metrics = {
            f"{v.replace('-', '_')}_ms": _rows[v]["time"] * 1000
            for v in VARIANTS
        }
        # Pruning effectiveness: settled work saved by the per-layer
        # rule (deterministic counts, gated exactly).
        if _rows["mc-k4"]["settled"]:
            metrics["mc_prune_work_reduction_speedup"] = (
                _rows["mc-k4-noprune"]["settled"] / _rows["mc-k4"]["settled"]
            )
        benchops.add(
            "ext_multicriteria",
            metrics,
            config={
                "instance": INSTANCE,
                "num_queries": NUM_QUERIES,
                "variants": list(VARIANTS),
            },
        )
