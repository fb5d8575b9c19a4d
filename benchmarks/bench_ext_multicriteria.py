"""EXT-mc — the §6 future-work extension: multi-criteria profile search
(arrival time × number of transfers).

Measures the cost of adding the transfer criterion relative to the
single-criterion SPCS, the effectiveness of the generalized per-layer
self-pruning rule, and the flat kernel against the readable reference
(``mc-k4[flat]`` vs ``mc-k4[python]``: same search, same budget; CI's
``bench-smoke`` job asserts the former is faster).  ``mc-k2`` and
``mc-k4-noprune`` run the production (flat) kernel.  Not a paper
artifact — an extension bench recorded for completeness.
"""

from __future__ import annotations

import re
from statistics import fmean

import pytest

from repro.analysis.formatting import format_table
from repro.core.mc_reference import mc_reference_search
from repro.core.multicriteria import mc_profile_search
from repro.core.spcs import spcs_profile_search
from repro.graph.td_arrays import packed_arrays
from repro.synthetic.workloads import random_sources

NUM_QUERIES = 2
INSTANCE = "germany"
VARIANTS = ("single", "mc-k2", "mc-k4[python]", "mc-k4[flat]", "mc-k4-noprune")

_rows: dict[str, dict] = {}


def _run(graph, variant, sources):
    if variant == "single":
        runs = [spcs_profile_search(graph, s) for s in sources]
        return {
            "settled": fmean(r.stats.settled_connections for r in runs),
            "pruned": fmean(r.stats.pruned_self for r in runs),
        }
    search = (
        mc_reference_search if variant == "mc-k4[python]" else mc_profile_search
    )
    max_transfers = 2 if variant == "mc-k2" else 4
    self_pruning = variant != "mc-k4-noprune"
    runs = [
        search(graph, s, max_transfers=max_transfers, self_pruning=self_pruning)
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
    # Pack (mirrors included) outside the timing; the graph keeps it.
    packed_arrays(graph)
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
            f"{re.sub(r'[^a-z0-9]+', '_', v).strip('_')}_ms": _rows[v]["time"]
            * 1000
            for v in VARIANTS
        }
        # Pruning effectiveness: settled work saved by the per-layer
        # rule (deterministic counts, gated exactly).
        if _rows["mc-k4[flat]"]["settled"]:
            metrics["mc_prune_work_reduction_speedup"] = (
                _rows["mc-k4-noprune"]["settled"]
                / _rows["mc-k4[flat]"]["settled"]
            )
        metrics["mc_flat_kernel_speedup"] = (
            _rows["mc-k4[python]"]["time"] / _rows["mc-k4[flat]"]["time"]
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
