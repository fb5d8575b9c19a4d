"""A-heap — ablation: priority-queue implementation (paper §5 uses a
binary heap).

Compares the addressable binary heap, an addressable 4-ary heap and the
lazy ``heapq`` wrapper on identical one-to-all SPCS workloads.  The
answers are the same; the work is not, because the queues break key
ties differently and self-pruning depends on the order equal keys
leave the queue.  On this bench's own workload (washington/small, three
searches, mean per search) the binary heap settles 46 353 connections,
the 4-ary heap 46 976 and the lazy queue 98 318: its insertion-order
tie-break defeats self-pruning, and the C-implemented ``heapq`` under
it does not make up for settling twice as much.  Over four runs on a
2-core box the binary heap was the fastest every time (716–1260 ms
against 843–1477 ms for 4-ary and 1172–1384 ms for lazy; the last two
swap places from run to run).  The report shows both columns.
"""

from __future__ import annotations

from statistics import fmean

import pytest

from repro.analysis.formatting import format_table
from repro.core.spcs import spcs_profile_search
from repro.synthetic.workloads import random_sources

NUM_QUERIES = 3
INSTANCE = "washington"
QUEUES = ("binary", "4-ary", "lazy")

_rows: dict[str, dict] = {}


@pytest.mark.parametrize("queue", QUEUES)
def test_heap_variant(benchmark, graphs, report, benchops, queue):
    graph = graphs.graph(INSTANCE)
    sources = random_sources(graph.timetable, NUM_QUERIES, seed=6)

    def run():
        return [spcs_profile_search(graph, s, queue=queue) for s in sources]

    results = benchmark.pedantic(run, rounds=2, iterations=1)
    _rows[queue] = {
        "settled": fmean(r.stats.settled_connections for r in results),
        "mean_s": benchmark.stats["mean"],
    }
    if len(_rows) == len(QUEUES):
        rows = [
            [q, f"{_rows[q]['settled']:,.0f}", f"{_rows[q]['mean_s'] * 1000:.1f}"]
            for q in QUEUES
        ]
        table = format_table(["queue", "settled conns", "time [ms]"], rows)
        report.add("ablation_heap", f"[{INSTANCE}]\n{table}\n")
        benchops.add(
            "ablation_heap",
            {
                f"{q.replace('-', '_')}_ms": _rows[q]["mean_s"] * 1000
                for q in QUEUES
            },
            config={
                "instance": INSTANCE,
                "num_queries": NUM_QUERIES,
                "queues": list(QUEUES),
            },
        )
