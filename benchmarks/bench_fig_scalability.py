"""F-scal — speed-up vs core count (paper §5.1 in-text series).

One bus instance (losangeles) and one rail instance (europe), p = 1..8.
The series reproduces the paper's two claims:

* speed-up ≈ 1.9 (p=2), ≈ 3 (p=4), ≈ 4.5–5 (p=8) on dense bus networks;
* the rail network scales worse because each thread holds few outgoing
  connections, so cross-thread self-pruning loss is proportionally
  larger — visible as faster settled-work growth.
"""

from __future__ import annotations

from statistics import fmean

import pytest

from repro.analysis.formatting import format_table
from repro.core.parallel import parallel_profile_search
from repro.synthetic.workloads import random_sources

NUM_QUERIES = 3
SERIES_INSTANCES = ("losangeles", "europe")
SERIES_CORES = tuple(range(1, 9))

_points: dict[str, dict[int, dict]] = {}


@pytest.mark.parametrize("instance", SERIES_INSTANCES)
@pytest.mark.parametrize("cores", SERIES_CORES)
def test_scalability_point(benchmark, graphs, report, benchops, instance, cores):
    graph = graphs.graph(instance)
    sources = random_sources(graph.timetable, NUM_QUERIES, seed=3)

    def run():
        # python kernel: the series reproduces the paper's
        # reference-implementation scaling claims.
        return [
            parallel_profile_search(graph, s, cores, kernel="python")
            for s in sources
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    _points.setdefault(instance, {})[cores] = {
        "settled": fmean(r.stats.settled_connections for r in results),
        "time": fmean(r.stats.simulated_time for r in results),
    }
    if len(_points[instance]) == len(SERIES_CORES):
        _emit(report, benchops, instance)


def _emit(report, benchops, instance):
    series = _points[instance]
    base = series[1]
    rows = [
        [
            p,
            f"{series[p]['settled']:,.0f}",
            f"{series[p]['settled'] / base['settled']:.2f}",
            f"{series[p]['time'] * 1000:.1f}",
            f"{base['time'] / series[p]['time']:.2f}",
        ]
        for p in SERIES_CORES
    ]
    table = format_table(
        ["p", "settled conns", "settled growth", "time [ms]", "speed-up"],
        rows,
    )
    report.add("fig_scalability", f"[{instance}]\n{table}\n")

    # The paper's two scaling claims as gated numbers: the p=8
    # speed-up over p=1 and the endpoint wall times; settled-work
    # growth is recorded ungated (a shape, not a speed claim).
    top = max(SERIES_CORES)
    metrics = {
        "p1_ms": base["time"] * 1000,
        f"p{top}_ms": series[top]["time"] * 1000,
        "settled_growth": series[top]["settled"] / base["settled"]
        if base["settled"]
        else 0.0,
    }
    if series[top]["time"]:
        metrics["scaling_speedup"] = base["time"] / series[top]["time"]
    benchops.add(
        "fig_scalability",
        metrics,
        config={
            "instance": instance,
            "num_queries": NUM_QUERIES,
            "cores": list(SERIES_CORES),
        },
    )
