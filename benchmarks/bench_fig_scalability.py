"""F-scal — speed-up vs core count (paper §5.1 in-text series).

One bus instance (losangeles) and one rail instance (europe), p = 1..8.
The series reproduces the paper's two claims:

* speed-up ≈ 1.9 (p=2), ≈ 3 (p=4), ≈ 4.5–5 (p=8) on dense bus networks;
* the rail network scales worse because each thread holds few outgoing
  connections, so cross-thread self-pruning loss is proportionally
  larger — visible as faster settled-work growth.
"""

from __future__ import annotations

import pytest

from repro.analysis.formatting import format_table
from repro.analysis.runners import run_scalability_series

NUM_QUERIES = 3
#: The sources are ``random_sources(…, seed=SEED + 1)``.
SEED = 2
SERIES_INSTANCES = ("losangeles", "europe")
SERIES_CORES = tuple(range(1, 9))


@pytest.mark.parametrize("instance", SERIES_INSTANCES)
def test_scalability_series(benchmark, graphs, report, benchops, instance):
    # The runner's python kernel: the series reproduces the paper's
    # reference-implementation scaling claims.
    points = benchmark.pedantic(
        run_scalability_series,
        args=(instance,),
        kwargs={
            "num_queries": NUM_QUERIES,
            "max_cores": max(SERIES_CORES),
            "seed": SEED,
            "graph": graphs.graph(instance),
        },
        rounds=1,
        iterations=1,
    )
    rows = [
        [
            point.num_cores,
            f"{point.settled_mean:,.0f}",
            f"{point.settled_growth:.2f}",
            f"{point.time_mean * 1000:.1f}",
            f"{point.speedup:.2f}",
        ]
        for point in points
    ]
    table = format_table(
        ["p", "settled conns", "settled growth", "time [ms]", "speed-up"],
        rows,
    )
    report.add("fig_scalability", f"[{instance}]\n{table}\n")

    # The paper's two scaling claims as gated numbers: the p=8
    # speed-up over p=1 and the endpoint wall times; settled-work
    # growth is recorded ungated (a shape, not a speed claim).
    base, top = points[0], points[-1]
    metrics = {
        "p1_ms": base.time_mean * 1000,
        f"p{top.num_cores}_ms": top.time_mean * 1000,
        "settled_growth": top.settled_growth,
    }
    if top.time_mean:
        metrics["scaling_speedup"] = top.speedup
    benchops.add(
        "fig_scalability",
        metrics,
        config={
            "instance": instance,
            "num_queries": NUM_QUERIES,
            "cores": list(SERIES_CORES),
        },
    )
