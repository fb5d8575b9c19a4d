"""Table 1 — one-to-all profile queries (paper §5.1).

CS (parallel self-pruning connection-setting) on 1, 2, 4 and 8
simulated cores vs the label-correcting baseline (LC), on all five
instances — and, new to this repo, on both execution kernels:
``python`` (the reference object-graph SPCS, the seed implementation)
and ``flat`` (the packed flat-array kernel of
:mod:`repro.core.spcs_kernel`).  Reported per cell: mean settled
connections (summed over cores), mean simulated time, and speed-up over
the CS[python] 1-core run — so the kernel's speedup is measured, not
asserted (the acceptance bar is ≥3× one-to-all on the default
instances).

Expected shape (paper): CS settles ~6–15× fewer connections than LC and
wins wall-clock by a smaller factor; settled counts grow mildly with p
(cross-thread self-pruning is lost), worst on the sparse rail instance.
The two kernels settle slightly different counts on exact arrival ties
(queue tie-breaking) while producing identical profiles.
"""

from __future__ import annotations

import time
from statistics import fmean

import pytest

from repro.analysis.formatting import format_table
from repro.baselines.label_correcting import label_correcting_profile
from repro.core.parallel import KERNELS, parallel_profile_search
from repro.graph.td_arrays import packed_arrays
from repro.synthetic.workloads import random_sources

from benchmarks.conftest import ALL_INSTANCES, CORE_COUNTS

NUM_QUERIES = 3

_cells: dict[tuple[str, object, object], dict] = {}


def _sources(graph):
    return random_sources(graph.timetable, NUM_QUERIES, seed=1)


@pytest.mark.parametrize("instance", ALL_INSTANCES)
@pytest.mark.parametrize("cores", CORE_COUNTS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_cs_one_to_all(benchmark, graphs, report, benchops, instance, cores, kernel):
    graph = graphs.graph(instance)
    # Graph build and packing are paid once, outside the timed region,
    # as in production.
    arrays = packed_arrays(graph) if kernel == "flat" else None
    sources = _sources(graph)

    def run():
        return [
            parallel_profile_search(graph, s, cores, kernel=kernel, arrays=arrays)
            for s in sources
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    settled = fmean(r.stats.settled_connections for r in results)
    simulated = fmean(r.stats.simulated_time for r in results)
    _cells[(instance, kernel, cores)] = {"settled": settled, "time": simulated}
    _maybe_emit(report, benchops, instance)


@pytest.mark.parametrize("instance", ALL_INSTANCES)
def test_lc_one_to_all(benchmark, graphs, report, benchops, instance):
    graph = graphs.graph(instance)
    sources = _sources(graph)

    def run():
        out = []
        for s in sources:
            t0 = time.perf_counter()
            lc = label_correcting_profile(graph, s, vectorized=False)
            out.append((lc.settled_connections, time.perf_counter() - t0))
        return out

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    _cells[(instance, "LC", None)] = {
        "settled": fmean(s for s, _ in stats),
        "time": fmean(t for _, t in stats),
    }
    _maybe_emit(report, benchops, instance)


def _maybe_emit(report, benchops, instance):
    """Emit the instance's Table 1 block once all its cells are in."""
    keys = [
        (instance, kernel, p) for kernel in KERNELS for p in CORE_COUNTS
    ] + [(instance, "LC", None)]
    if not all(k in _cells for k in keys):
        return
    # Speed-ups are relative to the seed implementation: CS[python], 1 core.
    base_time = _cells[(instance, "python", 1)]["time"]
    rows = []
    for kernel in KERNELS:
        for p in CORE_COUNTS:
            cell = _cells[(instance, kernel, p)]
            rows.append(
                [
                    f"CS[{kernel}]",
                    p,
                    f"{cell['settled']:,.0f}",
                    f"{cell['time'] * 1000:.1f}",
                    f"{base_time / cell['time']:.1f}" if cell["time"] else "inf",
                ]
            )
    lc = _cells[(instance, "LC", None)]
    rows.append(["LC", 1, f"{lc['settled']:,.0f}", f"{lc['time'] * 1000:.1f}", "—"])
    table = format_table(
        ["algo", "p", "settled conns", "time [ms]", "spd-up"], rows
    )
    report.add("table1_one_to_all", f"[{instance}]\n{table}\n")

    # One record per instance: every timed cell plus the headline
    # kernel speed-up the acceptance bar quotes (python p=1 / flat p=1)
    # and the CS-vs-LC work ratio (settled counts are deterministic).
    metrics = {
        f"cs_{kernel}_p{p}_ms": _cells[(instance, kernel, p)]["time"] * 1000
        for kernel in KERNELS
        for p in CORE_COUNTS
    }
    metrics["lc_ms"] = lc["time"] * 1000
    flat_time = _cells[(instance, "flat", 1)]["time"]
    if flat_time:
        metrics["kernel_speedup"] = base_time / flat_time
    cs_settled = _cells[(instance, "python", 1)]["settled"]
    if cs_settled:
        metrics["lc_vs_cs_settled_ratio"] = lc["settled"] / cs_settled
    benchops.add(
        "table1_one_to_all",
        metrics,
        config={
            "instance": instance,
            "num_queries": NUM_QUERIES,
            "cores": list(CORE_COUNTS),
            "kernels": list(KERNELS),
        },
    )
