"""Table 1 — one-to-all profile queries (paper §5.1).

CS (parallel self-pruning connection-setting) on 1, 2, 4 and 8
simulated cores vs the label-correcting baseline (LC), on all five
instances — and, new to this repo, on both execution kernels:
``python`` (the reference object-graph SPCS, the seed implementation)
and ``flat`` (the packed flat-array kernel of
:mod:`repro.core.spcs_kernel`).  Each (instance, kernel) is one timed
:func:`repro.analysis.run_table1` call (LC runs once, beside the flat
kernel, so it renders last) rendered by
:func:`repro.analysis.render_table1`: mean settled connections (summed
over cores), mean simulated time, and speed-up over the same kernel's
1-core run.  The record adds the
kernel's speed-up (CS[python] over CS[flat] at p = 1; the acceptance
bar is ≥3× one-to-all on the default instances) and the LC-vs-CS work
ratio.

Expected shape (paper): CS settles ~6–15× fewer connections than LC and
wins wall-clock by a smaller factor; settled counts grow mildly with p
(cross-thread self-pruning is lost), worst on the sparse rail instance.
The two kernels settle slightly different counts on exact arrival ties
(queue tie-breaking) while producing identical profiles.

The core sweep is the scalability figure and the partition figure of
§5.1 / §3.2 as Table 1 cells: one bus instance (losangeles) and one
rail instance (europe) on p = 1…16, once per partition strategy, on
the reference kernel.  It is read as work, which is deterministic:
the busiest core's settled count bounds the speed-up (``work bnd``),
the summed count over p = 1 is the self-pruning lost across cores
(``overhead``, worst on rail), and equal-#connections balances the
cores best (``max/mean``) — the paper's reason for making it the
default.
"""

from __future__ import annotations

import pytest

from repro.analysis import Table1Result, render_table1, run_table1
from repro.core.parallel import KERNELS
from repro.core.partition import PARTITION_STRATEGIES

from benchmarks.conftest import ALL_INSTANCES, CORE_COUNTS

NUM_QUERIES = 3
SWEEP_INSTANCES = ("losangeles", "europe")
SWEEP_CORES = (1, 2, 4, 8, 16)
#: The sweep's sources are ``random_sources(…, seed=SWEEP_SEED + 1)``;
#: its records name them outright.
SWEEP_SEED = 3

_results: dict[tuple[str, str], Table1Result] = {}


@pytest.mark.parametrize("instance", ALL_INSTANCES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_one_to_all(benchmark, graphs, report, benchops, instance, kernel):
    _results[instance, kernel] = benchmark.pedantic(
        run_table1,
        args=(instance,),
        kwargs={
            "graph": graphs.graph(instance),
            "num_queries": NUM_QUERIES,
            "cores": CORE_COUNTS,
            "include_lc": kernel == KERNELS[-1],
            "kernel": kernel,
        },
        rounds=1,
        iterations=1,
    )
    if all((instance, k) in _results for k in KERNELS):
        _emit(report, benchops, instance)


def _emit(report, benchops, instance):
    """Emit the instance's Table 1 block once both kernels are in."""
    results = [_results[instance, kernel] for kernel in KERNELS]
    report.add("table1_one_to_all", render_table1(results) + "\n")

    # One record per instance: every timed cell plus the headline
    # kernel speed-up the acceptance bar quotes (python p=1 / flat p=1)
    # and the CS-vs-LC work ratio (settled counts are deterministic).
    metrics = {
        f"cs_{result.kernel}_p{cell.num_cores}_ms": cell.time_mean * 1000
        for result in results
        for cell in result.cells
    }
    reference, flat = _results[instance, "python"], _results[instance, "flat"]
    lc = flat.lc
    metrics["lc_ms"] = lc.time_mean * 1000
    if flat.cells[0].time_mean:
        metrics["kernel_speedup"] = (
            reference.cells[0].time_mean / flat.cells[0].time_mean
        )
    if reference.cells[0].settled_mean:
        metrics["lc_vs_cs_settled_ratio"] = (
            lc.settled_mean / reference.cells[0].settled_mean
        )
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


@pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
@pytest.mark.parametrize("instance", SWEEP_INSTANCES)
def test_core_sweep(benchmark, graphs, report, benchops, instance, strategy):
    result = benchmark.pedantic(
        run_table1,
        args=(instance,),
        kwargs={
            "graph": graphs.graph(instance),
            "num_queries": NUM_QUERIES,
            "cores": SWEEP_CORES,
            "include_lc": False,
            "strategy": strategy,
            "seed": SWEEP_SEED,
        },
        rounds=1,
        iterations=1,
    )
    report.add("table1_core_sweep", f"[{strategy}]\n{render_table1([result])}\n")

    # The work per core count; every number is a deterministic count
    # or a ratio of counts.
    metrics: dict[str, float] = {}
    for cell in result.cells:
        p = cell.num_cores
        metrics[f"p{p}_settled"] = cell.settled_mean
        metrics[f"p{p}_work_bound"] = result.work_bound(cell)
        metrics[f"p{p}_overhead"] = result.overhead(cell)
        metrics[f"p{p}_imbalance"] = cell.imbalance
    benchops.add(
        "table1_core_sweep",
        metrics,
        config={
            "instance": instance,
            "strategy": strategy,
            "kernel": result.kernel,
            "sources": result.sources,
            "cores": list(SWEEP_CORES),
        },
    )
