"""A-stop — ablation: stopping criterion (paper §5.2, "the stopping
criterion accelerates queries by approximately 20 %").

Station-to-station queries without any distance table, ``stopping`` on
vs off, on both kernels.  On ``python`` the switch is Theorem 2 and
nothing else — the paper's figure.  On ``flat`` the same switch hands
the kernel a target, which also makes the search goal-directed
(``docs/KERNEL.md``, "Goal direction"), so the two rows sit side by
side as *settled connections*: the count is what goal direction
changes, and it does not depend on the machine.
"""

from __future__ import annotations

from statistics import fmean

import pytest

from repro.analysis.formatting import format_table
from repro.core.parallel import KERNELS
from repro.query.table_query import StationToStationEngine
from repro.synthetic.workloads import random_station_pairs

NUM_QUERIES = 5
NUM_CORES = 8
INSTANCES = ("oahu", "losangeles")

_cells: dict[tuple[str, str, bool], dict[str, float]] = {}


@pytest.mark.parametrize("instance", INSTANCES)
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("stopping", (True, False), ids=["stop", "nostop"])
def test_stopping_criterion(
    benchmark, graphs, report, benchops, instance, kernel, stopping
):
    graph = graphs.graph(instance)
    engine = StationToStationEngine(
        graph, num_threads=NUM_CORES, stopping=stopping, kernel=kernel
    )
    pairs = random_station_pairs(graph.timetable, NUM_QUERIES, seed=7)

    def run():
        return [engine.query(s, t) for s, t in pairs]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    _cells[(instance, kernel, stopping)] = {
        "settled": fmean(r.settled_connections for r in results),
        "time": fmean(r.simulated_time for r in results),
    }
    if len(_cells) < len(INSTANCES) * len(KERNELS) * 2:
        return

    rows = []
    metrics: dict[str, float] = {}
    for inst in INSTANCES:
        for kern in KERNELS:
            on, off = _cells[(inst, kern, True)], _cells[(inst, kern, False)]
            for label, cell in (("on", on), ("off", off)):
                rows.append(
                    [
                        inst,
                        kern,
                        label,
                        f"{cell['settled']:,.0f}",
                        f"{cell['settled'] / off['settled']:.2f}",
                        f"{cell['time'] * 1000:.1f}",
                    ]
                )
            # The paper's "~20 % faster" claim (python) beside the
            # goal-directed figure (flat): settled counts, both wall
            # times and the on/off speed-up.
            prefix = f"{inst}_{kern}"
            metrics[f"{prefix}_stop_settled"] = on["settled"]
            metrics[f"{prefix}_nostop_settled"] = off["settled"]
            metrics[f"{prefix}_stop_ms"] = on["time"] * 1000
            metrics[f"{prefix}_nostop_ms"] = off["time"] * 1000
            if on["time"]:
                metrics[f"{prefix}_stopping_speedup"] = off["time"] / on["time"]
    table = format_table(
        [
            "instance", "kernel", "stopping", "settled conns",
            "vs off", "time [ms]",
        ],
        rows,
    )
    report.add("ablation_stopping", table + "\n")
    benchops.add(
        "ablation_stopping",
        metrics,
        config={
            "instances": list(INSTANCES),
            "kernels": list(KERNELS),
            "num_queries": NUM_QUERIES,
            "cores": NUM_CORES,
        },
    )
