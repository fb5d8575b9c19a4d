"""Table 2 — station-to-station queries with distance-table pruning
(paper §5.2).

For each instance: the stopping-criterion-only baseline (0.0 %), a sweep
of contraction-selected transfer-station fractions, and the ``deg > 2``
rule.  Reported per row: number of transfer stations, preprocessing
time, table size, mean settled connections, mean simulated query time,
and the speed-up over the 0.0 % row — the paper's Table 2 columns.
Preprocessing is read twice: the wall time of the backward scan that
builds the table here (``repro.query.distance_table``), and the paper's
§5.2 build — one parallel one-to-all search per transfer station "on 8
cores" — as simulated seconds (``parallel_profile_search`` at p = 8,
flat kernel: the slowest subset plus the merge, summed over the rows).

Expected shape (paper): the stopping criterion alone ≈ 20 % faster than
plain one-to-all; tables pay off up to ≈ 5 % transfer stations, then
flatten while preprocessing cost keeps growing.

Fractions adapt to instance size: a fraction selecting no station is
skipped (the paper's 1 % rows on our scaled-down networks).
"""

from __future__ import annotations

from statistics import fmean

import pytest

from repro.analysis.formatting import format_table
from repro.core.parallel import parallel_profile_search
from repro.query.table_query import StationToStationEngine
from repro.service import ServiceConfig
from repro.service.prepare import prepare_dataset
from repro.synthetic.workloads import random_station_pairs

from benchmarks.conftest import ALL_INSTANCES

NUM_QUERIES = 5
NUM_CORES = 8
FRACTIONS = (0.0, 0.01, 0.025, 0.05, 0.10, 0.20, 0.30)

_rows: dict[str, list] = {}
_SELECTIONS = [f"{f * 100:.1f}%" for f in FRACTIONS] + ["deg > 2"]


def _run_row(graph, selection, pairs):
    base = ServiceConfig(num_threads=NUM_CORES)
    if selection == "0.0%":
        config = base
    elif selection == "deg > 2":
        config = base.with_overrides(
            use_distance_table=True,
            transfer_selection="degree",
            min_degree=2,
        )
    else:
        config = base.with_overrides(
            use_distance_table=True,
            transfer_selection="contraction",
            transfer_fraction=float(selection.rstrip("%")) / 100.0,
        )
    prepared = prepare_dataset(graph.timetable, config)
    table = prepared.table

    if selection != "0.0%" and table is None:
        return None  # fraction too small for this scaled-down instance

    prepro, spcs, mib = (0.0, 0.0, 0.0) if table is None else (
        table.build_seconds,
        sum(
            parallel_profile_search(
                graph, int(station), NUM_CORES, kernel="flat"
            ).stats.simulated_time
            for station in table.transfer_stations
        ),
        table.size_mib(),
    )
    # The paper's queries: the reference kernel, on the prepared table.
    engine = StationToStationEngine(
        graph,
        table,
        num_threads=NUM_CORES,
        kernel="python",
        station_graph=prepared.station_graph,
    )
    settled, times = [], []
    for s, t in pairs:
        result = engine.query(s, t)
        settled.append(result.settled_connections)
        times.append(result.simulated_time)
    return {
        "selection": selection,
        "num_transfer": prepared.stats.num_transfer_stations,
        "prepro": prepro,
        "spcs": spcs,
        "mib": mib,
        "settled": fmean(settled),
        "time": fmean(times),
    }


@pytest.mark.parametrize("instance", ALL_INSTANCES)
@pytest.mark.parametrize("selection", _SELECTIONS)
def test_station_to_station(benchmark, graphs, report, benchops, instance, selection):
    graph = graphs.graph(instance)
    pairs = random_station_pairs(graph.timetable, NUM_QUERIES, seed=2)
    row = benchmark.pedantic(
        _run_row, args=(graph, selection, pairs), rounds=1, iterations=1
    )
    _rows.setdefault(instance, []).append(row)
    if len(_rows[instance]) == len(_SELECTIONS):
        _emit(report, benchops, instance)


def _emit(report, benchops, instance):
    rows = [r for r in _rows[instance] if r is not None]
    base_time = next(r["time"] for r in rows if r["selection"] == "0.0%")
    formatted = [
        [
            r["selection"],
            r["num_transfer"],
            f"{r['prepro']:.2f}",
            f"{r['spcs']:.2f}",
            f"{r['mib']:.2f}",
            f"{r['settled']:,.0f}",
            f"{r['time'] * 1000:.1f}",
            f"{base_time / r['time']:.1f}" if r["time"] else "inf",
        ]
        for r in rows
    ]
    table = format_table(
        [
            "selection",
            "|S_trans|",
            "scan [s]",
            "SPCS p=8 [sim s]",
            "space [MiB]",
            "settled conns",
            "time [ms]",
            "spd-up",
        ],
        formatted,
    )
    report.add("table2_distance_tables", f"[{instance}]\n{table}\n")

    # Stopping-criterion baseline vs the best table row: the paper's
    # "tables pay off" claim as two gated times and one speed-up.
    table_rows = [r for r in rows if r["selection"] != "0.0%"]
    metrics = {"stopping_only_ms": base_time * 1000}
    if table_rows:
        best = min(table_rows, key=lambda r: r["time"])
        metrics["best_table_ms"] = best["time"] * 1000
        if best["time"]:
            metrics["best_table_speedup"] = base_time / best["time"]
        metrics["best_table_space_mib"] = best["mib"]
    benchops.add(
        "table2_distance_tables",
        metrics,
        config={
            "instance": instance,
            "num_queries": NUM_QUERIES,
            "cores": NUM_CORES,
            "selections": _SELECTIONS,
        },
    )
