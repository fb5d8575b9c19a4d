"""Experiment runners for the paper's evaluation artifacts (§5).

Each dataset is prepared once per configuration and queried many times
through the engines the service wraps, with the experiment's
``kernel`` (by default ``python``, the paper's reference SPCS).  Work
and time accounting follow the paper:

* *Settled Conns* — queue extractions, summed over all cores; for LC,
  the summed sizes of the function labels taken from the queue.
* *Time* — for parallel runs, the **simulated-cores** wall clock
  ``max_t(thread time) + merge time`` (:mod:`repro.core.parallel`
  documents why this substitutes the paper's 8-core Xeon
  measurements); for LC, plain wall clock.
* *Speed-up* — time of the 1-core run over the p-core run (Table 1) or
  of the no-table run over the table-pruned run (Table 2).
* *Work bound* and *overhead* (Table 1, §3.2) — each core's share of
  the work is the settled count of its subset of ``conn(S)``, which
  the serial driver reports exactly: settled at p = 1 over the largest
  subset at p bounds the speed-up, and the subsets' sum over settled
  at p = 1 is the self-pruning lost across cores.  Unlike the times
  they are deterministic, so they compare across sessions and boxes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import fmean

from repro.baselines.label_correcting import label_correcting_profile
from repro.core.parallel import parallel_profile_search
from repro.graph.td_model import TDGraph, build_td_graph
from repro.query.table_query import StationToStationEngine
from repro.service import ServiceConfig
from repro.service.prepare import prepare_dataset
from repro.synthetic.instances import make_instance
from repro.synthetic.workloads import random_sources, random_station_pairs


@dataclass(slots=True)
class OneToAllCell:
    """One (instance, p) cell of Table 1."""

    instance: str
    num_cores: int
    settled_mean: float
    largest_subset_mean: float  # settled by the busiest core
    imbalance: float  # max / mean settled per core, averaged over sources
    time_mean: float  # seconds, simulated-cores
    speedup: float  # over the 1-core run


@dataclass(slots=True)
class LCCell:
    """The label-correcting comparator row of Table 1."""

    instance: str
    settled_mean: float
    time_mean: float  # seconds


@dataclass(slots=True)
class Table1Result:
    instance: str
    kernel: str  # the SPCS kernel of the CS cells
    sources: list[int]
    cells: list[OneToAllCell]  # the first is p = 1
    lc: LCCell | None

    def work_bound(self, cell: OneToAllCell) -> float:
        """The speed-up §3.2's partition allows at ``cell``: settled at
        p = 1 over the busiest core's settled count."""
        largest = cell.largest_subset_mean
        return self.cells[0].settled_mean / largest if largest else 1.0

    def overhead(self, cell: OneToAllCell) -> float:
        """The self-pruning lost across ``cell``'s cores: settled at p
        over settled at p = 1."""
        base = self.cells[0].settled_mean
        return cell.settled_mean / base if base else 1.0


def _prepare(instance: str, scale: str, seed: int) -> TDGraph:
    return build_td_graph(make_instance(instance, scale, seed))


def run_table1(
    instance: str,
    *,
    scale: str = "small",
    num_queries: int = 5,
    cores: tuple[int, ...] = (1, 2, 4, 8),
    include_lc: bool = True,
    strategy: str = "equal-connections",
    kernel: str = "python",
    seed: int = 0,
    graph: TDGraph | None = None,
) -> Table1Result:
    """One-to-all profile queries, CS on each core count vs LC.

    The graph is built (and, for ``flat``, packed) once; the core sweep
    runs :func:`parallel_profile_search` on it per source and core
    count (prepare once, query many).  ``cores`` starts at 1: the
    speed-up and the work bound are over the 1-core run.
    """
    if not cores or cores[0] != 1:
        raise ValueError(f"cores must start at 1, got {cores!r}")
    if graph is None:
        graph = _prepare(instance, scale, seed)
    sources = random_sources(graph.timetable, num_queries, seed=seed + 1)

    cells: list[OneToAllCell] = []
    base_time: float | None = None
    for p in cores:
        stats = [
            parallel_profile_search(
                graph, source, p, strategy=strategy, kernel=kernel
            ).stats
            for source in sources
        ]
        mean_time = fmean(s.simulated_time for s in stats)
        if base_time is None:
            base_time = mean_time
        cells.append(
            OneToAllCell(
                instance=instance,
                num_cores=p,
                settled_mean=fmean(s.settled_connections for s in stats),
                largest_subset_mean=fmean(
                    max(s.settled_per_thread) for s in stats
                ),
                imbalance=fmean(
                    max(s.settled_per_thread) / fmean(s.settled_per_thread)
                    if s.settled_connections
                    else 1.0
                    for s in stats
                ),
                time_mean=mean_time,
                speedup=base_time / mean_time if mean_time else float("inf"),
            )
        )

    lc_cell: LCCell | None = None
    if include_lc:
        lc_settled: list[int] = []
        lc_times: list[float] = []
        for source in sources:
            t0 = time.perf_counter()
            # Scalar mode: the per-connection-point cost model of the
            # paper's C++ LC (numpy batching would distort the time
            # comparison; see the LC docstring and EXPERIMENTS.md).
            lc = label_correcting_profile(graph, source, vectorized=False)
            lc_times.append(time.perf_counter() - t0)
            lc_settled.append(lc.settled_connections)
        lc_cell = LCCell(
            instance=instance,
            settled_mean=fmean(lc_settled),
            time_mean=fmean(lc_times),
        )

    return Table1Result(
        instance=instance,
        kernel=kernel,
        sources=sources,
        cells=cells,
        lc=lc_cell,
    )


@dataclass(slots=True)
class Table2Row:
    """One row of Table 2: a transfer-station selection for an instance."""

    instance: str
    selection: str  # "0.0%", "5.0%", "deg > 2", ...
    num_transfer: int
    prepro_seconds: float  # wall time of the table's backward scan
    # The paper's §5.2 build: one flat-kernel parallel one-to-all search
    # per transfer station on ``num_cores``, simulated seconds summed.
    spcs_seconds: float
    table_mib: float
    settled_mean: float
    time_mean: float  # seconds, simulated-cores
    speedup: float  # over the stopping-criterion-only row


def run_table2(
    instance: str,
    *,
    scale: str = "small",
    num_queries: int = 10,
    fractions: tuple[float, ...] = (0.0, 0.01, 0.025, 0.05, 0.10, 0.20, 0.30),
    include_degree_rule: bool = True,
    min_degree: int = 2,
    num_cores: int = 8,
    kernel: str = "python",
    seed: int = 0,
    graph: TDGraph | None = None,
) -> list[Table2Row]:
    """Station-to-station queries with distance-table pruning, sweeping
    the transfer-station fraction (plus the ``deg > k`` rule).

    Each selection is one :class:`ServiceConfig` prepared over the same
    prebuilt graph (preprocessing time, table size) and queried through
    one :class:`StationToStationEngine` over it.  A selection that picks
    no transfer station has no table to prune with and gets no row (the
    small fractions on the scaled-down instances); the ``0.0%``
    stopping-criterion baseline always has one."""
    if graph is None:
        graph = _prepare(instance, scale, seed)
    pairs = random_station_pairs(graph.timetable, num_queries, seed=seed + 2)

    selections: list[tuple[str, object]] = [
        (f"{fraction * 100:.1f}%", fraction) for fraction in fractions
    ]
    if include_degree_rule:
        selections.append((f"deg > {min_degree}", "degree"))

    base_config = ServiceConfig(num_threads=num_cores)
    rows: list[Table2Row] = []
    base_time: float | None = None
    for label, spec in selections:
        if spec == 0.0:
            config = base_config
        elif spec == "degree":
            config = base_config.with_overrides(
                use_distance_table=True,
                transfer_selection="degree",
                min_degree=min_degree,
            )
        else:
            config = base_config.with_overrides(
                use_distance_table=True,
                transfer_selection="contraction",
                transfer_fraction=float(spec),
            )
        prepared = prepare_dataset(graph.timetable, config)
        table = prepared.table
        if table is None:
            if spec != 0.0:
                continue
            prepro, spcs, mib, num_transfer = 0.0, 0.0, 0.0, 0
        else:
            prepro, mib = table.build_seconds, table.size_mib()
            num_transfer = prepared.stats.num_transfer_stations
            spcs = sum(
                parallel_profile_search(
                    graph,
                    int(station),
                    num_cores,
                    kernel="flat",
                    arrays=prepared.arrays,
                ).stats.simulated_time
                for station in table.transfer_stations
            )
        engine = StationToStationEngine(
            graph,
            table,
            num_threads=num_cores,
            # Theorem 3 is the reference kernel's rule only.
            table_pruning=kernel == "python",
            kernel=kernel,
            arrays=prepared.arrays,
            station_graph=prepared.station_graph,
        )

        settled: list[int] = []
        times: list[float] = []
        for s, t in pairs:
            result = engine.query(s, t)
            settled.append(result.settled_connections)
            times.append(result.simulated_time)
        mean_time = fmean(times)
        if base_time is None:
            base_time = mean_time
        rows.append(
            Table2Row(
                instance=instance,
                selection=label,
                num_transfer=num_transfer,
                prepro_seconds=prepro,
                spcs_seconds=spcs,
                table_mib=mib,
                settled_mean=fmean(settled),
                time_mean=mean_time,
                speedup=base_time / mean_time if mean_time else float("inf"),
            )
        )
    return rows
