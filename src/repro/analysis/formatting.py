"""Plain-text rendering of experiment results in the paper's layout."""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.analysis.runners import Table1Result, Table2Row


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Right-aligned fixed-width table (monospace-friendly)."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in materialized:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_table1(results: Sequence[Table1Result]) -> str:
    """Table 1: one-to-all profile queries, CS per core count vs LC.

    Beside each CS cell's time and speed-up, its work as §3.2 argues
    it: the busiest core over the mean core (``max/mean``), the
    speed-up the busiest core allows (``work bnd``) and the work the
    partition adds (``overhead``)."""
    headers = [
        "instance",
        "algo",
        "p",
        "settled conns",
        "max/mean",
        "work bnd",
        "overhead",
        "time [ms]",
        "spd-up",
    ]
    rows: list[list[object]] = []
    for result in results:
        for cell in result.cells:
            rows.append(
                [
                    result.instance,
                    f"CS[{result.kernel}]",
                    cell.num_cores,
                    f"{cell.settled_mean:,.0f}",
                    f"{cell.imbalance:.2f}",
                    f"{result.work_bound(cell):.2f}",
                    f"{result.overhead(cell):.3f}",
                    f"{cell.time_mean * 1000:.1f}",
                    f"{cell.speedup:.1f}",
                ]
            )
        if result.lc is not None:
            rows.append(
                [
                    result.instance,
                    "LC",
                    1,
                    f"{result.lc.settled_mean:,.0f}",
                    "—",
                    "—",
                    "—",
                    f"{result.lc.time_mean * 1000:.1f}",
                    "—",
                ]
            )
    return format_table(headers, rows)


def render_table2(rows: Sequence[Table2Row]) -> str:
    """Table 2: station-to-station with distance-table pruning; the
    table's build read twice, as the wall time of the scan that builds
    it here (``prepro``) and as the paper's §5.2 build in simulated
    seconds (``SPCS``)."""
    headers = [
        "instance",
        "selection",
        "|S_trans|",
        "prepro [s]",
        "SPCS [sim s]",
        "space [MiB]",
        "settled conns",
        "time [ms]",
        "spd-up",
    ]
    formatted = [
        [
            row.instance,
            row.selection,
            row.num_transfer,
            f"{row.prepro_seconds:.2f}",
            f"{row.spcs_seconds:.2f}",
            f"{row.table_mib:.2f}",
            f"{row.settled_mean:,.0f}",
            f"{row.time_mean * 1000:.1f}",
            f"{row.speedup:.1f}",
        ]
        for row in rows
    ]
    return format_table(headers, formatted)
