"""Analysis tooling: the experiment harness.

:mod:`repro.analysis.runners` and :mod:`repro.analysis.formatting`
regenerate the tables and the figure of the paper's evaluation (§5):
the runners return plain dataclasses that the ``table1`` / ``table2``
commands render, and the Table 1 / Table 2 benchmarks time the same
runners and print through the same renderers.
"""

from repro.analysis.runners import (
    OneToAllCell,
    Table1Result,
    Table2Row,
    run_scalability_series,
    run_table1,
    run_table2,
)
from repro.analysis.formatting import format_table, render_table1, render_table2

__all__ = [
    "OneToAllCell",
    "Table1Result",
    "Table2Row",
    "run_table1",
    "run_table2",
    "run_scalability_series",
    "format_table",
    "render_table1",
    "render_table2",
]
