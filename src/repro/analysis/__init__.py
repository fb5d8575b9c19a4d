"""Analysis tooling: the experiment harness.

:mod:`repro.analysis.runners` and :mod:`repro.analysis.formatting`
regenerate the tables of the paper's evaluation (§5): the runners
return plain dataclasses that the ``table1`` / ``table2`` commands
render, and the Table 1 / Table 2 benchmarks time the same runners and
print through the same renderers.  The scalability figure and the
partition figure of §3.2 are Table 1's cells at more core counts and
other strategies, read as work.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.analysis.runners": (
            "OneToAllCell",
            "Table1Result",
            "Table2Row",
            "run_table1",
            "run_table2",
        ),
        "repro.analysis.formatting": (
            "format_table",
            "render_table1",
            "render_table2",
        ),
    },
)

__all__ = [
    "OneToAllCell",
    "Table1Result",
    "Table2Row",
    "run_table1",
    "run_table2",
    "format_table",
    "render_table1",
    "render_table2",
]
