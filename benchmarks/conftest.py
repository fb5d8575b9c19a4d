"""Shared benchmark infrastructure.

Scale control: set ``REPRO_BENCH_SCALE`` to ``tiny`` (fast sanity run),
``small`` (default; reproduces the paper's table *shapes* in minutes) or
``medium`` (closer to paper ratios; manual runs).

Every bench records its paper-style rows through the session-scoped
``report`` fixture; at session end the assembled tables are printed and
written to ``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can
reference them.

Alongside the human tables, every bench emits a schema'd
:class:`repro.benchops.BenchRecord` through the session-scoped
``benchops`` fixture: key metrics (work counts, wall times, QPS,
speed-ups) plus machine fingerprint, git SHA, scale and config hash.
Records land as pending files under ``benchmarks/records/`` (override
with ``REPRO_BENCH_RECORDS_DIR``); ``repro-transit bench index`` folds
them into the repo-root ``BENCH_*.json`` trajectories
(docs/BENCHMARKS.md).  No bench gates a run against an earlier one.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.benchops import BenchRecord, emit_record
from repro.graph.td_model import build_td_graph
from repro.synthetic.instances import make_instance

RESULTS_DIR = Path(__file__).parent / "results"
RECORDS_DIR = Path(
    os.environ.get(
        "REPRO_BENCH_RECORDS_DIR", str(Path(__file__).parent / "records")
    )
)

#: Instances × core counts benched for Table 1.
ALL_INSTANCES = ("oahu", "losangeles", "washington", "germany", "europe")
CORE_COUNTS = (1, 2, 4, 8)


def bench_scale() -> str:
    scale = os.environ.get("REPRO_BENCH_SCALE", "small")
    if scale not in ("tiny", "small", "medium"):
        raise ValueError(f"REPRO_BENCH_SCALE must be tiny/small/medium, got {scale!r}")
    return scale


@pytest.fixture(scope="session")
def scale() -> str:
    return bench_scale()


class GraphCache:
    """Build each instance's graph once per session."""

    def __init__(self, scale: str) -> None:
        self._scale = scale
        self._graphs = {}

    def graph(self, instance: str):
        if instance not in self._graphs:
            timetable = make_instance(instance, self._scale)
            self._graphs[instance] = build_td_graph(timetable)
        return self._graphs[instance]


@pytest.fixture(scope="session")
def graphs(scale) -> GraphCache:
    return GraphCache(scale)


class Report:
    """Collects named result tables and flushes them at session end."""

    def __init__(self) -> None:
        self._sections: dict[str, list[str]] = {}

    def add(self, section: str, text: str) -> None:
        self._sections.setdefault(section, []).append(text)

    def flush(self) -> None:
        if not self._sections:
            return
        RESULTS_DIR.mkdir(exist_ok=True)
        for section, chunks in sorted(self._sections.items()):
            body = "\n".join(chunks)
            print(f"\n===== {section} =====\n{body}")
            (RESULTS_DIR / f"{section}.txt").write_text(body + "\n")


@pytest.fixture(scope="session")
def report():
    collector = Report()
    yield collector
    collector.flush()


class BenchOpsCollector:
    """Collects one :class:`BenchRecord` per benchmark emit point and
    writes them as pending record files at session end."""

    def __init__(self, scale: str) -> None:
        self._scale = scale
        self._records: list[BenchRecord] = []

    def add(
        self, benchmark: str, metrics: dict[str, float], config: dict | None = None
    ) -> None:
        self._records.append(
            BenchRecord.capture(
                benchmark, scale=self._scale, metrics=metrics, config=config
            )
        )

    def flush(self) -> None:
        if not self._records:
            return
        paths = [emit_record(record, RECORDS_DIR) for record in self._records]
        print(
            f"\n{len(paths)} bench record(s) pending under {RECORDS_DIR} "
            f"— fold into trajectories with `repro-transit bench index`"
        )


@pytest.fixture(scope="session")
def benchops(scale):
    collector = BenchOpsCollector(scale)
    yield collector
    collector.flush()
