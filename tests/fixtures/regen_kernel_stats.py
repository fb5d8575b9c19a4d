"""Regenerate the flat kernel's work fixture.

Usage (from the repo root)::

    PYTHONPATH=src python tests/fixtures/regen_kernel_stats.py [--rerun]

``--rerun`` keeps the fixture's timetables and runs and records again
what each run does; without it the timetables are drawn anew.  The
draws follow the installed Hypothesis, so a fresh draw need not
reproduce the committed timetables: to re-record a kernel change,
rerun.

Writes ``kernel_stats_adversarial.json`` next to this script: seeded
draws of :func:`tests.strategies.adversarial_timetables` (each stored
whole, so the test never re-draws) and, per timetable, what
:func:`~repro.core.spcs_kernel.spcs_kernel_search` did on four kinds of
run:

* ``one-to-all`` from every station;
* ``subset`` — the even (``start`` 0) and the odd (``start`` 1)
  connection indices of every station, one run each (a p = 2
  partition);
* ``targeted`` — every source to two targets, no table (goal direction
  and the stopping criterion);
* ``table`` — every station outside ``S_trans`` (the even stations) to
  every station the reference engine classifies global, or local with
  a transfer-station target, with a pruner and no via stations: the
  flat kernel runs Theorem 4 (whenever the target is a transfer
  station) and no Theorem 3, which is the reference kernel's alone.

Each run records every :class:`~repro.core.spcs.SPCSStats` field, a
digest of the raw label matrix and, for ``table`` runs, the pruner's
counters and final arrivals.  Raw labels, stale pops and prune counts
depend on the exact pop order — ties included — so
``tests/core/test_kernel_pop_order.py`` holds any queue change to the
order the fixture was generated with, not merely to the same answers.

Regenerate only when a change is *meant* to alter the kernel's pop
order or its work, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

FIXTURE_DIR = Path(__file__).resolve().parent
REPO_ROOT = FIXTURE_DIR.parents[1]
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

from hypothesis import HealthCheck, Phase, given, seed, settings  # noqa: E402

from repro.core.spcs import SPCSStats  # noqa: E402
from repro.core.spcs_kernel import spcs_kernel_search  # noqa: E402
from repro.graph.td_arrays import pack_td_graph  # noqa: E402
from repro.graph.td_model import build_td_graph  # noqa: E402
from repro.query.distance_table import build_distance_table  # noqa: E402
from repro.query.table_query import (  # noqa: E402
    DistanceTablePruner,
    StationToStationEngine,
)
from repro.timetable.io import timetable_from_dict, timetable_to_dict  # noqa: E402

from tests.strategies import adversarial_timetables  # noqa: E402

FIXTURE = FIXTURE_DIR / "kernel_stats_adversarial.json"
NUM_TIMETABLES = 24
STATS_FIELDS = list(SPCSStats.__slots__)


def draw_timetables() -> list:
    drawn: dict[str, object] = {}

    @seed(28)
    @settings(
        max_examples=20 * NUM_TIMETABLES,
        database=None,
        deadline=None,
        phases=[Phase.generate],
        suppress_health_check=list(HealthCheck),
    )
    @given(adversarial_timetables(max_stations=12, max_lines=10))
    def collect(timetable):
        if timetable.num_stations >= 6 and timetable.num_connections >= 20:
            drawn.setdefault(json.dumps(timetable_to_dict(timetable)), timetable)

    collect()
    return list(drawn.values())[:NUM_TIMETABLES]


def prepare(timetable) -> tuple:
    """Graph, pack and distance table over ``S_trans`` (the even
    stations) of one timetable: what every recorded run reads."""
    graph = build_td_graph(timetable)
    arrays = pack_td_graph(graph)
    transfer = list(range(0, graph.num_stations, 2))
    table = build_distance_table(arrays, transfer)
    return graph, arrays, table


def observe(run: dict, graph, arrays, table) -> dict:
    """What the kernel does on one run (see module docstring)."""
    source = run["source"]
    pruner = None
    if run["kind"] == "one-to-all":
        result = spcs_kernel_search(arrays, source)
    elif run["kind"] == "subset":
        num_conns = int(
            arrays.conn_indptr[source + 1] - arrays.conn_indptr[source]
        )
        result = spcs_kernel_search(
            arrays, source, connection_subset=range(run["start"], num_conns, 2)
        )
    elif run["kind"] == "targeted":
        result = spcs_kernel_search(arrays, source, target=run["target"])
    else:
        target = run["target"]
        pruner = DistanceTablePruner(graph, table, source, target, ())
        result = spcs_kernel_search(arrays, source, target=target, table=pruner)
    out = {
        "stats": [getattr(result.stats, name) for name in STATS_FIELDS],
        "labels": hashlib.sha256(result.labels.tobytes()).hexdigest()[:16],
    }
    if pruner is not None:
        out["pruner"] = [pruner.prunes, pruner.connection_stops, pruner.mu_updates]
        out["final_arrivals"] = [
            list(item) for item in sorted(pruner.final_arrivals.items())
        ]
    return out


def runs_of(timetable) -> list[dict]:
    """Every recorded run of one timetable, with what it did."""
    prepared = graph, _, table = prepare(timetable)
    reference = StationToStationEngine(graph, table)
    n = graph.num_stations
    runs = []
    for source in range(n):
        runs.append({"kind": "one-to-all", "source": source})
        runs += [
            {"kind": "subset", "source": source, "start": start}
            for start in (0, 1)
        ]
        runs += [
            {"kind": "targeted", "source": source, "target": target}
            for target in ((source + 1) % n, (source + n // 2) % n)
            if target != source
        ]
    # The queries the reference engine runs with a pruner: a global one
    # (via stations, and Theorem 4 at a transfer-station target) or a
    # local one to a transfer station (Theorem 4 alone).
    for source in range(n):
        if table.contains(source):
            continue
        for target in range(n):
            classification, _ = reference.classify(source, target)
            if classification == "global" or (
                classification == "local" and table.contains(target)
            ):
                runs.append({"kind": "table", "source": source, "target": target})
    return [{**run, **observe(run, *prepared)} for run in runs]


def rerun_cases() -> list[dict]:
    """The fixture's timetables and runs, each run observed again."""
    cases = json.loads(FIXTURE.read_text())["cases"]
    for case in cases:
        prepared = prepare(timetable_from_dict(case["timetable"]))
        case["runs"] = [
            {
                key: run[key]
                for key in ("kind", "source", "start", "target")
                if key in run
            }
            | observe(run, *prepared)
            for run in case["runs"]
        ]
    return cases


def main() -> int:
    if sys.argv[1:] == ["--rerun"]:
        cases = rerun_cases()
    else:
        cases = [
            {"timetable": timetable_to_dict(timetable), "runs": runs_of(timetable)}
            for timetable in draw_timetables()
        ]
    FIXTURE.write_text(
        json.dumps(
            {"stats_fields": STATS_FIELDS, "cases": cases},
            separators=(",", ":"),
        )
        + "\n"
    )
    kinds: dict[str, int] = {}
    for case in cases:
        for run in case["runs"]:
            kinds[run["kind"]] = kinds.get(run["kind"], 0) + 1
    print(f"wrote {FIXTURE.name}: {len(cases)} timetables, runs {kinds}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
