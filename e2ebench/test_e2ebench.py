"""Tier-1 checks of the benchmark itself: scripts are pure functions of
their seed, workloads have the shape their names promise, and a run
prints exactly what ``BENCHMARK.json`` declares."""

from __future__ import annotations

import json
import re

import pytest

from e2ebench import REPO_ROOT

from repro.service.config import ServiceConfig
from repro.service.facade import TransitService
from repro.synthetic.instances import make_instance

from e2ebench import harness, repeat, run
from e2ebench.workloads import WORKLOADS, build_script, transfer_stations

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Smoke runs are 1/50 of the real size, on the tiny datasets.
SMOKE_SECONDS = SPEC["run_seconds"] / 50


@pytest.fixture(scope="module")
def services():
    """One tiny in-process service per distinct (instance, config)."""
    built: dict = {}
    for workload in WORKLOADS.values():
        key = (workload.instance, tuple(sorted(workload.config.items())))
        if key not in built:
            built[key] = TransitService(
                make_instance(workload.instance, "tiny"),
                ServiceConfig(**workload.config),
            )
    return {
        w.name: built[(w.instance, tuple(sorted(w.config.items())))]
        for w in WORKLOADS.values()
    }


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["e2ebench"]
    assert [m["name"] for m in SPEC["end_to_end"]] == [
        "setup_s", "qps", "p50_ms", "server_cpu_ms_per_op", "rss_mb",
    ]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += list(WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_script_is_a_pure_function_of_workload_and_seed(services, name):
    workload, service = WORKLOADS[name], services[name]
    first = build_script(workload, 3, SMOKE_SECONDS * 10, service)
    again = build_script(workload, 3, SMOKE_SECONDS * 10, service)
    other = build_script(workload, 4, SMOKE_SECONDS * 10, service)
    assert first == again
    assert (first.warmup, first.timed) != (other.warmup, other.timed)
    assert first.timed and first.warmup


def test_table_hit_stays_inside_s_trans(services):
    service = services["table_hit"]
    inside = set(transfer_stations(service))
    script = build_script(WORKLOADS["table_hit"], 0, 1, service)
    assert inside
    for _, s, t in script.warmup + script.timed:
        assert s in inside and t in inside and s != t


def test_cold_search_sources_are_outside_s_trans_and_pairs_unique(services):
    service = services["cold_search"]
    inside = set(transfer_stations(service))
    script = build_script(WORKLOADS["cold_search"], 0, 2, service)
    ops = script.warmup + script.timed
    assert all(s not in inside and s != t for _, s, t in ops)
    assert len(set(ops)) == len(ops)


def test_delay_replay_cycles_open_with_a_post_and_own_their_hot_pairs(services):
    workload = WORKLOADS["delay_replay"]
    script = build_script(workload, 0, 4, services["delay_replay"])
    cycle = len(script.hot_pairs) * workload.rounds
    starts = list(range(0, len(script.timed), cycle))
    assert len(starts) == 2 and sorted(script.timed_posts) == starts
    for event in script.timed_posts.values():
        assert 1 <= len({d.train for d in event.delays}) <= 5
    hot_sets = [set(script.timed[i : i + cycle]) for i in starts]
    assert all(len(hot) == len(script.hot_pairs) for hot in hot_sets)
    assert hot_sets[0].isdisjoint(hot_sets[1])
    assert hot_sets[-1] == {("journey", s, t) for s, t in script.hot_pairs}
    for i, hot in zip(starts, hot_sets):
        for r in range(workload.rounds):  # every round asks every hot pair
            chunk = script.timed[i + r * len(hot) : i + (r + 1) * len(hot)]
            assert set(chunk) == hot


def test_driver_refuses_more_load_threads_than_cores():
    with pytest.raises(ValueError, match="refuses"):
        harness.drive("http://127.0.0.1:9/x", WORKLOADS["table_hit"], [], {},
                      cores=1)
    with pytest.raises(ValueError, match="refuses"):
        # one query client + the poster
        harness.drive("http://127.0.0.1:9/x", WORKLOADS["delay_replay"], [],
                      {0: object()}, cores=1)


def test_qps_is_the_median_segment_rate():
    log = harness.RunLog(started=0.0)
    # Ten ops, one per 0.1 s, but the third segment stalls for 10 s.
    ends = [0.1, 0.2, 0.3, 0.4, 10.5, 10.6, 10.7, 10.8, 10.9, 11.0]
    log.ended = dict(enumerate(ends))
    log.latency = dict.fromkeys(log.ended, 0.1)
    assert log.qps() == pytest.approx(10.0)


def test_repeat_judges_sets_against_the_bound():
    steady = repeat.judge([[100, 101, 99], [100, 102, 100]], 0.1, gate_spread=True)
    assert steady["ok"]
    drifted = repeat.judge([[100, 101, 99], [108, 109, 107]], 0.1, gate_spread=True)
    assert not drifted["ok"]
    outlier = repeat.judge([[100, 101, 115], [100, 102, 100]], 0.1, gate_spread=True)
    assert not outlier["ok"]


def _smoke(monkeypatch, name: str, trace: bool) -> dict:
    monkeypatch.setattr(run, "SETUPS", 1)
    return run.run_workload(name, 0, SMOKE_SECONDS, trace, scale="tiny")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_prints_the_declared_end_to_end_metrics(monkeypatch, name):
    result = _smoke(monkeypatch, name, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["machine"]["nproc"] >= 1


def test_smoke_traced_run_prints_the_declared_per_layer_metrics(monkeypatch):
    name = "zoo_session"  # every served shape in one operation
    result = _smoke(monkeypatch, name, trace=True)
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    trace_file = run.OUT_DIR / f"trace-{name}.json"
    spans = json.loads(trace_file.read_text())["spans"]
    assert {"name", "start", "end", "parent", "op"} <= set(spans[0])
    assert result["metrics"]["server.rejected_total"]["value"] == 0
