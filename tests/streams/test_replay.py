"""The replay harness against an in-process backend.

The fleet-facing end-to-end run (HTTP gateway, multi-worker, catch-up)
lives in ``tests/fleet``; here the harness itself is pinned: traffic
accounting, the operational contract in :meth:`ReplayReport.check`,
and the dataset guard."""

from __future__ import annotations

import pytest

from repro.client import BackendError, LocalBackend
from repro.service import ServiceConfig, TransitService
from repro.streams import (
    DelayStream,
    ReplayConfig,
    ReplayError,
    ReplayReport,
    replay_stream,
)
from repro.synthetic.delays import generate_delay_stream
from repro.synthetic.instances import make_instance


@pytest.fixture(scope="module")
def target():
    timetable = make_instance("oahu", scale="tiny")
    service = TransitService(
        timetable, ServiceConfig(num_threads=2)
    )
    return timetable, LocalBackend(service, name="oahu-tiny")


def test_replay_end_to_end(target):
    timetable, backend = target
    stream = generate_delay_stream(
        timetable, seed=7, num_events=6, duration_s=0.5
    )
    report = replay_stream(
        stream,
        lambda: backend,
        ReplayConfig(
            query_threads=2,
            speed=4.0,
            max_swap_seconds=60.0,
        ),
    )
    assert report.check() is report
    assert report.ok
    assert report.failed_requests == 0
    assert report.metrics["delay_posts_total"] == stream.num_events
    assert report.metrics["queries_total"] >= 1
    assert report.metrics["swap_seconds_max"] > 0.0
    doc = report.to_json()
    assert doc["ok"] and doc["stream"] == stream.name


def test_replay_rejects_mismatched_dataset(target):
    _, backend = target
    stream = DelayStream(
        name="wrong", seed=0, period=1440, num_trains=3
    )
    with pytest.raises(ReplayError, match="3 trains"):
        replay_stream(stream, lambda: backend)


def test_replay_records_delay_failures(target):
    """A stream whose delays do not fit the dataset must *count*
    failures, not raise mid-flight — and check() then reports them."""
    timetable, backend = target
    from repro.streams import DelayEvent
    from repro.timetable.delays import Delay

    stream = DelayStream(
        name="hostile",
        seed=0,
        period=timetable.period,
        num_trains=timetable.num_trains,
        events=(
            DelayEvent(
                t_offset_s=0.0,
                delays=(Delay(train=10**6, minutes=5),),
            ),
        ),
    )
    report = replay_stream(
        stream, lambda: backend, ReplayConfig(query_threads=0, speed=100.0)
    )
    assert not report.ok
    assert report.metrics["delay_failures_total"] == 1
    with pytest.raises(ReplayError, match="failed delay posts"):
        report.check()


def test_report_check_flags_swap_bound():
    config = ReplayConfig(max_swap_seconds=0.001)
    report = ReplayReport(
        stream_name="s",
        num_events=1,
        config=config,
        metrics={
            "query_failures_total": 0,
            "delay_failures_total": 0,
            "delay_posts_total": 1,
            "swap_seconds_max": 1.0,
            "errors": {},
        },
    )
    assert not report.ok
    with pytest.raises(ReplayError, match="bound"):
        report.check()


def test_report_check_flags_missing_commits():
    report = ReplayReport(
        stream_name="s",
        num_events=5,
        config=ReplayConfig(),
        metrics={
            "query_failures_total": 0,
            "delay_failures_total": 0,
            "delay_posts_total": 3,
            "swap_seconds_max": 0.0,
            "errors": {},
        },
    )
    with pytest.raises(ReplayError, match="posted 3 of 5"):
        report.check()


def test_config_validation():
    with pytest.raises(ValueError, match="speed"):
        ReplayConfig(speed=0.0)
    with pytest.raises(ValueError, match="query_threads"):
        ReplayConfig(query_threads=-1)


def test_backend_error_is_importable_contract():
    # The harness catches exactly the SDK's typed error; anything else
    # propagates (a harness bug must not be silently counted).
    assert issubclass(BackendError, Exception)
