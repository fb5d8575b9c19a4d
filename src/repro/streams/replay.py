"""The stream replay harness: interleaved query + delay traffic
against a live backend.

:func:`replay_stream` drives one :class:`~repro.streams.model.DelayStream`
against any :class:`~repro.client.backend.TransitBackend` — in
practice an :class:`~repro.client.http.HttpBackend` pointed at a
``repro serve`` worker or a ``repro serve-fleet`` gateway (the CLI
``repro replay`` path), or a :class:`LocalBackend` in tests.

Architecture: plain threads, no event loop.  The SDK backends are
synchronous, so the harness runs ``query_threads`` closed-loop query
workers (each immediately issues the next journey when the previous
one answers — the closed-loop load the bench and the acceptance
criteria specify) plus the *poster*, which walks the stream's events
on their timestamps (scaled by ``speed``) and posts each batch as one
``apply``.  Every thread gets its **own backend instance** via the
``backends`` factory — the HTTP pool is thread-safe but per-thread
backends keep connection reuse deterministic and failure attribution
per-thread.  Shared state is the :class:`ReplayMetrics` collector
(internally locked) and a stop flag.

The harness *records* failures rather than raising mid-flight — the
whole point is measuring whether the serving stack drops requests
under swap load.  :meth:`ReplayReport.check` then asserts the
operational contract: zero failed requests (query and delay), every
event posted, and — when a bound is configured — maximum observed
swap acknowledgement latency under it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from threading import Event, Thread
from typing import Callable, Sequence

from repro.client.backend import TransitBackend
from repro.client.errors import BackendError
from repro.streams.metrics import ReplayMetrics
from repro.streams.model import DelayStream
from repro.synthetic.workloads import random_station_pairs

__all__ = ["ReplayConfig", "ReplayError", "ReplayReport", "replay_stream"]


class ReplayError(RuntimeError):
    """The replay violated the operational contract (failed requests,
    missing commits, or a swap-pause bound)."""


@dataclass(frozen=True, slots=True)
class ReplayConfig:
    """Knobs of one replay run.

    ``speed`` scales the stream clock: 2.0 replays a 60 s stream in
    30 s.  ``queries_seed`` seeds the query mix — the same
    :func:`~repro.synthetic.workloads.random_station_pairs` generator
    the benchmarks use, which is what makes delay streams composable
    with the existing synthetic workloads.  ``max_swap_seconds`` arms
    the pause bound in :meth:`ReplayReport.check`; ``None`` leaves it
    unchecked.
    """

    query_threads: int = 2
    queries_seed: int = 0
    departure: int = 480
    speed: float = 1.0
    max_swap_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.query_threads < 0:
            raise ValueError("query_threads must be >= 0")
        if self.speed <= 0:
            raise ValueError("speed must be positive")


@dataclass(frozen=True, slots=True)
class ReplayReport:
    """Outcome of one replay: the stream identity plus the metrics
    snapshot (:meth:`ReplayMetrics.snapshot` shape)."""

    stream_name: str
    num_events: int
    config: ReplayConfig
    metrics: dict = field(repr=False)

    @property
    def failed_requests(self) -> int:
        return (
            self.metrics["query_failures_total"]
            + self.metrics["delay_failures_total"]
        )

    @property
    def ok(self) -> bool:
        if self.failed_requests:
            return False
        if self.metrics["delay_posts_total"] != self.num_events:
            return False
        if (
            self.config.max_swap_seconds is not None
            and self.metrics["swap_seconds_max"] > self.config.max_swap_seconds
        ):
            return False
        return True

    def check(self) -> "ReplayReport":
        """Assert the operational contract; returns self when clean."""
        problems = []
        if self.metrics["query_failures_total"]:
            problems.append(
                f"{self.metrics['query_failures_total']} failed queries "
                f"(errors: {self.metrics['errors']})"
            )
        if self.metrics["delay_failures_total"]:
            problems.append(
                f"{self.metrics['delay_failures_total']} failed delay posts "
                f"(errors: {self.metrics['errors']})"
            )
        if self.metrics["delay_posts_total"] != self.num_events:
            problems.append(
                f"posted {self.metrics['delay_posts_total']} of "
                f"{self.num_events} events"
            )
        if (
            self.config.max_swap_seconds is not None
            and self.metrics["swap_seconds_max"] > self.config.max_swap_seconds
        ):
            problems.append(
                f"max swap ack {self.metrics['swap_seconds_max']:.3f}s "
                f"exceeds the {self.config.max_swap_seconds:g}s bound"
            )
        if problems:
            raise ReplayError(
                f"replay of {self.stream_name!r} violated the contract: "
                + "; ".join(problems)
            )
        return self

    def to_json(self) -> dict:
        return {
            "stream": self.stream_name,
            "num_events": self.num_events,
            "ok": self.ok,
            "failed_requests": self.failed_requests,
            "metrics": dict(self.metrics),
        }


def replay_stream(
    stream: DelayStream,
    backends: Callable[[], TransitBackend],
    config: ReplayConfig = ReplayConfig(),
) -> ReplayReport:
    """Replay ``stream`` against the target behind ``backends``.

    ``backends`` is called once per thread (``query_threads`` workers
    plus the poster) and each returned backend is closed when its
    thread finishes.  The stream's timetable pins are validated
    against the live dataset before any traffic is sent.
    """
    probe = backends()
    try:
        info = probe.info()
        if info.trains != stream.num_trains:
            raise ReplayError(
                f"stream {stream.name!r} was generated for "
                f"{stream.num_trains} trains but dataset {info.name!r} "
                f"has {info.trains}"
            )
        num_stations = info.stations
    finally:
        probe.close()

    metrics = ReplayMetrics()
    stop = Event()
    pairs = random_station_pairs(
        num_stations, max(256, 4 * config.query_threads), config.queries_seed
    )

    def query_worker(worker: int) -> None:
        backend = backends()
        try:
            k = worker
            while not stop.is_set():
                source, target = pairs[k % len(pairs)]
                k += config.query_threads or 1
                t0 = time.perf_counter()
                try:
                    backend.journey(
                        source, target, departure=config.departure
                    )
                except BackendError as exc:
                    metrics.observe_query_failure(type(exc).__name__)
                else:
                    metrics.observe_query(time.perf_counter() - t0)
        finally:
            backend.close()

    def poster() -> None:
        backend = backends()
        try:
            start = time.perf_counter()
            for event in stream.events:
                due = start + event.t_offset_s / config.speed
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                try:
                    update = backend.apply_delays(
                        list(event.delays),
                        slack_per_leg=event.slack_per_leg,
                    )
                except BackendError as exc:
                    metrics.observe_delay_failure(type(exc).__name__)
                else:
                    metrics.observe_delay_post(
                        update.swap_seconds, update.generation
                    )
        finally:
            backend.close()

    t0 = time.perf_counter()
    workers = [
        Thread(target=query_worker, args=(i,), daemon=True)
        for i in range(config.query_threads)
    ]
    for thread in workers:
        thread.start()
    post_thread = Thread(target=poster, daemon=True)
    post_thread.start()
    post_thread.join()
    stop.set()
    for thread in workers:
        thread.join()
    elapsed = time.perf_counter() - t0

    return ReplayReport(
        stream_name=stream.name,
        num_events=stream.num_events,
        config=config,
        metrics=metrics.snapshot(elapsed),
    )
