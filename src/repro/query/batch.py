"""Accounting of a batched workload — the traffic-serving shape.

A deployment answering user journeys holds a prepared graph and
distance table and answers a *stream* of requests.
:meth:`repro.service.TransitService.batch` is that shape: it fans the
service's own one-request code out over many requests through
:func:`repro.core.fanout.fan_out` (a different axis than the per-query
connection partitioning of paper §3.2, which each request still
applies), so a batch item is the single-request answer by construction
— ``tests/query/test_batch_engine.py`` pins it bitwise on every
backend.  This module holds what such a run reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.fanout import BACKENDS

#: Valid ``ServiceConfig.backend`` / ``repro batch --backend`` values.
BATCH_BACKENDS = BACKENDS


@dataclass(slots=True)
class BatchStats:
    """Throughput accounting of one batch run.

    ``backend``/``num_workers`` record what actually executed — a
    batch of ≤1 requests short-circuits to serial on the calling
    thread whatever the service was configured with.
    """

    num_queries: int
    backend: str
    kernel: str
    #: Workers used to distribute queries (1 for serial).
    num_workers: int
    #: Seconds spent starting the worker pool, paid once per batch
    #: (0.0 when serial); included in ``total_seconds``.
    setup_seconds: float
    #: Wall-clock of the whole batch.
    total_seconds: float

    @property
    def queries_per_second(self) -> float:
        if self.total_seconds <= 0:
            return float("inf")
        return self.num_queries / self.total_seconds
