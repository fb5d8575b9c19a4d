"""Accounting of a batched workload — the traffic-serving shape.

A deployment answering user journeys holds a prepared graph and
distance table and answers a *stream* of requests.
:meth:`repro.service.TransitService.batch` is that shape, composed
like a profile: the calling thread splits the batch into its items and
gathers the answers, and the service's search workers, if it has any,
run one item each.  An item runs the service's own one-request code
(a different axis than the per-query connection partitioning of paper
§3.2, which each request still applies), so it is the single-request
answer by construction — ``tests/query/test_batch_engine.py`` pins it
bitwise with and without workers.  This module holds what such a run
reports; where it ran is not part of the answer.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class BatchStats:
    """Throughput accounting of one batch run."""

    num_queries: int
    kernel: str
    #: Wall-clock of the whole batch.
    total_seconds: float

    @property
    def queries_per_second(self) -> float:
        if self.total_seconds <= 0:
            return float("inf")
        return self.num_queries / self.total_seconds
