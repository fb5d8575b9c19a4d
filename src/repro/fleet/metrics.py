"""Gateway-side observability.

One :class:`GatewayMetrics` belongs to one
:class:`~repro.fleet.gateway.FleetGateway`, whose forwards are all
awaited on its event loop: every mutation happens there, so — like
:class:`~repro.server.metrics.ServerMetrics` — nothing is locked.

The request accounting is the servers' own
(:class:`~repro.server.metrics.HttpMetrics`, with the same endpoint
labels), so a dashboard can overlay "requests the fleet received"
(gateway) with "requests each worker served" (worker ``/metrics``,
aggregated in the gateway snapshot's ``fleet`` section) and attribute
the difference to failovers and rejections.  What is *new* here is
the routing story: per-worker forward counts, failovers (a query
re-sent to a peer after its first worker died mid-request),
ejections/readmissions, delay-log catch-up replays, and the fleet's
delay swaps.
"""

from __future__ import annotations

from repro.server.metrics import HttpMetrics, Metric

__all__ = ["GatewayMetrics"]


class GatewayMetrics(HttpMetrics):
    """Routing/forwarding accounting of one gateway (loop-only)."""

    CATALOG = HttpMetrics.CATALOG + (
        Metric(
            "forwards_total", "forwards that returned (any status), per worker"
        ),
        Metric(
            "failovers_total",
            "queries re-sent to a peer after a worker failed (transport "
            "error or retriable 503)",
        ),
        Metric(
            "no_worker_total", "503s answered with no healthy worker available"
        ),
        Metric("ejections_total", "workers taken out of rotation, per worker"),
        Metric(
            "readmissions_total", "workers returned to rotation, per worker"
        ),
        Metric(
            "catch_up_batches_total",
            "delay-log replay posts sent to restarted workers before "
            "readmission",
        ),
        Metric(
            "catch_up_coalesced_total",
            "logged delay batches those posts stood for (consecutive "
            "slack-free batches are merged into one post)",
        ),
        Metric(
            "swaps_total", "fleet-wide delay swaps committed, per dataset"
        ),
        Metric(
            "incremental_swaps_total",
            "fleet swaps whose body said `replan: incremental`, per "
            "dataset (the key selects nothing: every swap re-packs)",
        ),
        Metric(
            "last_swap_seconds", "duration of the latest swap, per dataset"
        ),
        Metric(
            "health_sweep_errors_total", "health sweeps that raised an error"
        ),
    )

    def __init__(self) -> None:
        super().__init__()
        self.forwards_total: dict[str, int] = {}  # guarded-by: loop
        self.failovers_total = 0  # guarded-by: loop
        self.no_worker_total = 0  # guarded-by: loop
        self.ejections_total: dict[str, int] = {}  # guarded-by: loop
        self.readmissions_total: dict[str, int] = {}  # guarded-by: loop
        self.catch_up_batches_total = 0  # guarded-by: loop
        self.catch_up_coalesced_total = 0  # guarded-by: loop
        self.swaps_total: dict[str, int] = {}  # guarded-by: loop
        self.incremental_swaps_total: dict[str, int] = {}  # guarded-by: loop
        self.last_swap_seconds: dict[str, float] = {}  # guarded-by: loop
        self.health_sweep_errors_total = 0  # guarded-by: loop

    # -- observation hooks ---------------------------------------------

    def observe_forward(self, worker: str) -> None:
        self.forwards_total[worker] = self.forwards_total.get(worker, 0) + 1

    def observe_ejection(self, worker: str) -> None:
        self.ejections_total[worker] = (
            self.ejections_total.get(worker, 0) + 1
        )

    def observe_readmission(self, worker: str) -> None:
        self.readmissions_total[worker] = (
            self.readmissions_total.get(worker, 0) + 1
        )

    def observe_swap(
        self, dataset: str, seconds: float, *, incremental: bool = False
    ) -> None:
        self.swaps_total[dataset] = self.swaps_total.get(dataset, 0) + 1
        self.last_swap_seconds[dataset] = seconds
        if incremental:
            self.incremental_swaps_total[dataset] = (
                self.incremental_swaps_total.get(dataset, 0) + 1
            )
