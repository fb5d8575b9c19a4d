"""The asyncio HTTP front end (stdlib-only, HTTP/1.1 keep-alive).

Endpoints (all bodies JSON, see :mod:`repro.server.protocol` and
``docs/SERVER.md``)::

    GET  /healthz                     readiness + liveness + datasets
    GET  /metrics                     ServerMetrics snapshot
    GET  /v1/datasets                 per-dataset summaries
    POST /v1/datasets/{name}/delays   hot delay swap (apply)
    POST /v1/{name}/profile           one-to-all profile search
    POST /v1/{name}/journey           station-to-station query
    POST /v1/{name}/batch             batched workload
    POST /v1/{name}/multicriteria     (transfers, arrival) Pareto front
    POST /v1/{name}/via               source → via → target journey
    POST /v1/{name}/min-transfers     fewest-transfers journey

Design:

* **No blocking on the loop, no search under its GIL** — the loop
  parses, routes, serializes, gives the answers that take no search
  (``TransitService.lookup``) and composes the rest
  (``TransitService.submit``): it hands each of a request's searches
  to one of the dataset generation's *search workers* — processes
  forked from the generation when :meth:`start` begins serving it
  (``TransitService.start_workers``), ``workers`` of them at most, one
  per usable core — and waits for their answers in its selector, with
  no thread between a request and its worker.  Delay replans run on
  ``asyncio.to_thread``, and so do the searches of a generation that
  has no workers (no ``fork``).  The HTTP mechanics
  (keep-alive loop, request reading, graceful drain) and the request
  path (routing, the method check, request accounting, admission) live
  in :class:`~repro.server.http_base.BaseAsyncHttpServer`, shared with
  the fleet gateway; this class holds the handlers.
* **Bounded admission** — at most ``max_inflight`` query requests (and
  delay swaps, CPU-heavy like any search) are in flight; the next one
  is answered ``503 overloaded`` immediately (closed-loop clients back
  off instead of queueing into timeout).
  ``/healthz`` and ``/metrics`` are always admitted.
* **Hot swaps drain, never break** — a query pins its dataset's
  service reference at admission; the swap replaces the reference for
  *later* requests only (:mod:`repro.server.registry`).  Every query
  answer names the generation of the service it pinned in an
  ``X-Generation`` header: the fleet gateway routes by it.
* **Graceful shutdown distinguishes readiness from liveness** —
  :meth:`~BaseAsyncHttpServer.begin_drain` flips ``/healthz`` to
  ``"draining"`` while requests still succeed, so the fleet gateway
  (or any LB) stops routing *before* the hard drain starts
  fast-503ing; :meth:`~BaseAsyncHttpServer.shutdown` then waits out
  ``drain_grace``, finishes in-flight requests, and stops the search
  workers.  ``repro serve`` wires SIGINT/SIGTERM
  to exactly this path and exits 0.
"""

from __future__ import annotations

import asyncio

from repro.core.fanout import WorkerLost, pool_size
from repro.server.http_base import MAX_BODY_BYTES, BaseAsyncHttpServer, Request
from repro.server.metrics import ServerMetrics
from repro.server.protocol import (
    PROTOCOL_VERSION,
    open_request,
    parse_body,
    parse_delay_request,
)
from repro.server.registry import DatasetRegistry, RegistryError
from repro.service.shapes import (
    APPLY_REPLY,
    DATASETS,
    Shape,
    error_payload as _error,
)

__all__ = ["MAX_BODY_BYTES", "TransitServer"]


class TransitServer(BaseAsyncHttpServer):
    """One listening socket over one :class:`DatasetRegistry`."""

    def __init__(
        self,
        registry: DatasetRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        max_inflight: int = 64,
        retry_after: float = 1.0,
        drain_grace: float = 0.0,
        metrics: ServerMetrics | None = None,
    ) -> None:
        super().__init__(
            host=host,
            port=port,
            max_inflight=max_inflight,
            retry_after=retry_after,
            drain_grace=drain_grace,
            metrics=metrics if metrics is not None else ServerMetrics(),
        )
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.registry = registry
        #: Searches that may run at once, per dataset.
        self.workers = workers

    async def start(self) -> None:
        """Give every dataset generation its search workers — ``workers``
        of them, up to the cores this process may use — then bind and
        accept.  (Generations that delay swaps build later bring their
        own: ``TransitService.apply_delays``.)"""
        processes = pool_size(self.workers)
        for entry in self.registry.entries():
            entry.service.start_workers(processes)
        await super().start()

    async def _post_drain(self) -> None:
        for entry in self.registry.entries():
            entry.service.stop_workers()

    def _failure(self, exc: Exception) -> tuple[int, dict, dict]:
        if isinstance(exc, RegistryError):
            return 404, _error("unknown_dataset", str(exc)), {}
        if isinstance(exc, WorkerLost):
            # A search worker died under this request, and only this
            # one: ask again.
            return 503, _error(
                "worker_lost", str(exc), retriable=True
            ), self._retry_after_header()
        if isinstance(exc, ValueError):
            # Domain validation the protocol layer cannot see (e.g.
            # Delay.from_stop past the train's run).
            return 400, _error("invalid_request", str(exc)), {}
        return super()._failure(exc)

    # -- handlers -------------------------------------------------------

    async def _healthz(self, request: Request) -> tuple:
        return 200, {
            "v": PROTOCOL_VERSION,
            "status": self.health_status,
            "ready": self.health_status == "ok",
            "datasets": self.registry.names(),
            "generations": {
                entry.name: entry.generation
                for entry in self.registry.entries()
            },
        }

    async def _metrics(self, request: Request) -> tuple:
        return 200, {
            "v": PROTOCOL_VERSION,
            **self.metrics.snapshot(self.registry),
        }

    async def _datasets(self, request: Request) -> tuple:
        return 200, DATASETS.write(
            [entry.describe() for entry in self.registry.entries()]
        )

    async def _query(self, request: Request, name: str, shape: Shape) -> tuple:
        # Pin the service *before* any await: a hot swap mid-request
        # must not change what this request runs against.  Its
        # generation is read with it, so the header names the
        # generation that answers.
        entry = self.registry.get(name)
        service, generation = entry.service, entry.generation
        query, encode = open_request(
            shape, parse_body(request.body), service.prepared.counts.stations
        )
        answer = service.lookup(shape, query)
        if answer is None:
            answer = await service.submit(shape, query)
        return 200, encode(answer), {"X-Generation": str(generation)}

    async def _delays(self, request: Request, name: str) -> tuple:
        # Replans are CPU-heavy like any search: they obey the same
        # admission bound (a swap storm must not starve queries) and a
        # draining server starts no new ones.
        entry = self.registry.get(name)
        command = parse_delay_request(
            parse_body(request.body), entry.service.prepared.counts.trains
        )
        entry = await self.registry.apply_delays(
            name,
            command.delays,
            slack_per_leg=command.slack_per_leg,
            advance=command.advance,
            run=asyncio.to_thread,
        )
        self.metrics.observe_swap(name, entry.last_swap_seconds)
        return 200, APPLY_REPLY.write(
            name,
            entry.generation,
            len(command.delays),
            command.slack_per_leg,
            entry.last_swap_seconds,
        )
