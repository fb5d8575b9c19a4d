"""The asyncio HTTP front end (stdlib-only, HTTP/1.1 keep-alive).

Endpoints (all bodies JSON, see :mod:`repro.server.protocol` and
``docs/SERVER.md``)::

    GET  /healthz                     readiness + liveness + datasets
    GET  /metrics                     ServerMetrics snapshot
    GET  /v1/datasets                 per-dataset summaries
    POST /v1/datasets/{name}/delays   hot delay swap (apply, or the
                                      two-phase prepare/commit/abort
                                      the fleet gateway drives)
    POST /v1/{name}/profile           one-to-all profile search
    POST /v1/{name}/journey           station-to-station query
    POST /v1/{name}/batch             batched workload
    POST /v1/{name}/multicriteria     (transfers, arrival) Pareto front
    POST /v1/{name}/via               source → via → target journey
    POST /v1/{name}/min-transfers     fewest-transfers journey

Design:

* **No blocking on the loop, no search under its GIL** — the loop
  only parses, routes, serializes and gives the answers that take no
  search (``TransitService.lookup``).  Every other request is a job of
  the :class:`~repro.server.executor.QueryExecutor` thread pool, and
  the search it needs runs in one of the dataset generation's *search
  workers*: processes forked from the generation when :meth:`start`
  begins serving it (``TransitService.start_workers``), as many as
  there are executor threads and usable cores.  The HTTP mechanics
  (keep-alive loop, request reading, graceful drain) and the request
  path (routing, the method check, request accounting, admission) live
  in :class:`~repro.server.http_base.BaseAsyncHttpServer`, shared with
  the fleet gateway; this class holds the handlers.
* **Bounded admission** — at most ``max_inflight`` query requests (and
  delay swaps, which are worker-pool jobs like any query) are in
  flight; the next one is answered ``503 overloaded`` immediately
  (closed-loop clients back off instead of queueing into timeout).
  ``/healthz`` and ``/metrics`` are always admitted.
* **Hot swaps drain, never break** — a query pins its dataset's
  service reference at admission; the swap replaces the reference for
  *later* requests only (:mod:`repro.server.registry`).
* **Graceful shutdown distinguishes readiness from liveness** —
  :meth:`~BaseAsyncHttpServer.begin_drain` flips ``/healthz`` to
  ``"draining"`` while requests still succeed, so the fleet gateway
  (or any LB) stops routing *before* the hard drain starts
  fast-503ing; :meth:`~BaseAsyncHttpServer.shutdown` then waits out
  ``drain_grace``, finishes in-flight requests, and stops the thread
  pool and the search workers.  ``repro serve`` wires SIGINT/SIGTERM
  to exactly this path and exits 0.
"""

from __future__ import annotations

from repro.core.fanout import WorkerLost, pool_size
from repro.server.executor import QueryExecutor
from repro.server.http_base import MAX_BODY_BYTES, BaseAsyncHttpServer, Request
from repro.server.metrics import ServerMetrics
from repro.server.protocol import (
    PROTOCOL_VERSION,
    DelayCommand,
    open_request,
    parse_body,
    parse_delay_request,
)
from repro.server.registry import DatasetRegistry, RegistryError, SwapStateError
from repro.service.shapes import (
    ABORT_REPLY,
    APPLY_REPLY,
    COMMIT_REPLY,
    DATASETS,
    PREPARE_REPLY,
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
        self.registry = registry
        self.executor = QueryExecutor(workers=workers)

    async def start(self) -> None:
        """Give every dataset generation its search workers — one per
        executor thread, up to the cores this process may use — then
        bind and accept.  (Generations that delay swaps build later
        bring their own: ``TransitService.apply_delays``.)"""
        processes = pool_size(self.executor.workers)
        for entry in self.registry.entries():
            entry.service.start_workers(processes)
        await super().start()

    async def _post_drain(self) -> None:
        await self.executor.shutdown()
        for entry in self.registry.entries():
            entry.service.stop_workers()

    def _failure(self, exc: Exception) -> tuple[int, dict, dict]:
        if isinstance(exc, RegistryError):
            return 404, _error("unknown_dataset", str(exc)), {}
        if isinstance(exc, SwapStateError):
            return 409, _error("swap_conflict", str(exc)), {}
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
        # must not change what this request runs against.
        service = self.registry.get(name).service
        query, encode = open_request(
            shape, parse_body(request.body), service.prepared.counts.stations
        )
        return 200, encode(await self.executor.submit(shape, service, query))

    async def _delays(self, request: Request, name: str) -> tuple:
        # Replans are CPU-heavy worker-pool jobs like any query: they
        # obey the same admission bound (a swap storm must not starve
        # queries) and a draining server starts no new ones.
        entry = self.registry.get(name)
        command = parse_delay_request(
            parse_body(request.body), entry.service.prepared.counts.trains
        )
        if command.mode == "apply":
            return 200, await self._swap_apply(name, command)
        if command.mode == "prepare":
            return 200, await self._swap_prepare(name, command)
        if command.mode == "commit":
            return 200, await self._swap_commit(name, command)
        return 200, await self._swap_abort(name, command)

    async def _swap_apply(self, name: str, command: DelayCommand) -> dict:
        entry = await self.registry.apply_delays(
            name,
            command.delays,
            slack_per_leg=command.slack_per_leg,
            advance=command.advance,
            run=self.executor.run,
        )
        self.metrics.observe_swap(name, entry.last_swap_seconds)
        return APPLY_REPLY.write(
            name,
            entry.generation,
            len(command.delays),
            command.slack_per_leg,
            entry.last_swap_seconds,
        )

    async def _swap_prepare(self, name: str, command: DelayCommand) -> dict:
        token, seconds = await self.registry.prepare_delays(
            name,
            command.delays,
            slack_per_leg=command.slack_per_leg,
            run=self.executor.run,
        )
        return PREPARE_REPLY.write(
            name,
            token,
            self.registry.get(name).generation,
            len(command.delays),
            command.slack_per_leg,
            seconds,
        )

    async def _swap_commit(self, name: str, command: DelayCommand) -> dict:
        entry = await self.registry.commit_prepared(name, command.token)
        self.metrics.observe_swap(name, entry.last_swap_seconds)
        return COMMIT_REPLY.write(
            name, command.token, entry.generation, entry.last_swap_seconds
        )

    async def _swap_abort(self, name: str, command: DelayCommand) -> dict:
        discarded = await self.registry.abort_prepared(name, command.token)
        return ABORT_REPLY.write(name, command.token, discarded)
