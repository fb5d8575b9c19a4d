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
  (keep-alive loop, request reading, graceful drain) live in
  :class:`~repro.server.http_base.BaseAsyncHttpServer`, shared with
  the fleet gateway.
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

import json
import time

from repro.core.fanout import WorkerLost, pool_size
from repro.server.executor import QueryExecutor
from repro.server.http_base import MAX_BODY_BYTES, BaseAsyncHttpServer
from repro.server.metrics import ServerMetrics
from repro.server.protocol import (
    PROTOCOL_VERSION,
    DelayCommand,
    ProtocolError,
    open_request,
    parse_delay_request,
)
from repro.server.registry import DatasetRegistry, RegistryError, SwapStateError
from repro.service.shapes import (
    ABORT_REPLY,
    APPLY_REPLY,
    BY_ROUTE,
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
        super().__init__(host=host, port=port, drain_grace=drain_grace)
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if retry_after < 0:
            raise ValueError(
                f"retry_after must be non-negative, got {retry_after}"
            )
        self.registry = registry
        self.max_inflight = max_inflight
        #: Backoff hint (seconds) sent as ``Retry-After`` on every
        #: retriable 503; cooperative clients (repro.client) honor it.
        self.retry_after = retry_after
        self.metrics = metrics if metrics is not None else ServerMetrics()
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

    # -- routing --------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, dict, dict]:
        """Route one request; returns ``(status, payload, extra
        response headers)``.  Handlers return 2-tuples unless they have
        headers to add (the 503 rejections carry ``Retry-After``)."""
        endpoint = self._endpoint_label(method, path)
        self.metrics.observe_request(endpoint)
        self._observe_client_retry(headers)
        t0 = time.perf_counter()
        extra: dict = {}
        try:
            answer = await self._route(method, path, body, endpoint)
            if len(answer) == 3:
                status, payload, extra = answer
            else:
                status, payload = answer
        except ProtocolError as exc:
            status, payload = exc.status, exc.payload()
        except RegistryError as exc:
            status, payload = 404, _error("unknown_dataset", str(exc))
        except SwapStateError as exc:
            status, payload = 409, _error("swap_conflict", str(exc))
        except WorkerLost as exc:
            # A search worker died under this request, and only this
            # one: ask again.
            status, payload, extra = 503, _error(
                "worker_lost", str(exc), retriable=True
            ), self._retry_after_header()
        except ValueError as exc:
            # Domain validation the protocol layer cannot see (e.g.
            # Delay.from_stop past the train's run).
            status, payload = 400, _error("invalid_request", str(exc))
        except Exception as exc:  # noqa: BLE001 — last-resort 500
            status, payload = 500, _error(
                "internal", f"{type(exc).__name__}: {exc}"
            )
        self.metrics.observe_response(
            endpoint, status, time.perf_counter() - t0
        )
        return status, payload, extra

    def _observe_client_retry(self, headers: dict[str, str]) -> None:
        """Count requests that declare themselves retries (the
        ``X-Retry-Attempt`` header repro.client sends with its 503
        backoff retries) in ``retries_observed_total``."""
        raw = headers.get("x-retry-attempt")
        if raw is None:
            return
        try:
            attempt = int(raw)
        except ValueError:
            return
        if attempt > 0:
            self.metrics.observe_client_retry()

    async def _route(
        self, method: str, path: str, body: bytes, endpoint: str
    ) -> tuple:
        parts = [p for p in path.split("?")[0].split("/") if p]

        if parts == ["healthz"]:
            _require_method(method, "GET")
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

        if parts == ["metrics"]:
            _require_method(method, "GET")
            return 200, {
                "v": PROTOCOL_VERSION,
                **self.metrics.snapshot(self.registry),
            }

        if parts == ["v1", "datasets"]:
            _require_method(method, "GET")
            return 200, DATASETS.write(
                [entry.describe() for entry in self.registry.entries()]
            )

        if (
            len(parts) == 4
            and parts[:2] == ["v1", "datasets"]
            and parts[3] == "delays"
        ):
            _require_method(method, "POST")
            return await self._handle_delays(parts[2], body, endpoint)

        if len(parts) == 3 and parts[0] == "v1" and parts[2] in BY_ROUTE:
            _require_method(method, "POST")
            return await self._handle_query(
                parts[1], BY_ROUTE[parts[2]], body, endpoint
            )

        raise ProtocolError(
            "unknown_route", f"no route for {method} {path}", status=404
        )

    # -- handlers -------------------------------------------------------

    def _admit(self, endpoint: str) -> tuple[int, dict, dict] | None:
        """Admission control: fast 503 instead of an unbounded queue.
        Returns the rejection response (with its ``Retry-After``
        backoff hint), or ``None`` when admitted.  Note unreadiness
        (``begin_drain``) does *not* reject — the grace window exists
        precisely so requests still in flight from a router that has
        not yet noticed keep succeeding."""
        if self._draining:
            self.metrics.observe_reject(endpoint)
            return 503, _error(
                "draining", "server is shutting down", retriable=True
            ), self._retry_after_header()
        if self._inflight >= self.max_inflight:
            self.metrics.observe_reject(endpoint)
            return 503, _error(
                "overloaded",
                f"{self._inflight} requests in flight "
                f"(max_inflight={self.max_inflight}); retry",
                retriable=True,
            ), self._retry_after_header()
        return None

    async def _handle_query(
        self, name: str, shape: Shape, body: bytes, endpoint: str
    ) -> tuple:
        rejection = self._admit(endpoint)
        if rejection is not None:
            return rejection
        # Pin the service *before* any await: a hot swap mid-request
        # must not change what this request runs against.
        entry = self.registry.get(name)
        service = entry.service
        self._inflight += 1
        self.metrics.inflight = self._inflight
        try:
            request, encode = open_request(
                shape, _parse_body(body), service.timetable.num_stations
            )
            result = await self.executor.submit(shape, service, request)
            return 200, encode(result)
        finally:
            self._inflight -= 1
            self.metrics.inflight = self._inflight

    async def _handle_delays(
        self, name: str, body: bytes, endpoint: str
    ) -> tuple:
        # Replans are CPU-heavy worker-pool jobs like any query: they
        # obey the same admission bound (a swap storm must not starve
        # queries) and a draining server starts no new ones.
        rejection = self._admit(endpoint)
        if rejection is not None:
            return rejection
        self._inflight += 1
        self.metrics.inflight = self._inflight
        try:
            entry = self.registry.get(name)
            command = parse_delay_request(
                _parse_body(body), entry.service.timetable.num_trains
            )
            if command.mode == "apply":
                return 200, await self._swap_apply(name, command)
            if command.mode == "prepare":
                return 200, await self._swap_prepare(name, command)
            if command.mode == "commit":
                return 200, await self._swap_commit(name, command)
            return 200, await self._swap_abort(name, command)
        finally:
            self._inflight -= 1
            self.metrics.inflight = self._inflight

    async def _swap_apply(self, name: str, command: DelayCommand) -> dict:
        entry = await self.registry.apply_delays(
            name,
            command.delays,
            slack_per_leg=command.slack_per_leg,
            replan=command.replan,
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
            replan=command.replan,
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


def _parse_body(body: bytes) -> object:
    if not body:
        raise ProtocolError("invalid_request", "request body is empty")
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        raise ProtocolError(
            "invalid_json", f"request body is not valid JSON: {exc}"
        ) from None


def _require_method(method: str, expected: str) -> None:
    if method != expected:
        raise ProtocolError(
            "method_not_allowed",
            f"use {expected} for this endpoint, not {method}",
            status=405,
        )
