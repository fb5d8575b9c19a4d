"""The fleet routing gateway: one address in front of N workers.

A :class:`FleetGateway` is a :class:`~repro.server.http_base.
BaseAsyncHttpServer` that serves the *same wire protocol* as a worker
(``docs/SERVER.md``) by forwarding requests byte-for-byte to healthy
:class:`~repro.server.app.TransitServer` processes.  To every client
it is just another server URL — ``repro.client.connect("http://gw")``
works unchanged, and answers are **bitwise identical** to a single
worker's because the gateway never decodes a worker response on the
query path (:meth:`repro.client.http.HttpBackend.forward` hands back
raw bytes, which :class:`BaseAsyncHttpServer` writes verbatim).

Responsibilities (see ``docs/FLEET.md`` for the protocol walk-through):

* **Health-checked routing.**  A background loop polls every worker's
  ``/healthz``.  Per dataset, requests round-robin over workers that
  report ``"ok"``; a worker reporting ``"draining"`` stops receiving
  new requests *before* it starts rejecting any (the readiness/
  liveness split), and one that fails ``eject_after`` consecutive
  probes — or any forward — is ejected immediately.
* **Failover.**  A query whose worker dies mid-request (connection
  refused/reset, timeout) is retried **once** on a peer; queries are
  read-only so the retry is safe.  A worker answering a retriable 503
  (overloaded) also gets one peer try before the 503 passes through.
* **Readmission with catch-up.**  The gateway records every committed
  delay batch per dataset (the *delay log*).  A worker that comes
  (back) up at a stale generation — a supervisor restart loads the
  pristine store at generation 0 — is replayed the missing batches
  and only then routed to, so a restarted worker can never serve
  pre-delay answers into a post-delay fleet.
* **Coordinated swaps.**  ``POST /v1/datasets/{name}/delays`` against
  the gateway is applied fleet-wide through the two-phase
  prepare/commit protocol (:mod:`repro.fleet.swap`): every worker
  replans while still serving, then the gateway pauses the dataset's
  routing for the microseconds the pointer swaps take — no client
  ever observes a mixed fleet.
* **Fleet metrics.**  ``GET /metrics`` renders the gateway's own
  routing counters plus every worker's snapshot and a cross-worker
  aggregate.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Mapping, Sequence

from repro.client.errors import BackendTimeoutError, TransportError
from repro.client.http import HttpBackend, RetryPolicy
from repro.fleet.catchup import coalesce_delay_log
from repro.fleet.metrics import GatewayMetrics
from repro.fleet.swap import FleetSwapCoordinator
from repro.server.http_base import BaseAsyncHttpServer, Request
from repro.server.protocol import parse_body
from repro.service.shapes import PROTOCOL_VERSION, Shape
from repro.service.shapes import error_payload as _error

__all__ = ["FleetGateway", "WorkerState"]

#: A forward failure with one of these is a dead/unreachable worker:
#: eject immediately and fail the query over to a peer.
_FORWARD_FAILURES = (TransportError, BackendTimeoutError)

_FORWARD_THREADS = 16
_CONTROL_THREADS = 8


class WorkerState:
    """One worker as the gateway sees it.

    ``state`` transitions (all on the gateway's event loop)::

        new ──ok──> catching-up ──caught up──> healthy
        healthy ──"draining" healthz──> draining (no new routing)
        healthy/draining ──probe/forward failures──> down (ejected)
        down ──ok──> catching-up ──> healthy   (readmission)

    Only ``healthy`` workers receive traffic.  A restarted worker
    reappears under the same name at a new URL: the old state object
    is discarded and the replacement funnels through catch-up.
    """

    __slots__ = (
        "name",
        "base_url",
        "backend",
        "health",
        "state",
        "failures",
        "datasets",
        "generations",
        "last_error",
    )

    def __init__(
        self,
        name: str,
        base_url: str,
        *,
        timeout: float,
        health_timeout: float,
        pool_size: int,
    ) -> None:
        self.name = name
        self.base_url = base_url
        no_retry = RetryPolicy(retries=0)
        #: Forward path: generous timeout, deep pool.
        self.backend = HttpBackend(
            base_url, timeout=timeout, retry=no_retry, pool_size=pool_size
        )
        #: Probe path: short timeout so a hung worker cannot stall the
        #: health loop for the forward timeout.
        self.health = HttpBackend(
            base_url, timeout=health_timeout, retry=no_retry, pool_size=1
        )
        self.state = "new"
        self.failures = 0
        self.datasets: set[str] = set()
        self.generations: dict[str, int] = {}
        self.last_error: str | None = None

    def close(self) -> None:
        self.backend.close()
        self.health.close()

    def describe(self) -> dict:
        return {
            "url": self.base_url,
            "state": self.state,
            "datasets": sorted(self.datasets),
            "generations": dict(self.generations),
            "last_error": self.last_error,
        }


class FleetGateway(BaseAsyncHttpServer):
    """Route the serving protocol over a fleet of workers (module doc).

    ``workers`` is the endpoint source: a static mapping/sequence of
    worker URLs, or a callable returning the current ``name -> url``
    mapping — :meth:`repro.fleet.supervisor.WorkerSupervisor.endpoints`
    is exactly that callable, which is how restarts propagate.
    """

    ROLE = "gateway"

    def __init__(
        self,
        workers: Mapping[str, str]
        | Sequence[str]
        | Callable[[], Mapping[str, str]],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 256,
        health_interval: float = 0.25,
        health_timeout: float = 2.0,
        eject_after: int = 2,
        worker_timeout: float = 30.0,
        retry_after: float = 0.25,
        drain_grace: float = 0.0,
        swap_drain_timeout: float = 60.0,
        metrics: GatewayMetrics | None = None,
    ) -> None:
        super().__init__(
            host=host,
            port=port,
            max_inflight=max_inflight,
            retry_after=retry_after,
            drain_grace=drain_grace,
            metrics=metrics if metrics is not None else GatewayMetrics(),
        )
        if eject_after < 1:
            raise ValueError(f"eject_after must be >= 1, got {eject_after}")
        self._provider = _as_provider(workers)
        self.health_interval = health_interval
        self.health_timeout = health_timeout
        self.eject_after = eject_after
        self.worker_timeout = worker_timeout
        self.swap_drain_timeout = swap_drain_timeout
        self._workers: dict[str, WorkerState] = {}
        #: Names that were ever routed to: a later admission of the
        #: same name is a *readmission* even across process restarts
        #: (the WorkerState object is new, the name is not).
        self._ever_admitted: set[str] = set()
        #: Per-dataset round-robin cursors.
        self._rr: dict[str, int] = {}
        #: Per-dataset routing gates; absent means open (zero hot-path
        #: cost until the first coordinated swap).  A cleared gate
        #: parks new queries while a swap commits.
        self._gates: dict[str, asyncio.Event] = {}
        #: Forwards currently in flight per dataset (what a swap's
        #: routing pause drains).
        self._dataset_inflight: dict[str, int] = {}
        #: The delay log: every committed batch per dataset, in commit
        #: order, as ready-to-replay ``mode=apply`` bodies.  Its length
        #: is the fleet's committed generation.
        self._delay_log: dict[str, list[bytes]] = {}  # guarded-by: _swap_lock
        #: Serializes coordinated swaps and worker admissions — the
        #: two operations that must see a frozen (generation, healthy
        #: set) pair.  Routing never takes it.
        self._swap_lock = asyncio.Lock()
        self._swap = FleetSwapCoordinator(self)
        #: Query forwards block a thread each.  Health probes, swaps
        #: and catch-up posts have a pool of their own, so they never
        #: queue behind query forwards: a swap's drain then waits only
        #: for forwards that finish on their own.
        self._forward_pool = ThreadPoolExecutor(
            max_workers=_FORWARD_THREADS, thread_name_prefix="gw-forward"
        )
        self._control_pool = ThreadPoolExecutor(
            max_workers=_CONTROL_THREADS, thread_name_prefix="gw-control"
        )
        self._health_task: asyncio.Task | None = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        await super().start()
        await self._health_sweep()  # populate before the first request
        self._health_task = asyncio.get_running_loop().create_task(
            self._health_loop()
        )

    async def wait_ready(
        self, *, workers: int = 1, timeout: float = 60.0
    ) -> None:
        """Block until at least ``workers`` workers are healthy (the
        serve-fleet CLI and tests gate startup on this)."""
        deadline = asyncio.get_running_loop().time() + timeout
        while True:
            healthy = sum(
                1 for st in self._workers.values() if st.state == "healthy"
            )
            if healthy >= workers:
                return
            if asyncio.get_running_loop().time() > deadline:
                states = {
                    name: st.state for name, st in self._workers.items()
                }
                raise TimeoutError(
                    f"only {healthy}/{workers} workers healthy after "
                    f"{timeout:g}s (states: {states})"
                )
            await asyncio.sleep(0.02)

    async def _post_drain(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        self._forward_pool.shutdown(wait=True)
        self._control_pool.shutdown(wait=True)
        for st in self._workers.values():
            st.close()

    # -- handlers -------------------------------------------------------

    async def _datasets(self, request: Request) -> tuple:
        # A server answers this on its loop; the gateway forwards it,
        # so it is admitted like a query.
        return await self._admitted(request, self._proxy, None)

    async def _query(
        self, request: Request, dataset: str, shape: Shape
    ) -> tuple:
        gate = self._gates.get(dataset)
        if gate is not None and not gate.is_set():
            # A coordinated swap is committing: park until the fleet
            # is uniformly on the new generation.
            await gate.wait()
        self._dataset_inflight[dataset] = (
            self._dataset_inflight.get(dataset, 0) + 1
        )
        try:
            return await self._proxy(request, dataset)
        finally:
            self._dataset_inflight[dataset] -= 1

    async def _delays(self, request: Request, dataset: str) -> tuple:
        parsed = parse_body(request.body)
        mode = parsed.get("mode", "apply")
        if mode != "apply":
            return 400, _error(
                "invalid_request",
                f"mode {mode!r} is not accepted by the gateway: it "
                f"coordinates the two-phase swap itself — POST "
                f"mode=apply (or omit mode)",
            )
        return await self._swap.coordinate(dataset, parsed)

    # -- forwarding ----------------------------------------------------

    async def _proxy(self, request: Request, dataset: str | None) -> tuple:
        forward_headers = None
        attempt_header = request.headers.get("x-retry-attempt")
        if attempt_header is not None:
            forward_headers = {"X-Retry-Attempt": attempt_header}
        body = request.body if request.method == "POST" else None
        tried: set[str] = set()
        for attempt in (0, 1):
            st = self._pick(dataset, tried)
            if st is None:
                self.metrics.no_worker_total += 1
                self.metrics.observe_reject(request.endpoint)
                return 503, _error(
                    "no_healthy_workers",
                    "no healthy worker available"
                    + (f" for dataset {dataset!r}" if dataset else ""),
                    retriable=True,
                ), self._retry_after_header()
            tried.add(st.name)
            try:
                status, resp_headers, raw = await self._forward(
                    st, request.method, request.path, body,
                    headers=forward_headers,
                )
            except _FORWARD_FAILURES as exc:
                # The worker died under us (killed, crashed, hung).
                # Queries are read-only: retry exactly once on a peer.
                self._eject(st, reason=f"{type(exc).__name__}: {exc}")
                if attempt == 0:
                    self.metrics.failovers_total += 1
                    continue
                return 502, _error(
                    "upstream_failed",
                    f"worker {st.name} failed mid-request and no peer "
                    f"could answer: {exc}",
                    retriable=True,
                ), self._retry_after_header()
            if (
                status == 503
                and attempt == 0
                and self._pick(dataset, tried) is not None
            ):
                # Overloaded/draining worker; a peer may have headroom.
                self.metrics.failovers_total += 1
                continue
            self.metrics.observe_forward(st.name)
            extra: dict = {}
            retry_after = resp_headers.get("retry-after")
            if retry_after is not None:
                extra["Retry-After"] = retry_after
            return status, raw, extra
        raise AssertionError("unreachable")  # pragma: no cover

    async def _forward(
        self,
        st: WorkerState,
        method: str,
        path: str,
        body: bytes | None,
        *,
        headers: dict[str, str] | None = None,
        idempotent: bool = True,
        control: bool = False,
    ) -> tuple[int, dict, bytes]:
        """One pooled worker exchange off the event loop.  ``control``
        selects the small control pool (swaps, catch-up) so the query
        path can never starve coordination traffic."""
        pool = self._control_pool if control else self._forward_pool
        return await asyncio.get_running_loop().run_in_executor(
            pool,
            lambda: st.backend.forward(
                method, path, body, headers=headers, idempotent=idempotent
            ),
        )

    def _pick(
        self, dataset: str | None, exclude: set[str]
    ) -> WorkerState | None:
        """Round-robin over healthy workers serving ``dataset``.

        Falls back to *any* healthy worker when none lists the dataset
        — the worker then answers the protocol's own 404
        ``unknown_dataset``, keeping error payloads bitwise identical
        to a single server."""
        healthy = [
            name
            for name, st in self._workers.items()
            if st.state == "healthy" and name not in exclude
        ]
        if dataset is not None:
            serving = [
                name
                for name in healthy
                if dataset in self._workers[name].datasets
            ]
            if serving:
                healthy = serving
        if not healthy:
            return None
        healthy.sort()
        key = dataset if dataset is not None else "*"
        cursor = self._rr.get(key, 0)
        self._rr[key] = cursor + 1
        return self._workers[healthy[cursor % len(healthy)]]

    def _gate(self, dataset: str) -> asyncio.Event:
        gate = self._gates.get(dataset)
        if gate is None:
            gate = self._gates[dataset] = asyncio.Event()
            gate.set()
        return gate

    # -- health, ejection, readmission ----------------------------------

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.health_interval)
            try:
                await self._health_sweep()
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 — the loop must survive
                self.metrics.health_sweep_errors_total += 1

    async def _health_sweep(self) -> None:
        """Reconcile worker states with the endpoint provider, then
        probe every worker's ``/healthz`` concurrently."""
        endpoints = dict(self._provider())
        for name, url in endpoints.items():
            st = self._workers.get(name)
            if st is None or st.base_url != url:
                if st is not None:
                    # Same name, new address: a supervisor restart.
                    if st.state == "healthy":
                        self._eject(st, reason="endpoint replaced")
                    st.close()
                self._workers[name] = WorkerState(
                    name,
                    url,
                    timeout=self.worker_timeout,
                    health_timeout=self.health_timeout,
                    pool_size=8,
                )
        for name in list(self._workers):
            if name not in endpoints:
                st = self._workers.pop(name)
                if st.state == "healthy":
                    self._eject(st, reason="endpoint removed")
                st.close()
        states = list(self._workers.values())
        results = await asyncio.gather(
            *(self._probe(st) for st in states), return_exceptions=True
        )
        for st, result in zip(states, results):
            # The sweep may race a provider change; skip replaced states.
            if self._workers.get(st.name) is st:
                self._note_probe(st, result)

    async def _probe(self, st: WorkerState) -> dict:
        status, _, raw = await asyncio.get_running_loop().run_in_executor(
            self._control_pool,
            lambda: st.health.forward("GET", "/healthz"),
        )
        if status != 200:
            raise TransportError(f"healthz answered {status}")
        return json.loads(raw)

    def _note_probe(self, st: WorkerState, result: dict | BaseException) -> None:
        if isinstance(result, BaseException):
            if isinstance(result, asyncio.CancelledError):
                raise result
            st.failures += 1
            st.last_error = f"{type(result).__name__}: {result}"
            if (
                st.state in ("healthy", "draining")
                and st.failures >= self.eject_after
            ):
                self._eject(st, reason=st.last_error)
            return
        st.failures = 0
        st.last_error = None
        st.datasets = set(result.get("datasets", ()))
        # A worker's generations only grow; a probe answered before a
        # catch-up replay or a swap commit finished reports older ones.
        st.generations = {
            name: max(int(gen), st.generations.get(name, 0))
            for name, gen in (result.get("generations") or {}).items()
        }
        if result.get("status") != "ok":
            # Readiness off: stop routing, but this is not a failure —
            # the worker is draining gracefully and still answering.
            if st.state == "healthy":
                st.state = "draining"
            return
        if st.state in ("healthy", "catching-up"):
            return
        # new / down / draining-then-recovered: (re)admit via catch-up.
        st.state = "catching-up"
        asyncio.get_running_loop().create_task(self._admit_worker(st))

    async def _admit_worker(self, st: WorkerState) -> None:
        """Bring a worker into rotation, replaying any delay batches
        it missed first.  Runs under the swap lock so no coordinated
        swap can move the fleet's generation mid-catch-up (and a
        worker can never become healthy between a swap's prepare and
        commit, which would leave it unswapped).

        The missed-log suffix is coalesced first
        (:func:`repro.fleet.catchup.coalesce_delay_log`): consecutive
        slack-free batches merge into one bounded ``apply`` carrying a
        ``generations`` count, so a worker rejoining after a long
        stream catches up in O(slack barriers + 1) posts instead of
        O(committed batches), with generation accounting unchanged."""
        try:
            async with self._swap_lock:
                for dataset in sorted(st.datasets):
                    log = self._delay_log.get(dataset, ())
                    have = st.generations.get(dataset, 0)
                    if have > len(log):
                        raise RuntimeError(
                            f"worker {st.name} is at generation {have} of "
                            f"{dataset!r} but the fleet committed only "
                            f"{len(log)} — it was mutated out-of-band; "
                            f"restart it from the store"
                        )
                    plan = coalesce_delay_log(list(log[have:]))
                    for body, represented in plan:
                        status, _, raw = await self._forward(
                            st,
                            "POST",
                            f"/v1/datasets/{dataset}/delays",
                            json.dumps(body).encode(),
                            idempotent=False,
                            control=True,
                        )
                        if status != 200:
                            raise RuntimeError(
                                f"catch-up replay on {st.name} answered "
                                f"{status}: {raw[:200]!r}"
                            )
                        self.metrics.catch_up_batches_total += 1
                        self.metrics.catch_up_coalesced_total += represented
                        st.generations[dataset] = (
                            st.generations.get(dataset, 0) + represented
                        )
                if self._workers.get(st.name) is not st:
                    return  # replaced while catching up; discard
                st.state = "healthy"
                st.failures = 0
                if st.name in self._ever_admitted:
                    self.metrics.observe_readmission(st.name)
                else:
                    self._ever_admitted.add(st.name)
        except Exception as exc:  # noqa: BLE001 — stay down, retry later
            st.last_error = f"{type(exc).__name__}: {exc}"
            if st.state == "catching-up":
                st.state = "down"

    def _eject(self, st: WorkerState, *, reason: str) -> None:
        """Take a worker out of rotation immediately (probe threshold
        reached, or any forward failure).  Idempotent per incident."""
        was_routed = st.state in ("healthy", "draining")
        st.state = "down"
        st.failures = 0
        st.last_error = reason
        if was_routed:
            self.metrics.observe_ejection(st.name)

    # -- introspection handlers -----------------------------------------

    async def _healthz(self, request: Request) -> tuple:
        datasets: set[str] = set()
        for st in self._workers.values():
            if st.state == "healthy":
                datasets.update(st.datasets)
        return 200, {
            "v": PROTOCOL_VERSION,
            "status": self.health_status,
            "ready": self.health_status == "ok",
            "role": "gateway",
            "datasets": sorted(datasets),
            "generations": {
                # Safe lock-free read: this handler runs on the event
                # loop with no await point, and _swap_lock holders mutate
                # the log only from coroutines on this same loop.
                # lint: disable=LOCK-GUARD — loop-confined sync read
                name: len(log) for name, log in self._delay_log.items()
            },
            "workers": {
                name: st.describe()
                for name, st in sorted(self._workers.items())
            },
        }

    async def _metrics(self, request: Request) -> tuple:
        """Gateway counters + per-worker snapshots + a fleet aggregate
        (best-effort: an unreachable worker renders as ``null``)."""
        states = [
            st for st in self._workers.values() if st.state != "down"
        ]
        snapshots = await asyncio.gather(
            *(self._fetch_metrics(st) for st in states),
            return_exceptions=True,
        )
        workers: dict[str, dict | None] = {}
        for st, snap in zip(states, snapshots):
            workers[st.name] = None if isinstance(snap, BaseException) else snap
        fleet = _aggregate(
            [snap for snap in workers.values() if snap is not None]
        )
        return 200, {
            "v": PROTOCOL_VERSION,
            "gateway": self.metrics.snapshot(),
            "workers": dict(sorted(workers.items())),
            "fleet": fleet,
        }

    async def _fetch_metrics(self, st: WorkerState) -> dict:
        status, _, raw = await asyncio.get_running_loop().run_in_executor(
            self._control_pool,
            lambda: st.health.forward("GET", "/metrics"),
        )
        if status != 200:
            raise TransportError(f"metrics answered {status}")
        return json.loads(raw)


def _as_provider(
    workers: Mapping[str, str]
    | Sequence[str]
    | Callable[[], Mapping[str, str]],
) -> Callable[[], Mapping[str, str]]:
    if callable(workers):
        return workers
    if isinstance(workers, Mapping):
        static = dict(workers)
    else:
        static = {f"w{i}": url for i, url in enumerate(workers)}
    if not static:
        raise ValueError("at least one worker endpoint is required")
    return lambda: static


def _aggregate(snapshots: list[dict]) -> dict:
    """Sum the load-bearing counters across worker snapshots."""
    requests: dict[str, int] = {}
    rejected = 0
    retries = 0
    swaps: dict[str, int] = {}
    for snap in snapshots:
        for endpoint, count in (snap.get("requests_total") or {}).items():
            requests[endpoint] = requests.get(endpoint, 0) + int(count)
        rejected += int(snap.get("rejected_total") or 0)
        retries += int(snap.get("retries_observed_total") or 0)
        for name, count in (snap.get("swaps_total") or {}).items():
            swaps[name] = swaps.get(name, 0) + int(count)
    return {
        "workers_reporting": len(snapshots),
        "requests_total": requests,
        "rejected_total": rejected,
        "retries_observed_total": retries,
        "swaps_total": swaps,
    }
