"""The fleet routing gateway: one address in front of N workers.

A :class:`FleetGateway` is a :class:`~repro.server.http_base.
BaseAsyncHttpServer` that serves a worker's wire protocol
(``docs/SERVER.md``) by forwarding each request to a healthy
:class:`~repro.server.app.TransitServer`.  It never decodes a worker
answer on the query path (:class:`~repro.server.http_base.Upstream`
hands back raw bytes), so answers are **bitwise identical** to one
worker's and the SDK's ``connect("http://gw")`` works unchanged.
Every forward, probe and swap post is awaited on the gateway's event
loop; it runs no thread of its own (``docs/FLEET.md`` walks through
the rest):

* **Health-checked routing.**  A background loop polls every worker's
  ``/healthz``; per dataset, requests round-robin over workers that
  report ``"ok"``.  A ``"draining"`` worker gets no new requests before
  it rejects any; ``eject_after`` failed probes or one failed forward
  eject a worker.
* **Failover.**  A query whose worker dies mid-request (refused,
  reset, timed out) is retried **once** on a peer, as is a retriable
  503 when a peer exists.  A request that cannot be put on the wire
  is the client's fault: it gets a worker's answer to those bytes,
  and no worker is ejected.
* **Readmission with catch-up.**  Every committed delay batch is
  logged per dataset; a worker that comes (back) up at an older
  generation is replayed what it missed before it is routed to.
* **Delay swaps by generation.**  A delay post is a plain ``apply``
  to every healthy worker serving the dataset, at once.  Each answer
  names its generation (``X-Generation``), and a dataset is routed
  only to workers known at its *routing generation*, which apply
  replies, those headers and probes raise and nothing lowers: once a
  client has an answer from generation k + 1, no later request is
  answered from k.
* **Fleet metrics.**  ``GET /metrics`` renders the gateway's counters,
  every worker's snapshot and a cross-worker aggregate.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Mapping, Sequence

from orjson import dumps, loads

from repro.fleet.catchup import coalesce_delay_log
from repro.fleet.metrics import GatewayMetrics
from repro.server.http_base import (
    _UNSAFE_IN_PATH,
    BaseAsyncHttpServer,
    Request,
    Upstream,
    UpstreamError,
    retry_attempt,
)
from repro.server.protocol import ProtocolError, parse_body
from repro.service.shapes import (
    FLEET_APPLY_REPLY,
    FLEET_SWAP,
    PROTOCOL_VERSION,
    Shape,
)
from repro.service.shapes import error_payload as _error

__all__ = ["FleetGateway", "WorkerState"]


class WorkerState:
    """One worker as the gateway sees it.

    ``state`` transitions (all on the gateway's event loop)::

        new ──ok──> catching-up ──caught up──> healthy
        healthy ──"draining" healthz──> draining (no new routing)
        healthy/draining ──probe/forward failures──> down (ejected)
        down ──ok──> catching-up ──> healthy   (readmission)

    Only ``healthy`` workers receive traffic, and for a dataset only
    those known at its routing generation (``generations`` holds the
    newest generation of each dataset the gateway has evidence of).  A
    restarted worker reappears under the same name at a new URL: the
    old state object is discarded and the replacement funnels through
    catch-up.  ``upstream`` holds the gateway's connections to it.
    """

    __slots__ = (
        "name",
        "base_url",
        "upstream",
        "state",
        "failures",
        "datasets",
        "generations",
        "last_error",
    )

    def __init__(self, name: str, base_url: str) -> None:
        self.name = name
        self.base_url = base_url
        self.upstream = Upstream(base_url)
        self.state = "new"
        self.failures = 0
        self.datasets: set[str] = set()
        self.generations: dict[str, int] = {}
        self.last_error: str | None = None

    def close(self) -> None:
        self.upstream.close()

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
        self._workers: dict[str, WorkerState] = {}
        #: Names that were ever routed to: a later admission of the
        #: same name is a *readmission* even across process restarts
        #: (the WorkerState object is new, the name is not).
        self._ever_admitted: set[str] = set()
        #: Per-dataset round-robin cursors.
        self._rr: dict[str, int] = {}
        #: The delay log: every committed batch per dataset, in commit
        #: order, as ready-to-replay ``mode=apply`` bodies.  Its length
        #: is the fleet's committed generation.
        self._delay_log: dict[str, list[bytes]] = {}  # guarded-by: _swap_lock
        #: Per dataset, the routing generation: queries go only to
        #: healthy workers known at it.  It never goes down; evidence
        #: raises it (:meth:`_note_generation`).  Outside a swap it
        #: equals the length of the dataset's delay log.
        self._routing: dict[str, int] = {}
        #: ``(dataset, k + 1)`` while a swap of the dataset from k
        #: fans out: evidence of k + 1 is then not out of band.
        self._swapping: tuple[str, int] | None = None
        #: Serializes swaps and worker admissions — the two operations
        #: that move a worker's generation.  Routing never takes it.
        self._swap_lock = asyncio.Lock()
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
        return await self._proxy(request, dataset)

    async def _delays(self, request: Request, dataset: str) -> tuple:
        """Apply one delay batch fleet-wide: a plain ``apply`` to every
        healthy worker serving ``dataset``, at once, under the swap
        lock.  Each reply is evidence as it arrives
        (:meth:`_note_generation`), so a worker that finished serves
        while the others replan.  The batch is logged if the routing
        generation reached k + 1 when the fan-out ends, and workers
        that did not answer 200 are then ejected (readmission replays
        the log to them).  If no worker moved, the first worker answer
        that is not a 200 speaks for the fleet: every worker validates
        a body alike."""
        body = parse_body(request.body)
        if "generations" in body:
            return 400, _error(
                "invalid_request",
                "'generations' is for the gateway's catch-up posts to its "
                "workers; a client posts plain applies",
                field="generations",
            )
        path = f"/v1/datasets/{dataset}/delays"
        async with self._swap_lock:
            targets = [
                st
                for st in self._workers.values()
                if st.state == "healthy" and dataset in st.datasets
            ]
            if not targets:
                # An unknown dataset answers the workers' own 404.
                return await self._proxy(request, dataset)
            t0 = time.perf_counter()
            k = self._routing.get(dataset, 0)
            self._swapping = (dataset, k + 1)
            try:
                replies = await asyncio.gather(
                    *(
                        self._apply(st, dataset, path, request.body)
                        for st in targets
                    )
                )
            finally:
                self._swapping = None
            if self._routing.get(dataset, 0) == k:
                # No worker moved: the fleet is still at k.
                for reply in replies:
                    if reply is not None and reply[0] != 200:
                        return reply
                return 502, _error(
                    "upstream_failed",
                    f"no worker applied the batch to {dataset!r}; the "
                    f"fleet is unchanged",
                    retriable=True,
                ), self._retry_after_header()
            replay = dict(body)
            replay.pop("mode", None)
            self._delay_log.setdefault(dataset, []).append(dumps(replay))
            committed: list[tuple[WorkerState, dict]] = []
            failed: list[WorkerState] = []
            for st, reply in zip(targets, replies):
                if reply is not None and reply[0] == 200:
                    committed.append((st, loads(reply[1])))
                else:
                    failed.append(st)
                    if st.state != "down":
                        self._eject(st, reason="did not apply the batch")
            total = time.perf_counter() - t0
            self.metrics.observe_swap(
                dataset, total, incremental=body.get("replan") == "incremental"
            )
            return 200, FLEET_APPLY_REPLY.write(
                dataset,
                k + 1,
                len(body.get("delays") or []),
                body.get("slack_per_leg", 0),
                max(
                    (payload["swap_seconds"] for _, payload in committed),
                    default=0.0,
                ),
                FLEET_SWAP.write(
                    sorted(st.name for st, _ in committed),
                    sorted(st.name for st in failed),
                    total,
                ),
            )

    async def _apply(
        self, st: WorkerState, dataset: str, path: str, body: bytes
    ) -> tuple | None:
        """One worker's share of a swap: ``(status, answer bytes,
        extra headers)``, its 200 noted as evidence the moment it
        arrives; ``None`` when the worker could not be reached (it is
        ejected) or its 200 is not evidence the gateway accepts."""
        try:
            status, headers, raw = await self._forward(
                st, "POST", path, body, idempotent=False
            )
        except UpstreamError as exc:
            self._eject(st, reason=f"{type(exc).__name__}: {exc}")
            return None
        if status == 200 and not self._note_generation(
            st, dataset, loads(raw)["generation"]
        ):
            return None
        return status, raw, _retry_after(headers)

    # -- forwarding ----------------------------------------------------

    async def _proxy(self, request: Request, dataset: str | None) -> tuple:
        # A worker reads no query string.  Without it, the only bytes a
        # target may not carry are in a dataset name: the client's
        # fault, not a worker's.
        path = request.path.partition("?")[0]
        if _UNSAFE_IN_PATH.search(path):
            raise ProtocolError(
                "unknown_dataset",
                f"unknown dataset {dataset!r} (a name outside printable "
                f"ASCII is not forwarded)",
                status=404,
            )
        # Passed on as the number a worker counts, or not at all.
        retry = retry_attempt(request.headers.get("x-retry-attempt"))
        forward_headers = {"X-Retry-Attempt": str(retry)} if retry > 0 else None
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
                    st, request.method, path, body, headers=forward_headers
                )
            except UpstreamError as exc:
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
            extra = _retry_after(resp_headers)
            generation = resp_headers.get("x-generation")
            if generation is not None:
                # Raised before the answer is relayed: no request sent
                # after a client read this answer reaches an older
                # generation.
                if not self._note_generation(st, dataset, int(generation)):
                    if attempt == 0:
                        self.metrics.failovers_total += 1
                        continue
                    return 502, _error(
                        "upstream_failed",
                        f"worker {st.name} answered from generation "
                        f"{generation} of {dataset!r}, which the fleet "
                        f"never committed",
                        retriable=True,
                    ), self._retry_after_header()
                extra["X-Generation"] = generation
            self.metrics.observe_forward(st.name)
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
    ) -> tuple[int, dict, bytes]:
        """One exchange with a worker, within ``worker_timeout``."""
        return await st.upstream.exchange(
            method, path, body, headers=headers, idempotent=idempotent,
            timeout=self.worker_timeout,
        )

    def _pick(
        self, dataset: str | None, exclude: set[str]
    ) -> WorkerState | None:
        """Round-robin over the healthy workers serving ``dataset``
        that are known at its routing generation.

        Falls back to *any* healthy worker for a dataset no worker
        lists — the worker then answers the protocol's own 404
        ``unknown_dataset``, keeping error payloads bitwise identical
        to a single server."""
        healthy = [
            name
            for name, st in self._workers.items()
            if st.state == "healthy" and name not in exclude
        ]
        if dataset is not None and any(
            dataset in st.datasets for st in self._workers.values()
        ):
            generation = self._routing.get(dataset, 0)
            healthy = [
                name
                for name in healthy
                if dataset in self._workers[name].datasets
                and self._workers[name].generations.get(dataset, 0)
                == generation
            ]
        if not healthy:
            return None
        healthy.sort()
        key = dataset if dataset is not None else "*"
        cursor = self._rr.get(key, 0)
        self._rr[key] = cursor + 1
        return self._workers[healthy[cursor % len(healthy)]]

    def _note_generation(
        self, st: WorkerState, dataset: str, generation: int
    ) -> bool:
        """Evidence that ``st`` serves ``dataset`` at ``generation`` —
        an apply reply, a query answer's ``X-Generation`` or a probe.
        It raises the worker's known generation and the dataset's
        routing generation; neither ever goes down.  Evidence above
        the routing generation (or above k + 1 while the dataset's
        swap from k fans out) is a worker mutated out of band: it is
        ejected, and ``False`` returned."""
        ceiling = self._routing.get(dataset, 0)
        if self._swapping is not None and self._swapping[0] == dataset:
            ceiling = self._swapping[1]
        if generation > ceiling:
            self._eject(
                st,
                reason=f"at generation {generation} of {dataset!r}, above "
                f"the fleet's {ceiling} — it was mutated out of band; "
                f"restart it from the store",
            )
            return False
        if generation > st.generations.get(dataset, 0):
            st.generations[dataset] = generation
        if generation > self._routing.get(dataset, 0):
            self._routing[dataset] = generation
        return True

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
                self._workers[name] = WorkerState(name, url)
        for name in list(self._workers):
            if name not in endpoints:
                st = self._workers.pop(name)
                if st.state == "healthy":
                    self._eject(st, reason="endpoint removed")
                st.close()
        states = list(self._workers.values())
        results = await asyncio.gather(
            *(self._fetch(st, "/healthz") for st in states),
            return_exceptions=True,
        )
        for st, result in zip(states, results):
            # The sweep may race a provider change; skip replaced states.
            if self._workers.get(st.name) is st:
                self._note_probe(st, result)

    async def _fetch(self, st: WorkerState, path: str) -> dict:
        """A worker's ``/healthz`` or ``/metrics`` document, within
        ``health_timeout``: a hung worker cannot stall a health sweep
        for the forward timeout."""
        status, _, raw = await st.upstream.exchange(
            "GET", path, timeout=self.health_timeout
        )
        if status != 200:
            raise UpstreamError(f"{path} answered {status}")
        return loads(raw)

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
        # A probe answered before a catch-up replay or a swap finished
        # reports an older generation: noted, it lowers nothing.
        for name, generation in (result.get("generations") or {}).items():
            if not self._note_generation(st, name, int(generation)):
                return
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
        it missed first.  Runs under the swap lock so no swap can move
        the fleet's generation mid-catch-up.

        The missed-log suffix is coalesced first
        (:func:`repro.fleet.catchup.coalesce_delay_log`): consecutive
        slack-free batches merge into one bounded ``apply`` carrying a
        ``generations`` count, so a worker rejoining after a long
        stream catches up in O(slack barriers + 1) posts instead of
        O(committed batches).  Each reply's ``generation`` is noted as
        evidence, like any other (:meth:`_note_generation`)."""
        try:
            async with self._swap_lock:
                for dataset in sorted(st.datasets):
                    log = self._delay_log.get(dataset, ())
                    have = st.generations.get(dataset, 0)
                    plan = coalesce_delay_log(list(log[have:]))
                    for body, represented in plan:
                        status, _, raw = await self._forward(
                            st,
                            "POST",
                            f"/v1/datasets/{dataset}/delays",
                            dumps(body),
                            idempotent=False,
                        )
                        if status != 200:
                            raise RuntimeError(
                                f"catch-up replay on {st.name} answered "
                                f"{status}: {raw[:200]!r}"
                            )
                        self.metrics.catch_up_batches_total += 1
                        self.metrics.catch_up_coalesced_total += represented
                        if not self._note_generation(
                            st, dataset, loads(raw)["generation"]
                        ):
                            return
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
            *(self._fetch(st, "/metrics") for st in states),
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


def _retry_after(headers: dict) -> dict:
    """A worker answer's ``Retry-After``, to pass through."""
    value = headers.get("retry-after")
    return {} if value is None else {"Retry-After": value}


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
