"""Fleet-wide coordinated delay swaps: prepare everywhere, pause,
commit everywhere.

The problem: a delay batch applied worker-by-worker (N independent
``mode=apply`` posts) leaves a window — seconds long, since each
worker replans — in which half the fleet answers from the old
timetable and half from the new one.  A client polling through the
gateway would see answers flip back and forth between generations.

The protocol (server side in :mod:`repro.server.registry`):

1. **Prepare** — the gateway posts ``mode=prepare`` to every healthy
   worker serving the dataset, *concurrently*.  Each worker replans
   off its event loop and holds the new service aside under a token,
   still answering queries from the old timetable.  All the expensive
   work happens here, with zero routing impact.
2. **Pause** — the gateway closes the dataset's routing gate (new
   queries park; other datasets are untouched) and waits for the
   dataset's in-flight forwards to drain, so no request straddles the
   flip.
3. **Commit** — ``mode=commit`` with each worker's token.  A commit is
   one pointer assignment per worker (microseconds), so the pause is
   bounded by a round-trip, not a replan.
4. **Resume** — the gate reopens; every subsequent query sees the new
   generation on every worker.

Failure handling: any prepare failure aborts the surviving prepares
and reports the first real (4xx) worker error — the fleet stays
uniformly old.  Once *any* worker commits, the fleet has moved: the
batch is appended to the gateway's delay log, and workers whose
commit failed are ejected — readmission replays the log
(:meth:`~repro.fleet.gateway.FleetGateway._admit_worker`), restoring
agreement.  The whole flow runs under the gateway's swap lock, which
worker admission also takes: a worker can never enter rotation
between prepare and commit (it would miss the flip).
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import TYPE_CHECKING

from repro.client.errors import BackendError
from repro.service.shapes import FLEET_APPLY_REPLY, FLEET_SWAP
from repro.service.shapes import error_payload as _error

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from repro.fleet.gateway import FleetGateway, WorkerState

__all__ = ["FleetSwapCoordinator"]


class FleetSwapCoordinator:
    """Drives the two-phase swap over one gateway's worker fleet."""

    def __init__(self, gateway: "FleetGateway") -> None:
        self._gw = gateway

    async def coordinate(self, dataset: str, body: dict) -> tuple:
        """Apply one ``mode=apply`` delay body fleet-wide; returns the
        gateway's ``(status, payload, extra headers)`` response.  The
        response is a single worker's apply acknowledgement plus a
        ``fleet`` section describing the coordination
        (:data:`~repro.service.shapes.FLEET_APPLY_REPLY`): the SDK
        decodes it as the worker's."""
        gw = self._gw
        path = f"/v1/datasets/{dataset}/delays"
        async with gw._swap_lock:
            targets = [
                st
                for st in gw._workers.values()
                if st.state == "healthy" and dataset in st.datasets
            ]
            if not targets:
                # Unknown dataset or empty fleet: pass one worker's own
                # answer through when possible (bitwise error parity).
                st = gw._pick(dataset, set())
                if st is None:
                    gw.metrics.no_worker_total += 1
                    return 503, _error(
                        "no_healthy_workers",
                        f"no healthy worker serves dataset {dataset!r}",
                        retriable=True,
                    ), gw._retry_after_header()
                return await self._passthrough(st, path, body)
            t0 = time.perf_counter()

            # Phase 1: replan everywhere, in parallel, while serving.
            prepare_body = json.dumps({**body, "mode": "prepare"}).encode(
                "utf-8"
            )
            tokens, failure = await self._prepare_all(
                targets, path, prepare_body
            )
            if failure is not None:
                await self._abort_all(path, tokens)
                return failure
            replan_seconds = max(
                payload.get("replan_seconds", 0.0)
                for payload in tokens.values()
            )

            # Phase 2: pause the dataset's routing, drain, commit.
            gate = gw._gate(dataset)
            gate.clear()
            pause_t0 = time.perf_counter()
            try:
                if not await self._drain(dataset):
                    await self._abort_all(path, tokens)
                    return 503, _error(
                        "swap_drain_timeout",
                        f"in-flight queries on {dataset!r} did not drain "
                        f"within {gw.swap_drain_timeout:g}s; swap aborted",
                        retriable=True,
                    ), gw._retry_after_header()
                committed, failed = await self._commit_all(
                    path, {st: payload["token"] for st, payload in tokens.items()}
                )
            finally:
                gate.set()
            pause_seconds = time.perf_counter() - pause_t0

            if not committed:
                # No worker flipped: the fleet is still uniformly on
                # the old generation — safe to report failure.
                return 502, _error(
                    "swap_commit_failed",
                    f"no worker committed the prepared swap on "
                    f"{dataset!r}; the fleet is unchanged",
                    retriable=True,
                ), gw._retry_after_header()

            # The fleet moved.  Record the batch (restarted/failed
            # workers replay it before readmission) and eject workers
            # that did not make the flip.
            replay = dict(body)
            replay.pop("mode", None)
            gw._delay_log.setdefault(dataset, []).append(
                json.dumps(replay).encode("utf-8")
            )
            for st, reason in failed:
                gw._eject(st, reason=f"swap commit failed: {reason}")

            generation = len(gw._delay_log[dataset])
            swap_seconds = 0.0
            for st, payload in committed:
                st.generations[dataset] = payload.get("generation", generation)
                swap_seconds = max(
                    swap_seconds, payload.get("swap_seconds", 0.0)
                )
            total = time.perf_counter() - t0
            gw.metrics.observe_swap(
                dataset,
                total,
                pause_seconds,
                incremental=body.get("replan") == "incremental",
            )
            return 200, FLEET_APPLY_REPLY.write(
                dataset,
                generation,
                len(body.get("delays") or []),
                body.get("slack_per_leg", 0),
                swap_seconds,
                FLEET_SWAP.write(
                    sorted(st.name for st, _ in committed),
                    sorted(st.name for st, _ in failed),
                    replan_seconds,
                    pause_seconds,
                    total,
                ),
            )

    # -- phases ----------------------------------------------------------

    async def _prepare_all(
        self, targets: list["WorkerState"], path: str, prepare_body: bytes
    ) -> tuple[dict, tuple | None]:
        """Concurrent prepares.  Returns ``(ok_payloads_by_state,
        failure_response_or_None)``; on failure the caller aborts the
        survivors."""
        gw = self._gw
        results = await asyncio.gather(
            *(
                gw._forward(
                    st, "POST", path, prepare_body,
                    idempotent=False, control=True,
                )
                for st in targets
            ),
            return_exceptions=True,
        )
        tokens: dict = {}
        client_error: tuple | None = None
        transport_failures = 0
        for st, result in zip(targets, results):
            if isinstance(result, BaseException):
                if not isinstance(result, BackendError):
                    raise result
                gw._eject(st, reason=f"prepare failed: {result}")
                transport_failures += 1
                continue
            status, _, raw = result
            if status != 200:
                # A real worker answer (400 unknown train, 409 pending
                # out-of-band prepare, ...) — every worker validates
                # identically, so the first one speaks for the fleet.
                if client_error is None:
                    client_error = (status, raw, {})
                continue
            tokens[st] = json.loads(raw)
        if client_error is not None:
            return tokens, client_error
        if transport_failures or len(tokens) != len(targets):
            return tokens, (
                502,
                _error(
                    "swap_prepare_failed",
                    f"{transport_failures} worker(s) failed during "
                    f"prepare; swap aborted, fleet unchanged",
                    retriable=True,
                ),
                gw._retry_after_header(),
            )
        return tokens, None

    async def _abort_all(self, path: str, tokens: dict) -> None:
        """Best-effort ``mode=abort`` on every prepared worker; abort
        is idempotent server-side, and a worker that misses it clears
        the pending replan on its next apply anyway."""
        gw = self._gw

        async def _abort(st, token) -> None:
            body = json.dumps({"mode": "abort", "token": token}).encode()
            try:
                await gw._forward(
                    st, "POST", path, body, idempotent=False, control=True
                )
            except BackendError:
                pass

        await asyncio.gather(
            *(
                _abort(st, payload["token"])
                for st, payload in tokens.items()
            ),
            return_exceptions=True,
        )

    async def _drain(self, dataset: str) -> bool:
        """Wait for the dataset's in-flight forwards to finish (the
        gate is already closed, so none can join).  False on timeout."""
        gw = self._gw
        loop = asyncio.get_running_loop()
        deadline = loop.time() + gw.swap_drain_timeout
        while gw._dataset_inflight.get(dataset, 0) > 0:
            if loop.time() > deadline:
                return False
            await asyncio.sleep(0.002)
        return True

    async def _commit_all(
        self, path: str, tokens: dict
    ) -> tuple[list, list]:
        """Concurrent commits; returns ``(committed, failed)`` as
        ``(state, payload)`` / ``(state, reason)`` pairs."""
        gw = self._gw
        states = list(tokens)
        results = await asyncio.gather(
            *(
                gw._forward(
                    st,
                    "POST",
                    path,
                    json.dumps(
                        {"mode": "commit", "token": tokens[st]}
                    ).encode("utf-8"),
                    idempotent=False,
                    control=True,
                )
                for st in states
            ),
            return_exceptions=True,
        )
        committed: list = []
        failed: list = []
        for st, result in zip(states, results):
            if isinstance(result, BaseException):
                if not isinstance(result, BackendError):
                    raise result
                failed.append((st, str(result)))
                continue
            status, _, raw = result
            if status != 200:
                failed.append((st, f"status {status}: {raw[:200]!r}"))
                continue
            committed.append((st, json.loads(raw)))
        return committed, failed

    async def _passthrough(
        self, st: "WorkerState", path: str, body: dict
    ) -> tuple:
        gw = self._gw
        try:
            status, headers, raw = await gw._forward(
                st,
                "POST",
                path,
                json.dumps(body).encode("utf-8"),
                idempotent=False,
                control=True,
            )
        except BackendError as exc:
            gw._eject(st, reason=f"{type(exc).__name__}: {exc}")
            return 502, _error(
                "upstream_failed", str(exc), retriable=True
            ), gw._retry_after_header()
        extra: dict = {}
        retry_after = headers.get("retry-after")
        if retry_after is not None:
            extra["Retry-After"] = retry_after
        return status, raw, extra
