"""`TransitBackend` — one query API over any transport — and its
in-process implementation, :class:`LocalBackend`.

A backend answers the entrypoints of the serving surface — the six
query shapes (``profile``, ``journey``, ``batch``, ``multicriteria``,
``via``, ``min_transfers``) plus ``journey_many``, the streaming
``iter_batch``, ``apply_delays`` and ``info`` — over the service
layer's typed requests (:class:`~repro.service.model.ProfileRequest`,
:class:`~repro.service.model.JourneyRequest`,
:class:`~repro.service.model.BatchRequest`,
:class:`~repro.service.model.MulticriteriaRequest`,
:class:`~repro.service.model.ViaRequest`,
:class:`~repro.service.model.MinTransfersRequest`).  Programs written against
the protocol run unchanged on an in-process dataset
(:class:`LocalBackend`) or a remote server
(:class:`~repro.client.http.HttpBackend`) — with **bitwise-identical
answers** (``tests/client/test_transport_parity.py``).

The parity is structural, not coincidental: :class:`LocalBackend`
pushes every request through the *server's own wire layer* in-process
— :mod:`repro.client.wire` renders the typed request as the wire
object, :mod:`repro.server.protocol`'s parsers validate it (same typed
errors, same codes), the facade answers, the declared payload's encoder
renders the answer, and :mod:`repro.client.results` decodes it — exactly the
pipeline a remote request traverses, minus the socket.  What the
transports can differ in is latency and transport-level failures,
never content.
"""

from __future__ import annotations

import time
from pathlib import Path
from threading import Lock
from typing import Any, Iterator, Protocol, Sequence, runtime_checkable

from repro.client import wire
from repro.client.errors import TransportError, error_from_payload
from repro.client.results import (
    BatchAnswer,
    DatasetInfo,
    DelayUpdate,
    JourneyAnswer,
    MinTransfersResult,
    MulticriteriaResult,
    ProfileAnswer,
    ViaResult,
    decode,
    decode_answer,
)
from repro.server.protocol import (
    ProtocolError,
    open_request,
    parse_delay_request,
)
from repro.service.facade import TransitService
from repro.service.model import (
    DEFAULT_MAX_TRANSFERS,
    BatchRequest,
    JourneyRequest,
    MinTransfersRequest,
    MulticriteriaRequest,
    ProfileRequest,
    ViaRequest,
)
from repro.service.shapes import (
    APPLY_REPLY,
    BATCH,
    DATASET,
    JOURNEY,
    MIN_TRANSFERS,
    MULTICRITERIA,
    PROFILE,
    VIA,
    Shape,
    as_request,
    error_payload,
)
from repro.timetable.delays import Delay


@runtime_checkable
class TransitBackend(Protocol):
    """The transport-agnostic query surface (see module docstring).

    Implementations: :class:`LocalBackend` (in-process),
    :class:`~repro.client.http.HttpBackend` (remote).  Pick one with
    :func:`repro.client.connect`.

    The typed query methods live here, once: each normalises its
    convenience form, renders the wire object, hands it to the
    transport's single :meth:`_exchange` hook and decodes the wire
    answer — so both transports share the whole call path but the
    socket.
    """

    # -- the transport hook ----------------------------------------------

    def _exchange(self, shape: Shape, body: dict) -> dict:
        """Answer one wire request of ``shape`` with its wire payload
        (or raise the typed :mod:`repro.client.errors` exception)."""
        ...

    def _ask(self, shape: Shape, request: Any, *rest: Any, **wire_only: Any) -> Any:
        """One query: normalise the call form, render it (plus any
        wire-only field, like ``profile``'s ``targets``), exchange,
        decode."""
        typed = as_request(shape, request, *rest)
        payload = self._exchange(shape, wire.render(shape, typed, **wire_only))
        try:
            return decode_answer(shape, payload)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            # A 200 whose body is JSON but not this shape's answer (a
            # proxy's page, a truncated or foreign payload): surfaced
            # like any other unreadable response, never as a raw
            # KeyError from the decoder.
            raise TransportError(
                "invalid_response",
                f"{shape.name} answer does not match the wire schema: "
                f"{type(exc).__name__}: {exc}",
            ) from None

    # -- query shapes ----------------------------------------------------

    def profile(
        self,
        request: ProfileRequest | int,
        *,
        targets: Sequence[int] | None = None,
    ) -> ProfileAnswer:
        return self._ask(PROFILE, request, targets=targets)

    def journey(
        self,
        request: JourneyRequest | int,
        target: int | None = None,
        *,
        departure: int | None = None,
    ) -> JourneyAnswer:
        return self._ask(JOURNEY, request, target, departure)

    def journey_many(
        self, requests: Sequence[JourneyRequest]
    ) -> list[JourneyAnswer]:
        """Many journeys in one engine pass / round trip: one
        ``batch`` request on every transport, so they share cache
        behaviour as well as answers."""
        answer = self.batch(BatchRequest(journeys=tuple(requests)))
        return list(answer.journeys)

    def batch(
        self, request: BatchRequest | Sequence[tuple[int, int]]
    ) -> BatchAnswer:
        return self._ask(BATCH, request)

    def multicriteria(
        self,
        request: MulticriteriaRequest | int,
        target: int | None = None,
        *,
        departure: int | None = None,
        max_transfers: int = DEFAULT_MAX_TRANSFERS,
    ) -> MulticriteriaResult:
        return self._ask(MULTICRITERIA, request, target, departure, max_transfers)

    def via(
        self,
        request: ViaRequest | int,
        via: int | None = None,
        target: int | None = None,
        *,
        departure: int | None = None,
    ) -> ViaResult:
        return self._ask(VIA, request, via, target, departure)

    def min_transfers(
        self,
        request: MinTransfersRequest | int,
        target: int | None = None,
        *,
        departure: int | None = None,
        max_transfers: int = DEFAULT_MAX_TRANSFERS,
    ) -> MinTransfersResult:
        return self._ask(MIN_TRANSFERS, request, target, departure, max_transfers)

    def iter_batch(
        self, request: BatchRequest | Sequence[tuple[int, int]]
    ) -> Iterator[JourneyAnswer | ProfileAnswer]:
        """Stream a batch: one request per item, yielding each answer
        as it completes instead of materializing a
        :class:`BatchAnswer` (submission order, journeys before
        profiles) — constant client memory however large the batch,
        and the same per-item execution on every transport."""
        req = as_request(BATCH, request)
        for journey in req.journeys:
            yield self.journey(journey)
        for profile in req.profiles:
            yield self.profile(profile)

    # -- delays, metadata, lifecycle (per transport) ----------------------

    def apply_delays(
        self,
        delays: Sequence[Delay],
        *,
        slack_per_leg: int = 0,
        replan: str = "full",
    ) -> DelayUpdate: ...

    def info(self) -> DatasetInfo: ...

    def close(self) -> None: ...


class LocalBackend(TransitBackend):
    """A backend over one in-process :class:`TransitService`.

    Construct it over a live service, or over an artifact-store path —
    the store is then opened **lazily** on first use, so building a
    backend is free and a bad path surfaces where the first query
    would (as :class:`repro.store.StoreError`, exactly like
    ``TransitService.load``).

    Thread-safe the same way the server is: queries pin the current
    service reference at entry, :meth:`apply_delays` replans and swaps
    that reference under a lock (concurrent swaps serialize, in-flight
    queries drain against the generation they pinned).
    """

    def __init__(
        self,
        source: TransitService | str | Path,
        *,
        name: str | None = None,
        config=None,
    ) -> None:
        self._swap_lock = Lock()
        self._generation = 0
        if isinstance(source, TransitService):
            self._service: TransitService | None = source
            self._store: Path | None = None
            self._config = None
            self.source = "memory"
            self.name = name or source.prepared.counts.name or "local"
        else:
            self._service = None
            self._store = Path(source)
            self._config = config
            self.source = str(source)
            self.name = name or self._store.name or "local"

    # -- lifecycle ------------------------------------------------------

    @property
    def service(self) -> TransitService:
        """The current service, warm-starting from the store on first
        access when the backend was built over a path."""
        service = self._service
        if service is None:
            with self._swap_lock:
                if self._service is None:
                    self._service = TransitService.load(
                        self._store, config=self._config
                    )
                service = self._service
        return service

    def close(self) -> None:
        """Release the service reference.  A path-built backend
        returns to its *stored* state: a later query reloads the
        pristine store, so the delay-generation counter resets with it
        (applied delays do not survive a close).  A service-built
        backend keeps its service untouched."""
        if self._store is not None:
            with self._swap_lock:
                self._service = None
                self._generation = 0

    def __enter__(self) -> "LocalBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the transport hook ----------------------------------------------

    def _exchange(self, shape: Shape, body: dict) -> dict:
        """The server's own pipeline minus the socket: wire parser →
        facade → wire encoder."""
        service = self.service
        request, encode = self._parse(
            open_request, shape, body, service.prepared.counts.stations
        )
        return encode(getattr(service, shape.name)(request))

    # -- delays and metadata ---------------------------------------------

    def apply_delays(
        self,
        delays: Sequence[Delay],
        *,
        slack_per_leg: int = 0,
        replan: str = "full",
    ) -> DelayUpdate:
        service = self.service
        body = wire.delays_body(delays, slack_per_leg, replan=replan)
        command = self._parse(
            parse_delay_request, body, service.prepared.counts.trains
        )
        parsed, slack = list(command.delays), command.slack_per_leg
        with self._swap_lock:
            old = self._service if self._service is not None else service
            t0 = time.perf_counter()
            try:
                new = old.apply_delays(
                    parsed, slack_per_leg=slack, mode=command.replan
                )
            except ValueError as exc:
                # The same mapping the server applies to domain
                # validation the wire layer cannot see (e.g. from_stop
                # past the train's run): a typed 400.
                raise error_from_payload(
                    400, error_payload("invalid_request", str(exc))
                ) from None
            elapsed = time.perf_counter() - t0
            self._service = new
            self._generation += 1
            generation = self._generation
        return decode(
            APPLY_REPLY,
            APPLY_REPLY.write(self.name, generation, len(parsed), slack, elapsed),
        )

    def info(self) -> DatasetInfo:
        """The dataset summary: a ``/v1/datasets`` entry, rendered as
        :meth:`repro.server.registry.DatasetEntry.describe` renders it."""
        return decode(
            DATASET,
            DATASET.fill(
                {
                    "name": self.name,
                    "source": self.source,
                    "generation": self._generation,
                    **self.service.describe(),
                }
            ),
        )

    # -- internals --------------------------------------------------------

    @staticmethod
    def _parse(parser, *args):
        """Run one of the server's wire parsers; a rejection raises the
        same typed exception the HTTP transport would surface."""
        try:
            return parser(*args)
        except ProtocolError as exc:
            raise error_from_payload(exc.status, exc.payload()) from None


def _looks_remote(target: str) -> bool:
    return target.startswith(("http://", "https://"))


def connect(
    target: TransitService | str | Path, **options
) -> "TransitBackend":
    """One constructor for both transports.

    ``http(s)://host:port[/dataset]`` builds an
    :class:`~repro.client.http.HttpBackend` (the trailing path segment
    names the dataset; omit it when the server serves exactly one);
    anything else is a store directory (or a live
    :class:`TransitService`) behind a :class:`LocalBackend`.  Keyword
    options go to the chosen constructor.
    """
    if isinstance(target, str) and _looks_remote(target):
        # Imported here: keeps LocalBackend importable without the
        # HTTP machinery and avoids a module cycle.
        from repro.client.http import HttpBackend

        return HttpBackend(target, **options)
    return LocalBackend(target, **options)


__all__ = [
    "BatchAnswer",
    "DatasetInfo",
    "DelayUpdate",
    "JourneyAnswer",
    "LocalBackend",
    "MinTransfersResult",
    "MulticriteriaResult",
    "ProfileAnswer",
    "TransitBackend",
    "ViaResult",
    "connect",
]
