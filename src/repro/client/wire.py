"""Typed requests → wire objects (the client side of the protocol).

The inverse direction of :mod:`repro.server.protocol`'s parsers: each
function here renders one service-layer request as the JSON-safe wire
object the ``/v1`` endpoints accept.  Both backends use these —
:class:`~repro.client.http.HttpBackend` serializes the result over
TCP, :class:`~repro.client.backend.LocalBackend` feeds it straight to
the server's own parse functions in-process — so the two transports
see byte-for-byte the same request representation, which is half of
the bitwise-parity guarantee (the other half is decoding answers
through one decoder set, :mod:`repro.client.results`).

Optional fields are *omitted* rather than sent as ``null``: the wire
schema's strict validation rejects ``None`` where an integer is
expected, and omission is the protocol's way of saying "default".

The renderers of the regular shapes are derived from the shape table
(:mod:`repro.service.shapes`) — the same field lists the server's
parsers are derived from; ``profile`` (the wire-only ``targets``
field) and ``batch`` (a composite) keep hand-written ones.  The
convenience call forms every backend accepts (raw station ints, raw
(source, target) pairs) are normalised by
:func:`repro.service.shapes.as_request`, shared with the facade.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Sequence

from repro.service.model import BatchRequest, ProfileRequest
from repro.service.shapes import DERIVED_SHAPES, Shape
from repro.timetable.delays import Delay


def _derive_renderer(shape: Shape) -> Callable[[object], dict]:
    """The wire renderer of one table-declared shape: every request
    field in field order, ``None`` omitted."""
    names = tuple(f.name for f in shape.fields)
    read = attrgetter(*names)

    def render(request: object) -> dict:
        return {
            name: value
            for name, value in zip(names, read(request))
            if value is not None
        }

    render.__name__ = render.__qualname__ = f"{shape.name}_body"
    return render


def profile_body(
    request: ProfileRequest, targets: Sequence[int] | None = None
) -> dict:
    body: dict = {"source": request.source}
    if request.num_threads is not None:
        body["num_threads"] = request.num_threads
    if targets is not None:
        body["targets"] = [int(t) for t in targets]
    return body


def batch_body(request: BatchRequest) -> dict:
    body: dict = {}
    if request.journeys:
        body["journeys"] = [journey_body(j) for j in request.journeys]
    if request.profiles:
        body["profiles"] = [profile_body(p) for p in request.profiles]
    return body


_RENDERERS: dict[str, Callable[..., dict]] = {
    "profile": profile_body,
    "batch": batch_body,
    **{shape.name: _derive_renderer(shape) for shape in DERIVED_SHAPES},
}

journey_body = _RENDERERS["journey"]
multicriteria_body = _RENDERERS["multicriteria"]
via_body = _RENDERERS["via"]
min_transfers_body = _RENDERERS["min_transfers"]


def render(shape: Shape, request: object, **wire_only: object) -> dict:
    """The wire object of one typed ``shape`` request; ``wire_only``
    names fields the wire carries beside it (``profile``'s
    ``targets``)."""
    return _RENDERERS[shape.name](request, **wire_only)


def delays_body(
    delays: Sequence[Delay],
    slack_per_leg: int = 0,
    replan: str = "full",
) -> dict:
    items = []
    for delay in delays:
        item: dict = {"train": delay.train, "minutes": delay.minutes}
        if delay.from_stop:
            item["from_stop"] = delay.from_stop
        items.append(item)
    body: dict = {"delays": items}
    if slack_per_leg:
        body["slack_per_leg"] = slack_per_leg
    if replan != "full":
        body["replan"] = replan
    return body
