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

Every renderer is derived from the wire table
(:mod:`repro.service.shapes`) — the same field lists the server's
parsers are derived from; ``profile`` adds its wire-only ``targets``
and ``batch`` renders its declared item lists.  The convenience call
forms every backend accepts (raw station ints, raw (source, target)
pairs) are normalised by :func:`repro.service.shapes.as_request`,
shared with the facade.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Sequence

from repro.service.model import BatchRequest, ProfileRequest
from repro.service.shapes import (
    BATCH,
    DELAY_ITEM,
    DELAY_REQUEST,
    DERIVED_SHAPES,
    PROFILE,
    RequestField,
    Shape,
)
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


_profile_fields = _derive_renderer(PROFILE)


def profile_body(
    request: ProfileRequest, targets: Sequence[int] | None = None
) -> dict:
    body = _profile_fields(request)
    if targets is not None:
        body["targets"] = [int(t) for t in targets]
    return body


def batch_body(request: BatchRequest) -> dict:
    return {
        name: [render(shape, item) for item in getattr(request, name)]
        for name, shape in BATCH.items
        if getattr(request, name)
    }


_RENDERERS: dict[str, Callable[..., dict]] = {
    "profile": profile_body,
    "batch": batch_body,
    **{shape.name: _derive_renderer(shape) for shape in DERIVED_SHAPES},
}

# The per-shape names stay importable: ``e2ebench/trace.py`` binds them.
journey_body = _RENDERERS["journey"]
multicriteria_body = _RENDERERS["multicriteria"]
via_body = _RENDERERS["via"]
min_transfers_body = _RENDERERS["min_transfers"]


def render(shape: Shape, request: object, **wire_only: object) -> dict:
    """The wire object of one typed ``shape`` request; ``wire_only``
    names fields the wire carries beside it (``profile``'s
    ``targets``)."""
    return _RENDERERS[shape.name](request, **wire_only)


def _without_defaults(fields: tuple[RequestField, ...], values: dict) -> dict:
    """``values`` in field order, each field equal to its declared
    default left out."""
    return {
        f.name: values[f.name]
        for f in fields
        if f.name in values and (f.required or values[f.name] != f.default)
    }


def delays_body(
    delays: Sequence[Delay],
    slack_per_leg: int = 0,
    replan: str = "full",
) -> dict:
    items = [
        _without_defaults(DELAY_ITEM, {f.name: getattr(d, f.name) for f in DELAY_ITEM})
        for d in delays
    ]
    return _without_defaults(
        DELAY_REQUEST,
        {"delays": items, "slack_per_leg": slack_per_leg, "replan": replan},
    )
