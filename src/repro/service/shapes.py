"""The request-shape table: every served query shape, declared once.

A *shape* is one kind of question the stack answers — the one-to-all
profile search (paper §3), the station-to-station journey (§4), the
batched workload and the multi-criteria family (§6).  Each row of
:data:`SHAPES` is everything the serving layers need to know about
one, and their per-shape code is derived from it: the wire parser and
encoder (:mod:`repro.server.protocol`), the renderer and the decoder —
from the *same* response list as the encoder — (:mod:`repro.client.wire`,
:mod:`repro.client.results`), and the routes of the server and the
fleet gateway.  :func:`as_request` is the one normaliser of the
convenience call forms the facade and every backend accept.

``profile`` (answer restricted by the wire-only ``targets``) and
``batch`` (a composite) are irregular: ``response=None``, and their
codecs stay hand-written, registered under the shape's name beside the
derived ones.  This module imports only :mod:`repro.service.model`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.service.model import (
    DEFAULT_MAX_TRANSFERS,
    BatchRequest,
    JourneyRequest,
    MinTransfersRequest,
    MulticriteriaRequest,
    ProfileRequest,
    ViaRequest,
)

#: Cap on wire-requested per-query cores: ``num_threads`` sizes the
#: connection partitioning (allocations scale with it), so an
#: unauthenticated request must not be able to ask for millions.
MAX_NUM_THREADS = 64

#: Cap on wire-requested transfer budgets: the multi-criteria label
#: volume scales linearly with ``max_transfers + 1`` layers, so an
#: unauthenticated request must not be able to ask for thousands.
MAX_MC_TRANSFERS = 16


class RequestField(NamedTuple):
    """One integer field of a request, as the wire schema validates it
    (a tuple, so the per-request parser unpacks it without attribute
    look-ups).  ``kind`` is ``"station"`` — bounded by
    ``[0, num_stations)`` at parse time — or ``"int"``, bounded by
    ``[lo, hi)`` with either end optional.  A field neither ``required``
    nor with a ``default`` is omitted from the wire when ``None``."""

    name: str
    kind: str
    required: bool = False
    default: int | None = None
    lo: int | None = None
    hi: int | None = None


@dataclass(frozen=True, slots=True)
class Shape:
    """One served request shape (see module docstring)."""

    #: Facade / SDK method name, and the response's wire ``"kind"``.
    name: str
    #: Last URL segment: ``POST /v1/{dataset}/<route>``.
    route: str
    #: The typed request dataclass; built positionally in field order.
    request: type
    fields: tuple[RequestField, ...]
    #: ``(name, wire kind)`` per answer field, in wire order; the kinds
    #: are ``plain``, ``int``, ``optional_int``, ``points``, ``legs``,
    #: ``options`` and ``stats``.  ``None`` marks a hand-written codec.
    response: tuple[tuple[str, str], ...] | None
    #: Name of the answer dataclass in :mod:`repro.client.results`.
    answer: str
    #: Builds the request from the raw call form, if not ``request``.
    from_raw: Callable[..., Any] | None = None


def _station(name: str) -> RequestField:
    return RequestField(name, "station", required=True, lo=0)


_SOURCE, _VIA, _TARGET = _station("source"), _station("via"), _station("target")
_DEPARTURE = RequestField("departure", "int", required=True, lo=0)
_MAX_TRANSFERS = RequestField(
    "max_transfers",
    "int",
    default=DEFAULT_MAX_TRANSFERS,
    lo=0,
    hi=MAX_MC_TRANSFERS + 1,
)
_LEGS_AND_STATS = (("legs", "legs"), ("stats", "stats"))


def _plain(*names: str) -> tuple[tuple[str, str], ...]:
    return tuple((name, "plain") for name in names)


PROFILE = Shape(
    name="profile",
    route="profile",
    request=ProfileRequest,
    fields=(
        _SOURCE,
        RequestField("num_threads", "int", lo=1, hi=MAX_NUM_THREADS + 1),
    ),
    response=None,
    answer="ProfileAnswer",
)

JOURNEY = Shape(
    name="journey",
    route="journey",
    request=JourneyRequest,
    fields=(_SOURCE, _TARGET, RequestField("departure", "int", lo=0)),
    response=(
        *_plain("source", "target", "reachable"),
        ("profile", "points"),
        ("departure", "plain"),
        ("arrival", "optional_int"),
        *_LEGS_AND_STATS,
    ),
    answer="JourneyAnswer",
)

BATCH = Shape(
    name="batch",
    route="batch",
    request=BatchRequest,
    fields=(),
    response=None,
    answer="BatchAnswer",
    from_raw=BatchRequest.from_pairs,
)

MULTICRITERIA = Shape(
    name="multicriteria",
    route="multicriteria",
    request=MulticriteriaRequest,
    fields=(_SOURCE, _TARGET, _DEPARTURE, _MAX_TRANSFERS),
    response=(
        *_plain("source", "target", "departure", "max_transfers", "reachable"),
        ("options", "options"),
        *_LEGS_AND_STATS,
    ),
    answer="MulticriteriaAnswer",
)

VIA = Shape(
    name="via",
    route="via",
    request=ViaRequest,
    fields=(_SOURCE, _VIA, _TARGET, _DEPARTURE),
    response=(
        *_plain("source", "via", "target", "departure"),
        ("via_arrival", "int"),
        ("arrival", "int"),
        ("reachable", "plain"),
        *_LEGS_AND_STATS,
    ),
    answer="ViaAnswer",
)

MIN_TRANSFERS = Shape(
    name="min_transfers",
    route="min-transfers",
    request=MinTransfersRequest,
    fields=(_SOURCE, _TARGET, _DEPARTURE, _MAX_TRANSFERS),
    response=(
        *_plain("source", "target", "departure", "max_transfers", "reachable"),
        ("transfers", "optional_int"),
        ("arrival", "int"),
        *_LEGS_AND_STATS,
    ),
    answer="MinTransfersAnswer",
)

#: The table (``docs/SERVER.md``, "Adding a request shape").
SHAPES = (PROFILE, JOURNEY, BATCH, MULTICRITERIA, VIA, MIN_TRANSFERS)
#: The shapes whose wire codecs are derived from their field lists.
DERIVED_SHAPES = tuple(s for s in SHAPES if s.response is not None)
BY_ROUTE = {shape.route: shape for shape in SHAPES}


def _usage(shape: Shape) -> str:
    required = [f for f in shape.fields[1:] if f.required]
    signature = ", ".join(
        [shape.fields[0].name]
        + [f.name if f.kind == "station" else f"{f.name}=..." for f in required]
    )
    *head, last = [f"a {f.name}" for f in required]
    listed = f"{', '.join(head)} and {last}" if head else last
    return f"{shape.name}({signature}) needs {listed}"


def as_request(shape: Shape, request: Any, *positional: Any, **keyword: Any) -> Any:
    """Normalise a call's convenience form into ``shape``'s typed
    request: a request instance passes through; otherwise ``request``
    is the first field's raw value (or, for ``batch``, raw pairs) and
    ``positional`` / ``keyword`` supply the remaining fields in field
    order.  ``None`` means "not given"; a missing required field is a
    ``TypeError`` naming the call form."""
    if isinstance(request, shape.request):
        return request
    given = {f.name: v for f, v in zip(shape.fields[1:], positional)}
    given.update(keyword)
    if any(f.required and given.get(f.name) is None for f in shape.fields[1:]):
        raise TypeError(_usage(shape))
    build = shape.from_raw or shape.request
    return build(request, **{k: v for k, v in given.items() if v is not None})

