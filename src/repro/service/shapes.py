"""The wire table: every served query shape and every payload, declared once.

A *shape* is one kind of question the stack answers — the one-to-all
profile search (paper §3), the station-to-station journey (§4), the
batched workload and the multi-criteria family (§6).  Each row of
:data:`SHAPES` is everything the serving layers need to know about
one, and their per-shape code is derived from it: the wire parser
(:mod:`repro.server.protocol`), the renderer (:mod:`repro.client.wire`),
the routes of the server and the fleet gateway.  :func:`as_request` is
the one normaliser of the convenience call forms the facade and every
backend accept.

A :class:`Payload` is one JSON object on the wire: a shape's answer,
the ``stats`` blocks, a leg, a ``/v1/datasets`` entry, the four
``/delays`` replies.  Its fields are declared here in wire order; its
encoder is generated here (``Payload.write``, ``Payload.encode``) and
its decoder, from the same declaration, in
:mod:`repro.client.results` — so the two ends cannot disagree on a key.
Every ``"v"`` envelope and every error payload (:func:`error_payload`)
the server, the fleet and the SDK write comes from this module.
``profile`` (answer restricted by the wire-only ``targets``) and
``batch`` (a composite) add hand-written code only for what a
declaration cannot say.  This module imports only
:mod:`repro.service.model`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Mapping, NamedTuple

from repro.service.model import (
    DEFAULT_MAX_TRANSFERS,
    BatchRequest,
    JourneyRequest,
    MinTransfersRequest,
    MulticriteriaRequest,
    ProfileRequest,
    ViaRequest,
)

#: Bumped on any incompatible change to the wire schema (2: a batch's
#: stats no longer say where it ran).
PROTOCOL_VERSION = 2

#: Cap on wire-requested per-query cores: ``num_threads`` sizes the
#: connection partitioning (allocations scale with it), so an
#: unauthenticated request must not be able to ask for millions.
MAX_NUM_THREADS = 64

#: Cap on wire-requested transfer budgets: the multi-criteria label
#: volume scales linearly with ``max_transfers + 1`` layers, so an
#: unauthenticated request must not be able to ask for thousands.
MAX_MC_TRANSFERS = 16


# ---------------------------------------------------------------------------
# Payloads
# ---------------------------------------------------------------------------

#: How the server renders each wire kind of a payload's fields
#: (``None``: the value travels as it is — ``profiles``,
#: ``profile_answers`` and ``datasets`` arrive already rendered by the
#: hand-written part of their payload).  The inverse map is in
#: :mod:`repro.client.results`.
_ENCODE_KIND: dict[str, Callable[[Any], Any] | None] = {
    "plain": None,
    "const": None,
    "int": int,
    "optional_int": lambda value: None if value is None else int(value),
    "seconds": lambda value: round(float(value), 6),
    "points": lambda profile: list(map(list, profile.connection_points())),
    "options": lambda options: [
        [int(opt.transfers), int(opt.arrival)] for opt in options
    ],
    "legs": lambda legs: None if legs is None else list(map(LEG.encode, legs)),
    "stats": lambda stats: QUERY_STATS.encode(stats),
    "batch_stats": lambda stats: BATCH_STATS.encode(stats),
    "journeys": lambda journeys: list(map(ANSWERS["journey"].encode, journeys)),
    "profiles": None,
    "profile_answers": None,
    "datasets": None,
}


def _fields(spec: str) -> tuple[tuple[str, str], ...]:
    """``"a b:kind"`` → ``(("a", "plain"), ("b", "kind"))``."""
    return tuple(
        tuple(item.split(":")) if ":" in item else (item, "plain")
        for item in spec.split()
    )


class Payload:
    """One wire object, declared once.

    ``spec`` lists the fields in wire order, each ``name`` (``plain``)
    or ``name:kind`` (a key of :data:`_ENCODE_KIND`).  A ``const``
    field holds the value given for it by keyword (``kind="journey"``,
    ``mode="apply"``), which the decoder checks.  ``versioned``
    payloads carry ``"v"`` first.  ``decoded`` names the class of
    :mod:`repro.client.results` the client reads the payload into
    (``None``: a dict of the non-constant fields).
    """

    def __init__(
        self,
        name: str,
        spec: str,
        *,
        decoded: str | None = None,
        versioned: bool = True,
        **constants: object,
    ) -> None:
        self.name, self.spec, self.decoded = name, spec, decoded
        self.versioned, self.constants = versioned, constants
        #: ``(name, wire kind)`` per field, in wire order.
        self.fields = _fields(spec)
        #: The fields whose values the caller supplies, in wire order.
        self.names = tuple(n for n, kind in self.fields if kind != "const")
        #: ``write(*values)``: the wire object of the variable fields'
        #: values, given in wire order.
        self.write = self._compile(", ".join(self.names), "{}")
        #: ``encode(obj)``: the wire object of ``obj``, each variable
        #: field read off the attribute of its name.
        self.encode = self._compile("obj", "obj.{}")

    def _compile(self, args: str, value: str) -> Callable[..., dict]:
        """A function of ``args`` that returns the payload as one dict
        display, each variable field spelled by ``value`` (``{}``: the
        field's name) and rendered by its kind — generated from the
        declaration, as :mod:`dataclasses` generates ``__init__``, so
        it costs what a hand-written encoder costs."""
        renders: dict[str, Callable[[Any], Any]] = {}
        items = [f'"v": {PROTOCOL_VERSION}'] if self.versioned else []
        for name, kind in self.fields:
            spelled = (
                repr(self.constants[name]) if kind == "const" else value.format(name)
            )
            if _ENCODE_KIND[kind] is not None:
                renders[f"render_{name}"] = _ENCODE_KIND[kind]
                spelled = f"render_{name}({spelled})"
            items.append(f"{name!r}: {spelled}")
        return eval(f"lambda {args}: {{{', '.join(items)}}}", renders)

    def fill(self, values: Mapping[str, Any]) -> dict:
        """The wire object of ``values``: each variable field read off
        the key of its name (a missing one is a ``KeyError``)."""
        return self.write(*itemgetter(*self.names)(values))


#: Per-query accounting (:class:`~repro.service.model.QueryStats`).
QUERY_STATS = Payload(
    "stats",
    "kind kernel num_threads settled_connections simulated_seconds"
    " total_seconds classification table_prunes connection_stops cache_hit",
    decoded="QueryStats",
    versioned=False,
)
#: A batch's accounting (:class:`~repro.query.batch.BatchStats`).
BATCH_STATS = Payload(
    "batch stats",
    "num_queries kernel total_seconds",
    decoded="BatchStats",
    versioned=False,
)
#: One leg of an itinerary (:class:`~repro.service.model.JourneyLeg`).
LEG = Payload(
    "leg",
    "from_station to_station departure arrival",
    decoded="JourneyLeg",
    versioned=False,
)
#: One ``/v1/datasets`` entry: who serves it, then
#: :meth:`TransitService.describe`.
DATASET = Payload(
    "dataset",
    "name source generation timetable stations trains connections kernel"
    " has_distance_table",
    decoded="DatasetInfo",
    versioned=False,
)
#: The ``GET /v1/datasets`` document.
DATASETS = Payload("datasets", "datasets:datasets")

#: The reply of ``POST /v1/datasets/{name}/delays`` (its one mode,
#: ``DELAY_MODES`` in :mod:`repro.server.protocol`).
APPLY_REPLY = Payload(
    "apply",
    "dataset mode:const generation num_delays slack_per_leg"
    " swap_seconds:seconds",
    decoded="DelayUpdate",
    mode="apply",
)
#: The fleet gateway's ``apply`` reply: a worker's, plus how the swap
#: went across the fleet (:data:`FLEET_SWAP`).
FLEET_APPLY_REPLY = Payload("apply", f"{APPLY_REPLY.spec} fleet", mode="apply")
FLEET_SWAP = Payload(
    "fleet",
    "workers_committed workers_failed total_seconds:seconds",
    versioned=False,
)


def error_payload(
    code: str,
    message: str,
    *,
    field: str | None = None,
    retriable: bool = False,
) -> dict:
    """The one error payload of every front end and of the SDK's
    in-process errors::

        {"v": 2, "error": {"code": "...", "message": "...",
                           "field": ..., "retriable": true}}

    ``field`` names the offending request field when one can be
    singled out; ``retriable`` marks an answer worth asking again (the
    503s).  Either key is left out when it does not apply."""
    error: dict = {"code": code, "message": message}
    if field is not None:
        error["field"] = field
    if retriable:
        error["retriable"] = True
    return {"v": PROTOCOL_VERSION, "error": error}


def with_version(body: dict) -> dict:
    """``body`` behind the protocol version: what the SDK posts."""
    return {"v": PROTOCOL_VERSION, **body}


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


class RequestField(NamedTuple):
    """One field of a request, as the wire schema validates it (a
    tuple, so the per-request parser unpacks it without attribute
    look-ups).  ``kind`` is ``"station"`` or ``"train"`` — bounded by
    ``[0, num_stations)`` / ``[0, num_trains)`` at parse time — or
    ``"int"``, bounded by ``[lo, hi)`` with either end optional; the
    ``/delays`` request also has ``"items"`` (a list of
    :data:`DELAY_ITEM`) and ``"choice"`` (one name of a fixed set).
    A query field neither ``required`` nor with a ``default`` is
    omitted from the wire when ``None``; a ``/delays`` field is omitted
    when it equals its ``default``."""

    name: str
    kind: str
    required: bool = False
    default: Any = None
    lo: int | None = None
    hi: int | None = None


#: One delay of a ``/delays`` request
#: (:class:`~repro.timetable.delays.Delay`).
DELAY_ITEM = (
    RequestField("train", "train", required=True, lo=0),
    RequestField("minutes", "int", required=True, lo=0),
    RequestField("from_stop", "int", default=0, lo=0),
)
#: The ``/delays`` request (:func:`repro.server.protocol.
#: parse_delay_request`).  ``generations`` is for a fleet's catch-up
#: posts: the gateway refuses it from a client.
DELAY_REQUEST = (
    RequestField("delays", "items"),
    RequestField("slack_per_leg", "int", default=0, lo=0),
    RequestField("mode", "choice", default="apply"),
    RequestField("replan", "choice", default="full"),
    RequestField("generations", "int", default=1, lo=1),
)


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------


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
    #: The answer's fields after the envelope, as a :class:`Payload`
    #: spec (:data:`ANSWERS` holds the whole payload).
    response: str
    #: Name of the class in :mod:`repro.client.results` the answer is
    #: decoded into.
    answer: str
    #: Builds the request from the raw call form, if not ``request``.
    from_raw: Callable[..., Any] | None = None
    #: Fields the wire request carries beside the typed request.
    wire_only: tuple[str, ...] = ()
    #: A composite request's ``(field, item shape)`` lists.
    items: tuple[tuple[str, "Shape"], ...] = ()


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
_LEGS_AND_STATS = " legs:legs stats:stats"


PROFILE = Shape(
    name="profile",
    route="profile",
    request=ProfileRequest,
    fields=(
        _SOURCE,
        RequestField("num_threads", "int", lo=1, hi=MAX_NUM_THREADS + 1),
    ),
    response="source profiles:profiles stats:stats",
    answer="ProfileAnswer",
    wire_only=("targets",),
)

JOURNEY = Shape(
    name="journey",
    route="journey",
    request=JourneyRequest,
    fields=(_SOURCE, _TARGET, RequestField("departure", "int", lo=0)),
    response="source target reachable profile:points departure"
    " arrival:optional_int" + _LEGS_AND_STATS,
    answer="JourneyAnswer",
)

BATCH = Shape(
    name="batch",
    route="batch",
    request=BatchRequest,
    fields=(),
    response="journeys:journeys profiles:profile_answers stats:batch_stats",
    answer="BatchAnswer",
    from_raw=BatchRequest.from_pairs,
    items=(("journeys", JOURNEY), ("profiles", PROFILE)),
)

MULTICRITERIA = Shape(
    name="multicriteria",
    route="multicriteria",
    request=MulticriteriaRequest,
    fields=(_SOURCE, _TARGET, _DEPARTURE, _MAX_TRANSFERS),
    response="source target departure max_transfers reachable"
    " options:options" + _LEGS_AND_STATS,
    answer="MulticriteriaResult",
)

VIA = Shape(
    name="via",
    route="via",
    request=ViaRequest,
    fields=(_SOURCE, _VIA, _TARGET, _DEPARTURE),
    response="source via target departure via_arrival:int arrival:int"
    " reachable" + _LEGS_AND_STATS,
    answer="ViaResult",
)

MIN_TRANSFERS = Shape(
    name="min_transfers",
    route="min-transfers",
    request=MinTransfersRequest,
    fields=(_SOURCE, _TARGET, _DEPARTURE, _MAX_TRANSFERS),
    response="source target departure max_transfers reachable"
    " transfers:optional_int arrival:int" + _LEGS_AND_STATS,
    answer="MinTransfersResult",
)

#: The table (``docs/SERVER.md``, "Adding a request shape").
SHAPES = (PROFILE, JOURNEY, BATCH, MULTICRITERIA, VIA, MIN_TRANSFERS)
#: The shapes whose every codec is derived; ``profile`` (the
#: ``targets`` restriction) and ``batch`` (a composite) add
#: hand-written parts in :mod:`repro.server.protocol` and
#: :mod:`repro.client.wire`.
DERIVED_SHAPES = (JOURNEY, MULTICRITERIA, VIA, MIN_TRANSFERS)
BY_ROUTE = {shape.route: shape for shape in SHAPES}
#: Per shape name, its answer payload: the envelope (``"v"``, then
#: ``"kind"`` = the shape's name), then the shape's ``response``.
ANSWERS = {
    shape.name: Payload(
        shape.name,
        f"kind:const {shape.response}",
        decoded=shape.answer,
        kind=shape.name,
    )
    for shape in SHAPES
}
#: Every declared response payload, answers first.
PAYLOADS = (
    *ANSWERS.values(), QUERY_STATS, BATCH_STATS, LEG, DATASET, DATASETS,
    APPLY_REPLY, FLEET_APPLY_REPLY, FLEET_SWAP,
)


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
