"""Versioned JSON wire schema of the query server.

Every request and response body is one JSON object carrying the
protocol version under ``"v"`` (:data:`PROTOCOL_VERSION`; requests may
omit it and get the current version, an explicit mismatch is
rejected).  Request objects map one-to-one onto the service layer's
typed requests; which fields each carries, with which bounds, and
which fields each answer carries is declared once, in the shape table
(:data:`repro.service.shapes.SHAPES`).  The parsers and encoders of the
regular shapes are *derived* from that table here; ``profile``
(response restricted by ``targets``) and ``batch`` (a composite) keep
hand-written ones, as does the mode-dependent ``/delays`` endpoint.

Validation is strict: unknown fields, wrong types, and out-of-range
stations/trains are rejected with a typed :class:`ProtocolError`
before any search runs.  Errors serialize to a uniform payload::

    {"v": 2, "error": {"code": "...", "message": "...", "field": ...}}

and carry the HTTP status the server should answer with.  Encoding is
deterministic — all payload numbers are plain ints (minutes since
midnight for times, :data:`~repro.functions.piecewise.INF_TIME` for
unreachable) — which is what lets the end-to-end tests pin server
answers bitwise-identical to direct :class:`TransitService` calls
(``tests/server/test_server_e2e.py``).

Everything here is pure: no I/O, no asyncio — the module is equally
usable by the server, by clients, and by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Sequence

from repro.query.batch import BatchStats
from repro.service.model import (
    BatchRequest,
    BatchResponse,
    ProfileRequest,
    ProfileResult,
    QueryStats,
)
from repro.service.shapes import (  # the MAX_* caps are re-exported
    DERIVED_SHAPES,
    JOURNEY,
    MAX_MC_TRANSFERS,  # noqa: F401
    MAX_NUM_THREADS,  # noqa: F401
    PROFILE,
    SHAPES,
    RequestField,
    Shape,
)
from repro.timetable.delays import Delay

#: Bumped on any incompatible change to the wire schema (2: a batch's
#: stats no longer say where it ran).
PROTOCOL_VERSION = 2


class ProtocolError(Exception):
    """A request the wire schema rejects, with its HTTP status.

    ``code`` is a stable machine-readable identifier (clients branch on
    it; the exact ``message`` text is not contractual), ``field`` names
    the offending request field when one can be singled out.
    """

    def __init__(
        self,
        code: str,
        message: str,
        *,
        field: str | None = None,
        status: int = 400,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.field = field
        self.status = status

    def payload(self) -> dict:
        error: dict = {"code": self.code, "message": self.message}
        if self.field is not None:
            error["field"] = self.field
        return {"v": PROTOCOL_VERSION, "error": error}


# ---------------------------------------------------------------------------
# Validation primitives
# ---------------------------------------------------------------------------


def _require_object(body: object, *, what: str = "request body") -> dict:
    if not isinstance(body, dict):
        raise ProtocolError(
            "invalid_request",
            f"{what} must be a JSON object, got {type(body).__name__}",
        )
    return body


def _check_version(body: dict) -> None:
    version = body.get("v", PROTOCOL_VERSION)
    if not isinstance(version, int) or isinstance(version, bool):
        raise ProtocolError(
            "invalid_request", "protocol version must be an integer", field="v"
        )
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "unsupported_version",
            f"protocol version {version} is not supported "
            f"(this server speaks version {PROTOCOL_VERSION})",
            field="v",
        )


def _reject_unknown(obj: dict, allowed: frozenset[str], *, where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ProtocolError(
            "unknown_field",
            f"unknown field(s) {unknown} in {where} "
            f"(allowed: {sorted(allowed)})",
            field=unknown[0],
        )


def _int_field(
    obj: dict,
    name: str,
    where: str,
    required: bool = False,
    default: int | None = None,
    lo: int | None = None,
    hi: int | None = None,
) -> int | None:
    if name not in obj:
        if required:
            raise ProtocolError(
                "missing_field", f"{where} needs {name!r}", field=name
            )
        return default
    value = obj[name]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(
            "invalid_type",
            f"{where}.{name} must be an integer, "
            f"got {type(value).__name__}",
            field=name,
        )
    if lo is not None and value < lo:
        raise ProtocolError(
            "out_of_range", f"{where}.{name} must be >= {lo}, got {value}",
            field=name,
        )
    if hi is not None and value >= hi:
        raise ProtocolError(
            "out_of_range",
            f"{where}.{name} must be < {hi}, got {value}",
            field=name,
        )
    return value


def _parse_fields(
    obj: dict, fields: tuple[RequestField, ...], num_stations: int, *, where: str
) -> list[int | None]:
    """Validate ``obj`` against a shape's field table; values in field
    order (station fields are bounded by ``num_stations``)."""
    return [
        _int_field(
            obj,
            name,
            where,
            required,
            default,
            lo,
            num_stations if kind == "station" else hi,
        )
        for name, kind, required, default, lo, hi in fields
    ]


#: Per shape name, the field names a request object may carry.
_ALLOWED = {
    shape.name: frozenset(f.name for f in shape.fields) for shape in SHAPES
}


def _derive_parser(shape: Shape) -> Callable[[object, int], Any]:
    """The strict parser of one table-declared shape."""
    build, fields, where = shape.request, shape.fields, shape.route
    allowed, what = _ALLOWED[shape.name] | {"v"}, f"{where} request"

    def parse(body: object, num_stations: int) -> Any:
        obj = _require_object(body)
        _check_version(obj)
        _reject_unknown(obj, allowed, where=what)
        return build(*_parse_fields(obj, fields, num_stations, where=where))

    parse.__name__ = parse.__qualname__ = f"parse_{shape.name}_request"
    return parse


# ---------------------------------------------------------------------------
# Request parsing
# ---------------------------------------------------------------------------

_PROFILE_FIELDS = frozenset({"v", "source", "num_threads", "targets"})
_BATCH_FIELDS = frozenset({"v", "journeys", "profiles"})
_DELAY_FIELDS = frozenset(
    {"v", "delays", "slack_per_leg", "mode", "token", "replan", "generations"}
)
_DELAY_ITEM_FIELDS = frozenset({"train", "minutes", "from_stop"})

#: Hot-swap phases on ``POST /v1/datasets/{name}/delays``.  ``apply``
#: (the default, and the whole protocol before two-phase swaps)
#: replans and swaps in one request.  ``prepare`` replans but keeps
#: serving the old timetable, answering with a ``token``; ``commit``
#: atomically swaps a prepared replan in; ``abort`` discards it.  The
#: fleet gateway drives prepare-on-all → commit-on-all so no client
#: ever observes a mixed old/new answer across workers
#: (``docs/FLEET.md``).
DELAY_MODES = ("apply", "prepare", "commit", "abort")

#: How the worker re-derives travel-time artifacts for a batch.
#: ``full`` (the default and the oracle) cold-rebuilds graph, arrays
#: and table; ``incremental`` delta-replans only what the batch touches
#: (:func:`repro.service.prepare.replan_dataset`) — bitwise-identical
#: answers, much cheaper for small batches (``docs/STREAMS.md``).
DELAY_REPLAN_MODES = ("full", "incremental")


def parse_profile_request(
    body: object, num_stations: int
) -> tuple[ProfileRequest, tuple[int, ...] | None]:
    """Parse a one-to-all request.  Returns the service request plus
    the optional response restriction: ``targets`` limits which
    stations the response encodes profiles for (the search itself is
    always one-to-all)."""
    obj = _require_object(body)
    _check_version(obj)
    _reject_unknown(obj, _PROFILE_FIELDS, where="profile request")
    request = ProfileRequest(
        *_parse_fields(obj, PROFILE.fields, num_stations, where="profile")
    )
    targets: tuple[int, ...] | None = None
    if "targets" in obj:
        raw = obj["targets"]
        if not isinstance(raw, list) or not raw:
            raise ProtocolError(
                "invalid_type",
                "profile.targets must be a non-empty list of stations",
                field="targets",
            )
        checked: list[int] = []
        for i, t in enumerate(raw):
            if not isinstance(t, int) or isinstance(t, bool):
                raise ProtocolError(
                    "invalid_type",
                    f"profile.targets[{i}] must be an integer",
                    field="targets",
                )
            if not 0 <= t < num_stations:
                raise ProtocolError(
                    "out_of_range",
                    f"profile.targets[{i}] must be within "
                    f"[0, {num_stations}), got {t}",
                    field="targets",
                )
            checked.append(t)
        targets = tuple(checked)
    return request, targets


def parse_batch_request(body: object, num_stations: int) -> BatchRequest:
    obj = _require_object(body)
    _check_version(obj)
    _reject_unknown(obj, _BATCH_FIELDS, where="batch request")
    journeys = _parse_items(obj, "journeys", JOURNEY, num_stations)
    profiles = _parse_items(obj, "profiles", PROFILE, num_stations)
    if not journeys and not profiles:
        raise ProtocolError(
            "invalid_request",
            "batch request needs at least one journey or profile",
        )
    return BatchRequest(journeys=journeys, profiles=profiles)


def _parse_items(
    obj: dict, name: str, shape: Shape, num_stations: int
) -> tuple:
    """The ``batch.<name>`` list, each item validated against the
    same field table a single request of ``shape`` is."""
    raw = obj.get(name, [])
    if not isinstance(raw, list):
        raise ProtocolError(
            "invalid_type",
            f"batch.{name} must be a list, got {type(raw).__name__}",
            field=name,
        )
    allowed = _ALLOWED[shape.name]
    items = []
    for i, item in enumerate(raw):
        where = f"batch.{name}[{i}]"
        sub = _require_object(item, what=where)
        _reject_unknown(sub, allowed, where=where)
        items.append(
            shape.request(
                *_parse_fields(sub, shape.fields, num_stations, where=where)
            )
        )
    return tuple(items)


@dataclass(frozen=True, slots=True)
class DelayCommand:
    """One parsed ``/delays`` request: a swap phase plus its input.

    ``apply``/``prepare`` carry the delay batch (``delays`` non-empty,
    ``token`` ``None``); ``commit``/``abort`` carry only the ``token``
    a prior ``prepare`` answered with (``delays`` empty).

    ``replan`` picks the rebuild strategy (:data:`DELAY_REPLAN_MODES`);
    ``advance`` is how many logical delay batches this request
    represents — always 1 except for coalesced fleet catch-up posts
    (wire field ``generations``), where one apply stands in for a run
    of committed batches and the worker's generation must advance by
    the whole run (``docs/FLEET.md``)."""

    mode: str
    delays: tuple[Delay, ...]
    slack_per_leg: int
    token: int | None
    replan: str = "full"
    advance: int = 1


def parse_delay_request(body: object, num_trains: int) -> DelayCommand:
    """Parse a hot-swap request into a :class:`DelayCommand`.

    ``from_stop`` bounds depend on each train's run length, which only
    ``apply_delays`` knows — the registry surfaces its ``ValueError``
    as a 400, so a bad ``from_stop`` is still a typed client error."""
    obj = _require_object(body)
    _check_version(obj)
    _reject_unknown(obj, _DELAY_FIELDS, where="delay request")
    mode = obj.get("mode", "apply")
    if mode not in DELAY_MODES:
        raise ProtocolError(
            "invalid_request",
            f"delay request mode must be one of {list(DELAY_MODES)}, "
            f"got {mode!r}",
            field="mode",
        )
    if mode in ("commit", "abort"):
        for name in ("delays", "slack_per_leg", "replan", "generations"):
            if name in obj:
                raise ProtocolError(
                    "invalid_request",
                    f"a {mode} request must not carry {name!r} "
                    f"(the prepared replan already holds them)",
                    field=name,
                )
        token = _int_field(
            obj, "token", where=f"{mode} request", required=True, lo=0
        )
        return DelayCommand(mode=mode, delays=(), slack_per_leg=0, token=token)
    if "token" in obj:
        raise ProtocolError(
            "invalid_request",
            f"an {mode} request must not carry 'token' "
            f"(tokens are answered by prepare)",
            field="token",
        )
    replan = obj.get("replan", "full")
    if replan not in DELAY_REPLAN_MODES:
        raise ProtocolError(
            "invalid_request",
            f"delay request replan must be one of {list(DELAY_REPLAN_MODES)}, "
            f"got {replan!r}",
            field="replan",
        )
    if mode == "prepare" and "generations" in obj:
        raise ProtocolError(
            "invalid_request",
            "a prepare request must not carry 'generations' "
            "(coalesced catch-up is apply-only)",
            field="generations",
        )
    advance = _int_field(
        obj, "generations", where="delay request", default=1, lo=1
    )
    raw = obj.get("delays")
    if not isinstance(raw, list) or not raw:
        raise ProtocolError(
            "invalid_request",
            "delay request needs a non-empty 'delays' list",
            field="delays",
        )
    slack = _int_field(
        obj, "slack_per_leg", where="delay request", default=0, lo=0
    )
    delays: list[Delay] = []
    for i, item in enumerate(raw):
        sub = _require_object(item, what=f"delays[{i}]")
        _reject_unknown(sub, _DELAY_ITEM_FIELDS, where=f"delays[{i}]")
        train = _int_field(
            sub, "train", where=f"delays[{i}]", required=True,
            lo=0, hi=num_trains,
        )
        minutes = _int_field(
            sub, "minutes", where=f"delays[{i}]", required=True, lo=0
        )
        from_stop = _int_field(
            sub, "from_stop", where=f"delays[{i}]", default=0, lo=0
        )
        delays.append(Delay(train=train, minutes=minutes, from_stop=from_stop))
    return DelayCommand(
        mode=mode,
        delays=tuple(delays),
        slack_per_leg=slack,
        token=None,
        replan=replan,
        advance=advance,
    )


# ---------------------------------------------------------------------------
# Response encoding
# ---------------------------------------------------------------------------


def _points(profile) -> list[list[int]]:
    return list(map(list, profile.connection_points()))


def encode_query_stats(stats: QueryStats) -> dict:
    return {
        "kind": stats.kind,
        "kernel": stats.kernel,
        "num_threads": stats.num_threads,
        "settled_connections": stats.settled_connections,
        "simulated_seconds": stats.simulated_seconds,
        "total_seconds": stats.total_seconds,
        "classification": stats.classification,
        "table_prunes": stats.table_prunes,
        "connection_stops": stats.connection_stops,
        "cache_hit": stats.cache_hit,
    }


def encode_batch_stats(stats: BatchStats) -> dict:
    return {
        "num_queries": stats.num_queries,
        "kernel": stats.kernel,
        "total_seconds": stats.total_seconds,
    }


def encode_profile(
    result: ProfileResult,
    *,
    num_stations: int,
    targets: Sequence[int] | None = None,
) -> dict:
    """Encode a one-to-all answer; ``targets`` (from the request)
    restricts which stations' profiles travel over the wire.  All of
    them are reduced in one pass over their label rows
    (:meth:`ProfileResult.connection_points`)."""
    stations = [
        t
        for t in (range(num_stations) if targets is None else targets)
        if t != result.source
    ]
    profiles = dict(
        zip(map(str, stations), result.connection_points(stations))
    )
    return {
        "v": PROTOCOL_VERSION,
        "kind": "profile",
        "source": result.source,
        "profiles": profiles,
        "stats": encode_query_stats(result.stats),
    }


def encode_batch(response: BatchResponse, *, num_stations: int) -> dict:
    return {
        "v": PROTOCOL_VERSION,
        "kind": "batch",
        "journeys": [encode_journey(j) for j in response.journeys],
        "profiles": [
            encode_profile(p, num_stations=num_stations)
            for p in response.profiles
        ],
        "stats": encode_batch_stats(response.stats),
    }


def _legs(legs) -> list[dict] | None:
    if legs is None:
        return None
    return [
        {
            "from_station": leg.from_station,
            "to_station": leg.to_station,
            "departure": leg.departure,
            "arrival": leg.arrival,
        }
        for leg in legs
    ]


def _options(options) -> list[list[int]]:
    return [[int(opt.transfers), int(opt.arrival)] for opt in options]


def _optional_int(value) -> int | None:
    return None if value is None else int(value)


#: How each wire kind of the shape table's ``response`` lists is
#: rendered (``None``: the value travels as it is); the inverse map is
#: in ``repro.client.results``.
_ENCODE_KIND: dict[str, Callable[[Any], Any] | None] = {
    "plain": None,
    "int": int,
    "optional_int": _optional_int,
    "points": _points,
    "legs": _legs,
    "options": _options,
    "stats": encode_query_stats,
}


def _derive_encoder(shape: Shape) -> Callable[[Any], dict]:
    """The answer encoder of one table-declared shape: the envelope,
    then every ``response`` field in wire order."""
    kind = shape.name
    names = tuple(name for name, _ in shape.response)
    read = attrgetter(*names)
    rendered = tuple(
        (name, _ENCODE_KIND[wire_kind])
        for name, wire_kind in shape.response
        if _ENCODE_KIND[wire_kind] is not None
    )

    def encode(result: Any) -> dict:
        payload = {"v": PROTOCOL_VERSION, "kind": kind}
        payload.update(zip(names, read(result)))
        for name, render in rendered:
            payload[name] = render(payload[name])
        return payload

    encode.__name__ = encode.__qualname__ = f"encode_{shape.name}"
    return encode


# ---------------------------------------------------------------------------
# The per-shape codecs
# ---------------------------------------------------------------------------

#: Per derived shape name: its (parser, encoder) pair.
_CODECS = {
    shape.name: (_derive_parser(shape), _derive_encoder(shape))
    for shape in DERIVED_SHAPES
}

parse_journey_request, encode_journey = _CODECS["journey"]
parse_multicriteria_request, encode_multicriteria = _CODECS["multicriteria"]
parse_via_request, encode_via = _CODECS["via"]
parse_min_transfers_request, encode_min_transfers = _CODECS["min_transfers"]


def _open_derived(parse, encode):
    def open_(body: object, num_stations: int):
        return parse(body, num_stations), encode

    return open_


def _open_profile(body: object, num_stations: int):
    request, targets = parse_profile_request(body, num_stations)
    return request, partial(
        encode_profile, num_stations=num_stations, targets=targets
    )


def _open_batch(body: object, num_stations: int):
    return parse_batch_request(body, num_stations), partial(
        encode_batch, num_stations=num_stations
    )


_OPENERS = {
    "profile": _open_profile,
    "batch": _open_batch,
    **{name: _open_derived(*codec) for name, codec in _CODECS.items()},
}


def open_request(
    shape: Shape, body: object, num_stations: int
) -> tuple[Any, Callable[[Any], dict]]:
    """Parse one ``shape`` request; returns the typed service request
    and the encoder for its answer, already bound to whatever the
    response needs from the request (``profile``'s ``targets``) or the
    dataset (``num_stations``).  The one entry point the server and
    the in-process backend share, whatever the shape."""
    return _OPENERS[shape.name](body, num_stations)
