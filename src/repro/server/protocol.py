"""Versioned JSON wire schema of the query server.

Every request and response body is one JSON object carrying the
protocol version under ``"v"`` (:data:`PROTOCOL_VERSION`; requests may
omit it and get the current version, an explicit mismatch is
rejected).  Request objects map one-to-one onto the service layer's
typed requests; which fields each carries, with which bounds, and
which fields each answer carries is declared once, in the wire table
(:mod:`repro.service.shapes`).  The parsers are derived from that
table here, and the encoders there; ``profile`` (response restricted
by ``targets``) and ``batch`` (a composite) add hand-written parts, as
does the mode-dependent ``/delays`` endpoint.

Validation is strict: unknown fields, wrong types, and out-of-range
stations/trains are rejected with a typed :class:`ProtocolError`
before any search runs.  Errors serialize to the uniform payload of
:func:`~repro.service.shapes.error_payload` and carry the HTTP status
the server should answer with.  Encoding is deterministic — all
payload numbers are plain ints (minutes since midnight for times,
:data:`~repro.functions.piecewise.INF_TIME` for unreachable) — which is
what lets the end-to-end tests pin server answers bitwise-identical to
direct :class:`TransitService` calls (``tests/server/test_server_e2e.py``).

Everything here is pure: no I/O, no asyncio — the module is equally
usable by the server, by clients, and by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Sequence

from orjson import JSONDecodeError, loads

from repro.service.model import (
    BatchRequest,
    BatchResponse,
    ProfileRequest,
    ProfileResult,
)
from repro.service.shapes import (  # the caps and the version are re-exported
    ANSWERS,
    BATCH,
    DELAY_ITEM,
    DELAY_REQUEST,
    DERIVED_SHAPES,
    MAX_MC_TRANSFERS,  # noqa: F401
    MAX_NUM_THREADS,  # noqa: F401
    PROFILE,
    PROTOCOL_VERSION,
    SHAPES,
    RequestField,
    Shape,
    error_payload,
)
from repro.timetable.delays import Delay


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
        return error_payload(self.code, self.message, field=self.field)


# ---------------------------------------------------------------------------
# Validation primitives
# ---------------------------------------------------------------------------


def parse_body(body: bytes) -> dict:
    """A request body's JSON object; a :class:`ProtocolError` when it
    is empty, not JSON, or not an object."""
    if not body:
        raise ProtocolError("invalid_request", "request body is empty")
    try:
        parsed = loads(body)
    except JSONDecodeError as exc:
        raise ProtocolError(
            "invalid_json", f"request body is not valid JSON: {exc}"
        ) from None
    return _require_object(parsed)


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
    obj: dict, fields: tuple[RequestField, ...], bound: int, *, where: str
) -> list[int | None]:
    """Validate ``obj`` against a field table; values in field order
    (station and train fields are bounded by ``bound``, the dataset's
    station or train count)."""
    return [
        _int_field(
            obj,
            name,
            where,
            required,
            default,
            lo,
            bound if kind in ("station", "train") else hi,
        )
        for name, kind, required, default, lo, hi in fields
    ]


def _names(fields: tuple[RequestField, ...]) -> frozenset[str]:
    return frozenset(f.name for f in fields)


#: Per shape name, the field names a request object may carry
#: (besides ``"v"`` and the shape's wire-only fields).
_ALLOWED = {
    shape.name: _names(shape.fields) | {name for name, _ in shape.items}
    for shape in SHAPES
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

#: The ``mode`` values of ``POST /v1/datasets/{name}/delays``: only
#: ``apply`` (the default), which replans and swaps in one request.  A
#: fleet applies a batch by posting it to every worker, and routes a
#: dataset only to workers at its newest generation
#: (``docs/FLEET.md``); no client sends anything but ``apply``.
DELAY_MODES = ("apply",)

#: The values protocol 2's ``replan`` key accepts.  It selects
#: nothing: every swap re-packs the delayed timetable
#: (:func:`repro.service.prepare.replan_dataset`), and the
#: ``PROTOCOL_VERSION`` bump that drops the key removes this too, with
#: the gateway's ``incremental_swaps_total``.
DELAY_REPLAN_MODES = ("full", "incremental")

_DELAY = {f.name: f for f in DELAY_REQUEST}


def parse_profile_request(
    body: object, num_stations: int
) -> tuple[ProfileRequest, tuple[int, ...] | None]:
    """Parse a one-to-all request.  Returns the service request plus
    the optional response restriction: ``targets`` limits which
    stations the response encodes profiles for (the search itself is
    always one-to-all)."""
    obj = _require_object(body)
    _check_version(obj)
    _reject_unknown(
        obj,
        _ALLOWED["profile"] | {"v", *PROFILE.wire_only},
        where="profile request",
    )
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
    _reject_unknown(obj, _ALLOWED["batch"] | {"v"}, where="batch request")
    items = {
        name: _parse_items(obj, name, shape, num_stations)
        for name, shape in BATCH.items
    }
    if not any(items.values()):
        raise ProtocolError(
            "invalid_request",
            "batch request needs at least one journey or profile",
        )
    return BatchRequest(**items)


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
    """One parsed ``/delays`` request: the delay batch to apply.

    ``advance`` is how many logical delay batches this request
    represents — always 1 except for coalesced fleet catch-up posts
    (wire field ``generations``), where one apply stands in for a run
    of committed batches and the worker's generation must advance by
    the whole run (``docs/FLEET.md``)."""

    delays: tuple[Delay, ...]
    slack_per_leg: int
    advance: int = 1


def _choice(obj: dict, name: str, choices: tuple[str, ...]) -> str:
    value = obj.get(name, _DELAY[name].default)
    if value not in choices:
        raise ProtocolError(
            "invalid_request",
            f"delay request {name} must be one of {list(choices)}, "
            f"got {value!r}",
            field=name,
        )
    return value


def _delay_int(obj: dict, name: str, where: str) -> int | None:
    _, _, required, default, lo, hi = _DELAY[name]
    return _int_field(obj, name, where, required, default, lo, hi)


def parse_delay_request(body: object, num_trains: int) -> DelayCommand:
    """Parse a hot-swap request into a :class:`DelayCommand`.

    ``from_stop`` bounds depend on each train's run length, which only
    ``apply_delays`` knows — the registry surfaces its ``ValueError``
    as a 400, so a bad ``from_stop`` is still a typed client error."""
    obj = _require_object(body)
    _check_version(obj)
    _reject_unknown(obj, _names(DELAY_REQUEST) | {"v"}, where="delay request")
    _choice(obj, "mode", DELAY_MODES)
    _choice(obj, "replan", DELAY_REPLAN_MODES)  # accepted, selects nothing
    advance = _delay_int(obj, "generations", "delay request")
    raw = obj.get("delays")
    if not isinstance(raw, list) or not raw:
        raise ProtocolError(
            "invalid_request",
            "delay request needs a non-empty 'delays' list",
            field="delays",
        )
    slack = _delay_int(obj, "slack_per_leg", "delay request")
    allowed = _names(DELAY_ITEM)
    delays: list[Delay] = []
    for i, item in enumerate(raw):
        where = f"delays[{i}]"
        sub = _require_object(item, what=where)
        _reject_unknown(sub, allowed, where=where)
        delays.append(
            Delay(*_parse_fields(sub, DELAY_ITEM, num_trains, where=where))
        )
    return DelayCommand(tuple(delays), slack, advance)


# ---------------------------------------------------------------------------
# Response encoding
# ---------------------------------------------------------------------------


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
    return ANSWERS["profile"].write(result.source, profiles, result.stats)


def encode_batch(response: BatchResponse, *, num_stations: int) -> dict:
    return ANSWERS["batch"].write(
        response.journeys,
        [encode_profile(p, num_stations=num_stations) for p in response.profiles],
        response.stats,
    )


# ---------------------------------------------------------------------------
# The per-shape codecs
# ---------------------------------------------------------------------------

#: Per derived shape name: its (parser, encoder) pair.
_CODECS = {
    shape.name: (_derive_parser(shape), ANSWERS[shape.name].encode)
    for shape in DERIVED_SHAPES
}

# The per-shape names stay importable: ``e2ebench/trace.py`` binds them.
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
