"""Transport-neutral answers and the wire → object decoders.

Every :class:`~repro.client.backend.TransitBackend` answer is decoded
from the *canonical wire encoding* by the decoders here — the HTTP
backend decodes what arrived over TCP, the local backend decodes what
it encoded in-process — so a program sees structurally identical
objects from both transports, down to the last integer.  That is the
other half of the bitwise-parity guarantee (requests are unified by
:mod:`repro.client.wire`).

Each decoder is derived from the payload's one declaration in
:mod:`repro.service.shapes`, the declaration the server's encoder is
derived from; every declared field must be present.  Where the
service layer's own type says what the wire says, the client decodes
into it (:class:`~repro.service.model.QueryStats`,
:class:`~repro.service.model.JourneyLeg`,
:class:`~repro.query.batch.BatchStats`, and the multi-criteria
family's :class:`~repro.service.model.MulticriteriaResult`,
:class:`~repro.service.model.ViaResult` and
:class:`~repro.service.model.MinTransfersResult`, whose ``reachable``
is a property the wire spells out).  The answers that hold a profile
need a client-side class, because a wire profile is the reduced
connection-point list, not the packed
:class:`~repro.functions.algebra.Profile` the facade holds:
:class:`ConnectionProfile` carries those points with the same
evaluation semantics (``earliest_arrival`` follows the paper's cyclic
two-candidate rule exactly — ``tests/client/test_backend_local.py``
pins it against :class:`Profile` point-for-point).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, fields, is_dataclass
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Iterator, Mapping

from repro.functions.piecewise import INF_TIME
from repro.query.batch import BatchStats
from repro.service.model import (
    JourneyLeg,
    MinTransfersResult,
    MulticriteriaResult,
    ParetoOption,
    QueryStats,
    ViaResult,
)
from repro.service.shapes import (
    ANSWERS,
    BATCH_STATS,
    DATASET,
    LEG,
    PAYLOADS,
    QUERY_STATS,
    Payload,
    Shape,
)
from repro.timetable.periodic import DAY_MINUTES


# ---------------------------------------------------------------------------
# Profile payloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ConnectionProfile:
    """A reduced profile as it travels over the wire: the connection
    points ``(departure anchor, duration)`` of ``dist(S, T, ·)``.

    Mirrors the read API of :class:`~repro.functions.algebra.Profile`
    (``connection_points``, ``earliest_arrival``, ``travel_time``,
    ``is_empty``, ``len``) so code written against the facade's
    profiles runs unchanged against backend answers.
    """

    points: tuple[tuple[int, int], ...]
    period: int = DAY_MINUTES
    #: Lazy (deps, arrs) arrays — built on the first evaluation so a
    #: sweep over departure times bisects instead of re-deriving the
    #: lists per call.  Excluded from equality/repr: derived state.
    _eval: tuple[list[int], list[int]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.points)

    def is_empty(self) -> bool:
        return not self.points

    def connection_points(self) -> list[tuple[int, int]]:
        return list(self.points)

    def earliest_arrival(self, tau: int) -> int:
        """Earliest absolute arrival departing at or after ``tau`` —
        the same cyclic evaluation as ``Profile.earliest_arrival``:
        of the next same-day anchor and the first anchor of the next
        day, the earlier arrival wins."""
        if not self.points:
            return INF_TIME
        if self._eval is None:
            # frozen dataclass: the cache slot is set through the back
            # door, like Profile does with its lazy point lists.
            object.__setattr__(
                self,
                "_eval",
                (
                    [dep for dep, _ in self.points],
                    [dep + dur for dep, dur in self.points],
                ),
            )
        deps, arrs = self._eval
        tau_mod = tau % self.period
        base = tau - tau_mod
        idx = bisect_left(deps, tau_mod)
        tomorrow = self.period + arrs[0]
        if idx < len(deps):
            today = arrs[idx]
            return base + (today if today < tomorrow else tomorrow)
        return base + tomorrow

    def travel_time(self, tau: int) -> int:
        arrival = self.earliest_arrival(tau)
        return arrival - tau if arrival < INF_TIME else INF_TIME


# ---------------------------------------------------------------------------
# Answers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class JourneyAnswer:
    """A journey answered by a backend (either transport).

    ``profile`` is the full reduced profile; ``arrival``/``legs`` are
    set when the request named a departure time (``arrival`` is
    :data:`~repro.functions.piecewise.INF_TIME` when unreachable).
    """

    source: int
    target: int
    reachable: bool
    profile: ConnectionProfile
    stats: QueryStats
    departure: int | None = None
    arrival: int | None = None
    legs: tuple[JourneyLeg, ...] | None = None

    def earliest_arrival(self, tau: int) -> int:
        if self.source == self.target:
            return tau
        return self.profile.earliest_arrival(tau)


@dataclass(frozen=True, slots=True)
class ProfileAnswer:
    """A one-to-all profile search answered by a backend.

    ``profiles`` maps every encoded target station (all stations but
    the source, or the request's ``targets`` restriction) to its
    reduced profile.
    """

    source: int
    profiles: Mapping[int, ConnectionProfile]
    stats: QueryStats

    def profile(self, station: int) -> ConnectionProfile:
        return self.profiles[station]

    def earliest_arrival(self, station: int, tau: int) -> int:
        if station == self.source:
            return tau
        return self.profiles[station].earliest_arrival(tau)


@dataclass(frozen=True, slots=True)
class BatchAnswer:
    """A batched workload answered by a backend; items are in
    submission order, ``stats`` aggregates the whole batch."""

    journeys: tuple[JourneyAnswer, ...]
    profiles: tuple[ProfileAnswer, ...]
    stats: BatchStats

    def __len__(self) -> int:
        return len(self.journeys) + len(self.profiles)

    def __iter__(self) -> Iterator[JourneyAnswer | ProfileAnswer]:
        yield from self.journeys
        yield from self.profiles


@dataclass(frozen=True, slots=True)
class DatasetInfo:
    """What a backend serves: the ``/v1/datasets`` entry shape."""

    name: str
    source: str
    generation: int
    timetable: str
    stations: int
    trains: int
    connections: int
    kernel: str
    has_distance_table: bool


@dataclass(frozen=True, slots=True)
class DelayUpdate:
    """Acknowledgement of an applied delay scenario."""

    dataset: str
    generation: int
    num_delays: int
    slack_per_leg: int
    swap_seconds: float


# ---------------------------------------------------------------------------
# Decoders (derived from the payloads the server encodes)
# ---------------------------------------------------------------------------


def _decode_points(raw) -> ConnectionProfile:
    points = tuple(map(tuple, raw))
    # Checked by whole-sequence passes, not one Python call per point.
    if not (
        set(map(len, points)) <= {2}
        and set(map(type, chain.from_iterable(points))) <= {int}
    ):
        raise ValueError("profile points are not [departure, duration] ints")
    return ConnectionProfile(points=points)


#: How each wire kind of a payload's fields is read back — the inverse
#: of ``repro.service.shapes._ENCODE_KIND`` (``None``: the value is
#: taken as it is; ``const`` fields are checked and dropped).  Nested
#: payloads are looked up at call time: :data:`DECODERS` comes last.
_DECODE_KIND: dict[str, Callable[[Any], Any] | None] = {
    "plain": None,
    "const": None,
    "int": None,
    "optional_int": None,
    "seconds": None,
    "points": _decode_points,
    "options": lambda raw: tuple(ParetoOption(int(k), int(a)) for k, a in raw),
    "legs": lambda raw: None if raw is None else tuple(map(DECODERS[LEG], raw)),
    "stats": lambda raw: DECODERS[QUERY_STATS](raw),
    "batch_stats": lambda raw: DECODERS[BATCH_STATS](raw),
    "journeys": lambda raw: tuple(map(DECODERS[ANSWERS["journey"]], raw)),
    "profiles": lambda raw: {
        int(station): _decode_points(points) for station, points in raw.items()
    },
    "profile_answers": lambda raw: tuple(map(DECODERS[ANSWERS["profile"]], raw)),
    "datasets": lambda raw: tuple(map(DECODERS[DATASET], raw)),
}


def _derive_decoder(payload: Payload) -> Callable[[dict], Any]:
    """The decoder of one declared payload.  Strict: every declared
    field must be present, every constant must match.  A declared
    field the decoded class computes itself (a property — the
    multi-criteria family's ``reachable``) is checked present and not
    passed on."""
    decoded = globals()[payload.decoded] if payload.decoded else dict
    constants = tuple(payload.constants.items())
    names = payload.names
    pick = itemgetter(*names) if len(names) > 1 else lambda raw: (raw[names[0]],)
    accepted = (
        [f.name for f in fields(decoded)] if is_dataclass(decoded) else list(names)
    )
    dropped = tuple(name for name in names if name not in accepted)
    readers = tuple(
        (name, _DECODE_KIND[kind])
        for name, kind in payload.fields
        if name in accepted and _DECODE_KIND[kind] is not None
    )
    if decoded is not dict and accepted == list(names) and not (constants or readers):
        # A flat payload whose class lists its fields in wire order.
        return lambda raw: decoded(*pick(raw))

    def decode(raw: dict) -> Any:
        for name, expected in constants:
            if raw[name] != expected:
                raise ValueError(
                    f"expected a {payload.name!r} payload ({name} "
                    f"{expected!r}), got {name} {raw[name]!r}"
                )
        values = dict(zip(names, pick(raw)))
        for name in dropped:
            del values[name]
        for name, read in readers:
            values[name] = read(values[name])
        return decoded(**values)

    decode.__name__ = decode.__qualname__ = f"decode_{payload.name}"
    return decode


#: Per declared payload, its decoder.
DECODERS: dict[Payload, Callable[[dict], Any]] = {
    payload: _derive_decoder(payload) for payload in PAYLOADS
}

# The per-shape names stay importable: ``e2ebench/trace.py`` binds them.
decode_profile = DECODERS[ANSWERS["profile"]]
decode_journey = DECODERS[ANSWERS["journey"]]
decode_batch = DECODERS[ANSWERS["batch"]]
decode_multicriteria = DECODERS[ANSWERS["multicriteria"]]
decode_via = DECODERS[ANSWERS["via"]]
decode_min_transfers = DECODERS[ANSWERS["min_transfers"]]


def decode_answer(shape: Shape, payload: dict) -> Any:
    """Decode one ``shape`` answer (its ``kind`` is checked first)."""
    return DECODERS[ANSWERS[shape.name]](payload)


def decode(payload: Payload, raw: dict) -> Any:
    """Decode ``raw`` as the declared ``payload``."""
    return DECODERS[payload](raw)
