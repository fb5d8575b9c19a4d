"""Transport-neutral answers and the wire → object decoders.

Every :class:`~repro.client.backend.TransitBackend` answer is decoded
from the *canonical wire encoding* (:mod:`repro.server.protocol`'s
``encode_*`` output) by the functions here — the HTTP backend decodes
what arrived over TCP, the local backend decodes what it encoded
in-process — so a program sees structurally identical objects from
both transports, down to the last integer.  That is the other half of
the bitwise-parity guarantee (requests are unified by
:mod:`repro.client.wire`).

The per-query accounting reuses the service layer's own types
(:class:`~repro.service.model.QueryStats`,
:class:`~repro.service.model.JourneyLeg`,
:class:`~repro.query.batch.BatchStats`) — only the *profile payloads*
need a client-side representation, because a wire profile is the
reduced connection-point list, not the packed
:class:`~repro.functions.algebra.Profile` object the facade holds.
:class:`ConnectionProfile` carries those points with the same
evaluation semantics (``earliest_arrival`` follows the paper's cyclic
two-candidate rule exactly — ``tests/client/test_backend_local.py``
pins it against :class:`Profile` point-for-point).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Iterator, Mapping

from repro.functions.piecewise import INF_TIME
from repro.query.batch import BatchStats
from repro.service.model import JourneyLeg, ParetoOption, QueryStats
from repro.service.shapes import DERIVED_SHAPES, Shape
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
class MulticriteriaAnswer:
    """A Pareto query answered by a backend (either transport).

    ``options`` is the (transfers, arrival) front in increasing
    transfer order; ``legs`` the fastest option's itinerary (``None``
    exactly when the front is empty).
    """

    source: int
    target: int
    departure: int
    max_transfers: int
    reachable: bool
    options: tuple[ParetoOption, ...]
    stats: QueryStats
    legs: tuple[JourneyLeg, ...] | None = None

    @property
    def best_arrival(self) -> int:
        """Earliest arrival over the whole front (INF when empty)."""
        return self.options[-1].arrival if self.options else INF_TIME


@dataclass(frozen=True, slots=True)
class ViaAnswer:
    """A via-constrained journey answered by a backend: earliest
    arrival at ``via``, then onward to ``target``."""

    source: int
    via: int
    target: int
    departure: int
    via_arrival: int
    arrival: int
    reachable: bool
    stats: QueryStats
    legs: tuple[JourneyLeg, ...] | None = None


@dataclass(frozen=True, slots=True)
class MinTransfersAnswer:
    """A transfer-minimizing journey answered by a backend:
    ``transfers`` is ``None`` when the target is unreachable within
    the budget (``arrival`` is then INF)."""

    source: int
    target: int
    departure: int
    max_transfers: int
    reachable: bool
    transfers: int | None
    arrival: int
    stats: QueryStats
    legs: tuple[JourneyLeg, ...] | None = None


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
# Decoders (inverse of repro.server.protocol's encode_*)
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


def decode_query_stats(raw: dict) -> QueryStats:
    return QueryStats(
        kind=raw["kind"],
        kernel=raw["kernel"],
        num_threads=raw["num_threads"],
        settled_connections=raw["settled_connections"],
        simulated_seconds=raw["simulated_seconds"],
        total_seconds=raw["total_seconds"],
        classification=raw.get("classification"),
        table_prunes=raw.get("table_prunes", 0),
        connection_stops=raw.get("connection_stops", 0),
        cache_hit=raw.get("cache_hit", False),
    )


def decode_batch_stats(raw: dict) -> BatchStats:
    return BatchStats(
        num_queries=raw["num_queries"],
        kernel=raw["kernel"],
        total_seconds=raw["total_seconds"],
    )


def decode_profile(payload: dict) -> ProfileAnswer:
    return ProfileAnswer(
        source=payload["source"],
        profiles={
            int(station): _decode_points(points)
            for station, points in payload["profiles"].items()
        },
        stats=decode_query_stats(payload["stats"]),
    )


def decode_batch(payload: dict) -> BatchAnswer:
    return BatchAnswer(
        journeys=tuple(decode_journey(j) for j in payload["journeys"]),
        profiles=tuple(decode_profile(p) for p in payload["profiles"]),
        stats=decode_batch_stats(payload["stats"]),
    )


def _decode_legs(raw) -> tuple[JourneyLeg, ...] | None:
    if raw is None:
        return None
    return tuple(
        JourneyLeg(
            from_station=leg["from_station"],
            to_station=leg["to_station"],
            departure=leg["departure"],
            arrival=leg["arrival"],
        )
        for leg in raw
    )


def _decode_options(raw) -> tuple[ParetoOption, ...]:
    return tuple(ParetoOption(int(k), int(arr)) for k, arr in raw)


#: How each wire kind of the shape table's ``response`` lists is read
#: back — the inverse of ``repro.server.protocol._ENCODE_KIND``
#: (``None``: the value is taken as it is).
_DECODE_KIND: dict[str, Callable[[Any], Any] | None] = {
    "plain": None,
    "int": None,
    "optional_int": None,
    "points": _decode_points,
    "legs": _decode_legs,
    "options": _decode_options,
    "stats": decode_query_stats,
}


def _derive_decoder(shape: Shape, answer: type) -> Callable[[dict], Any]:
    """The answer decoder of one table-declared shape, built from the
    very ``response`` list its encoder is built from.  Strict: every
    declared field must be present."""
    names = tuple(name for name, _ in shape.response)
    pick = itemgetter(*names)
    readers = tuple(
        (name, _DECODE_KIND[wire_kind])
        for name, wire_kind in shape.response
        if _DECODE_KIND[wire_kind] is not None
    )

    def decode(payload: dict) -> Any:
        values = dict(zip(names, pick(payload)))
        for name, read in readers:
            values[name] = read(values[name])
        return answer(**values)

    decode.__name__ = decode.__qualname__ = f"decode_{shape.name}"
    return decode


_DECODERS: dict[str, Callable[[dict], Any]] = {
    "profile": decode_profile,
    "batch": decode_batch,
    **{
        shape.name: _derive_decoder(shape, globals()[shape.answer])
        for shape in DERIVED_SHAPES
    },
}

decode_journey = _DECODERS["journey"]
decode_multicriteria = _DECODERS["multicriteria"]
decode_via = _DECODERS["via"]
decode_min_transfers = _DECODERS["min_transfers"]


def decode_answer(shape: Shape, payload: dict) -> Any:
    """Decode one ``shape`` answer, checking the envelope's ``kind``."""
    if payload["kind"] != shape.name:
        raise ValueError(
            f"expected a {shape.name!r} answer, got kind {payload['kind']!r}"
        )
    return _DECODERS[shape.name](payload)


def decode_info(raw: dict) -> DatasetInfo:
    return DatasetInfo(
        name=raw["name"],
        source=raw["source"],
        generation=raw["generation"],
        timetable=raw["timetable"],
        stations=raw["stations"],
        trains=raw["trains"],
        connections=raw["connections"],
        kernel=raw["kernel"],
        has_distance_table=raw["has_distance_table"],
    )


def decode_delay_update(payload: dict) -> DelayUpdate:
    return DelayUpdate(
        dataset=payload["dataset"],
        generation=payload["generation"],
        num_delays=payload["num_delays"],
        slack_per_leg=payload["slack_per_leg"],
        swap_seconds=payload["swap_seconds"],
    )
