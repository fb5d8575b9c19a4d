"""Typed request/response model of the :class:`TransitService` facade.

Requests are small frozen dataclasses — cheap to build, hashable, and
safe to log or ship across processes.  Responses pair the answer (a
reduced :class:`~repro.functions.algebra.Profile`, journey legs) with
per-query :class:`QueryStats`, the accounting every benchmark and the
CLI read from one place.

The correspondence with the underlying engines:

===========================  ==============================================
request                      engine path
===========================  ==============================================
:class:`ProfileRequest`      :func:`~repro.core.parallel.parallel_profile_search`
:class:`JourneyRequest`      :meth:`~repro.query.table_query.StationToStationEngine.query`; with a departure, legs from the time query (below) at one layer
:class:`BatchRequest`        the two paths above, per item (one search worker job each)
:class:`MulticriteriaRequest`  a transfer-layered time query at the departure (below)
:class:`ViaRequest`          two chained time queries at one layer, as a dated journey's legs
:class:`MinTransfersRequest`   the same shared search, head of its front
===========================  ==============================================

The transfer-layered time query is
:func:`~repro.core.multicriteria.mc_time_search` over the packed
arrays (its object-graph twin, ``tests/oracles/mc_time_query.py``, is
the tests' oracle); with no transfer bound it has one layer and is the
single-criterion §2 time query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.parallel import ParallelProfileResult
from repro.functions.algebra import Profile
from repro.functions.piecewise import INF_TIME
from repro.query.batch import BatchStats


#: The transfer budget of a multi-criteria family request that names
#: none — the one default every layer (facade, wire schema, SDK) uses.
DEFAULT_MAX_TRANSFERS = 5


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ProfileRequest:
    """One-to-all profile search from ``source`` over a full period.

    ``num_threads`` overrides the service config's per-query core count
    for this request only (used by the scaling benchmarks, which sweep
    p over one prepared dataset).
    """

    source: int
    num_threads: int | None = None


@dataclass(frozen=True, slots=True)
class JourneyRequest:
    """Station-to-station query.

    Without ``departure`` the answer is the full reduced profile (all
    best connections over the period).  With ``departure`` the service
    additionally evaluates the profile at that time and reconstructs
    the concrete journey legs.
    """

    source: int
    target: int
    departure: int | None = None


@dataclass(frozen=True, slots=True)
class BatchRequest:
    """A batched workload: many journeys and/or many profile searches.

    Each item is one job of the service's search workers, or runs on
    the calling thread when it has none; answers come back in
    submission order and each is the answer — stats included,
    wall-clock fields aside — of issuing that request on its own.
    """

    journeys: tuple[JourneyRequest, ...] = ()
    profiles: tuple[ProfileRequest, ...] = ()

    @classmethod
    def from_pairs(
        cls, pairs: Sequence[tuple[int, int]]
    ) -> "BatchRequest":
        """Station-to-station workload from raw (source, target) pairs."""
        return cls(
            journeys=tuple(JourneyRequest(s, t) for s, t in pairs)
        )

    @classmethod
    def from_sources(cls, sources: Sequence[int]) -> "BatchRequest":
        """One-to-all workload from raw source stations."""
        return cls(profiles=tuple(ProfileRequest(s) for s in sources))

    def __len__(self) -> int:
        return len(self.journeys) + len(self.profiles)


@dataclass(frozen=True, slots=True)
class MulticriteriaRequest:
    """Pareto query (paper §6): every non-dominated
    (transfers, arrival) trade-off for travelling ``source`` →
    ``target`` departing at or after ``departure``, bounded by
    ``max_transfers``.
    """

    source: int
    target: int
    departure: int
    max_transfers: int = DEFAULT_MAX_TRANSFERS


@dataclass(frozen=True, slots=True)
class ViaRequest:
    """Station-to-station journey constrained to pass through ``via``:
    the earliest arrival at ``target`` among journeys that first reach
    ``via`` as early as possible (two chained earliest-arrival legs).
    """

    source: int
    via: int
    target: int
    departure: int


@dataclass(frozen=True, slots=True)
class MinTransfersRequest:
    """Transfer-minimizing journey: among journeys departing at or
    after ``departure`` with at most ``max_transfers`` transfers, the
    one with the fewest transfers (ties broken by earliest arrival —
    the first entry of the Pareto front).
    """

    source: int
    target: int
    departure: int
    max_transfers: int = DEFAULT_MAX_TRANSFERS


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class QueryStats:
    """Per-query work and time accounting, uniform across query paths.

    ``simulated_seconds`` is the paper's simulated-cores wall clock
    (slowest thread + merge); ``total_seconds`` the real wall clock of
    the call.  ``classification`` is set for journeys only (trivial /
    table / local / global); the pruning counters are non-zero only
    when a distance table participated.  ``cache_hit`` is ``True`` when
    the answer was served from the service's
    :class:`~repro.service.cache.LRUResultCache` instead of a search
    (the timing fields then describe the *original* computation, not
    the hit) — server metrics and callers distinguish cached answers
    through it.
    """

    kind: str  # "profile" | "journey" | "multicriteria" | "via" | "min_transfers"
    kernel: str
    num_threads: int
    settled_connections: int
    simulated_seconds: float
    total_seconds: float
    classification: str | None = None
    table_prunes: int = 0
    connection_stops: int = 0
    cache_hit: bool = False


@dataclass(frozen=True, slots=True)
class JourneyLeg:
    """One leg of a reconstructed journey.

    ``departure`` is the time you must be at ``from_station`` ready to
    travel (waiting for the leg's train is included in the leg);
    ``arrival`` the time you reach ``to_station``.
    """

    from_station: int
    to_station: int
    departure: int
    arrival: int

    @property
    def duration(self) -> int:
        return self.arrival - self.departure


@dataclass(slots=True)
class JourneyResult:
    """Answer to a :class:`JourneyRequest`.

    ``profile`` always holds the full reduced profile.  When the
    request carried a departure time, ``departure``/``arrival`` hold
    the evaluated earliest arrival (``arrival`` is
    :data:`~repro.functions.piecewise.INF_TIME` when unreachable) and
    ``legs`` the reconstructed station-level itinerary (``None`` when
    no departure was asked for or the target is unreachable).
    """

    source: int
    target: int
    profile: Profile
    stats: QueryStats
    departure: int | None = None
    arrival: int | None = None
    legs: tuple[JourneyLeg, ...] | None = None

    @property
    def reachable(self) -> bool:
        if self.arrival is not None:
            return self.arrival < INF_TIME
        return len(self.profile) > 0 or self.source == self.target

    def earliest_arrival(self, tau: int) -> int:
        if self.source == self.target:
            return tau
        return self.profile.earliest_arrival(tau)


@dataclass(slots=True)
class ProfileResult:
    """Answer to a :class:`ProfileRequest`: all best connections from
    ``source`` to every station, plus accounting."""

    source: int
    stats: QueryStats
    #: The underlying merged result (kept whole: label matrices are
    #: shared, profiles are materialized per target on demand).
    raw: ParallelProfileResult = field(repr=False)

    def profile(self, station: int) -> Profile:
        """Reduced profile ``dist(source, station, ·)``."""
        return self.raw.profile(station)

    def connection_points(self, stations: Sequence[int]) -> list[list[list[int]]]:
        """``[departure, duration]`` points of every station's reduced
        profile in ``stations``, from one reduction over their rows."""
        return self.raw.merged.connection_points(stations)

    def earliest_arrival(self, station: int, tau: int) -> int:
        if station == self.source:
            return tau
        return self.profile(station).earliest_arrival(tau)


@dataclass(frozen=True, slots=True)
class ParetoOption:
    """One non-dominated (transfers, arrival) trade-off."""

    transfers: int
    arrival: int


@dataclass(slots=True)
class MulticriteriaResult:
    """Answer to a :class:`MulticriteriaRequest`.

    ``options`` is the Pareto front ordered by increasing transfer
    count and strictly decreasing arrival (every extra transfer buys a
    strictly earlier arrival); empty when ``target`` is unreachable
    within the transfer budget.  ``legs`` is the itinerary of the
    fastest option, ``options[-1]`` — ``len(legs) - 1`` is its transfer
    count — read off the search that found the front; ``None`` exactly
    when the front is empty.
    """

    source: int
    target: int
    departure: int
    max_transfers: int
    options: tuple[ParetoOption, ...]
    stats: QueryStats
    legs: tuple[JourneyLeg, ...] | None = None

    @property
    def reachable(self) -> bool:
        return len(self.options) > 0

    @property
    def best_arrival(self) -> int:
        """Earliest arrival over the whole front (INF when empty)."""
        return self.options[-1].arrival if self.options else INF_TIME


@dataclass(slots=True)
class ViaResult:
    """Answer to a :class:`ViaRequest`.

    ``via_arrival`` is the earliest arrival at the via station
    (:data:`~repro.functions.piecewise.INF_TIME` when unreachable);
    ``arrival`` the final arrival at ``target`` after continuing from
    the via station at ``via_arrival``.  ``legs`` chains both legs'
    itineraries (``None`` when either hop is unreachable).
    """

    source: int
    via: int
    target: int
    departure: int
    via_arrival: int
    arrival: int
    stats: QueryStats
    legs: tuple[JourneyLeg, ...] | None = None

    @property
    def reachable(self) -> bool:
        return self.arrival < INF_TIME


@dataclass(slots=True)
class MinTransfersResult:
    """Answer to a :class:`MinTransfersRequest`.

    ``transfers`` is the minimum transfer count of any journey within
    the budget (``None`` when unreachable); ``arrival`` the earliest
    arrival achievable with exactly that many transfers.  ``legs`` is
    that journey's itinerary (``len(legs) - 1 == transfers``), read off
    the search that found it; ``None`` exactly when unreachable.
    """

    source: int
    target: int
    departure: int
    max_transfers: int
    transfers: int | None
    arrival: int
    stats: QueryStats
    legs: tuple[JourneyLeg, ...] | None = None

    @property
    def reachable(self) -> bool:
        return self.transfers is not None


@dataclass(slots=True)
class BatchResponse:
    """Answer to a :class:`BatchRequest`.

    ``journeys``/``profiles`` are in submission order; ``stats``
    aggregates throughput over the whole batch (journeys and profile
    searches combined).
    """

    journeys: list[JourneyResult]
    profiles: list[ProfileResult]
    stats: BatchStats

    def __len__(self) -> int:
        return len(self.journeys) + len(self.profiles)
