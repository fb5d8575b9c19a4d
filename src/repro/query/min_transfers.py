"""Transfer-minimizing queries over multi-criteria profile searches.

The §6 search (:func:`repro.core.multicriteria.mc_profile_search`)
labels every (node, connection, transfer budget) triple; this module
holds the read-off logic that turns those labels into whole-day
reports — the fewest-transfers option of a Pareto front at any
departure, scanning a network for relations with genuine
speed-vs-convenience trade-offs, and counting optimal connections per
transfer budget.  ``examples/min_transfers.py`` is a thin caller.

The served ``min-transfers`` request shape
(:class:`repro.service.model.MinTransfersRequest`) asks about one
departure, so it does not build a day's profile to read one minute of
it: it takes the head of the front of the transfer-layered time query
at that departure (:func:`repro.core.multicriteria.mc_time_search`) —
the same answer as :func:`min_transfer_option` on the profile search,
which ``tests/service/test_shapes.py`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.multicriteria import McProfileResult, mc_profile_search
from repro.functions.piecewise import INF_TIME
from repro.graph.td_model import TDGraph

__all__ = [
    "TradeoffFront",
    "TradeoffScan",
    "min_transfer_option",
    "scan_tradeoffs",
    "tradeoff_fronts",
    "transfer_bounded_counts",
]

#: Departure anchors a trade-off scan probes by default: the morning
#: shoulder, the morning peak, the evening peak.
DEFAULT_DEPARTURES: tuple[int, ...] = (7 * 60, 8 * 60, 17 * 60)


@dataclass(frozen=True, slots=True)
class TradeoffFront:
    """One station whose Pareto front shows a genuine trade-off.

    ``options`` are the non-dominated (transfers, arrival) pairs for
    departing at or after ``departure`` — at least two of them, i.e. an
    extra transfer buys a strictly earlier arrival.
    """

    station: int
    departure: int
    options: tuple[tuple[int, int], ...]


@dataclass(slots=True)
class TradeoffScan:
    """Result of :func:`scan_tradeoffs`: the source with the most
    trade-off fronts, its search result, and those fronts."""

    source: int
    result: McProfileResult
    fronts: tuple[TradeoffFront, ...]


def min_transfer_option(
    result: McProfileResult, station: int, departure: int
) -> tuple[int, int] | None:
    """The fewest-transfers (transfers, arrival) option for reaching
    ``station`` departing at or after ``departure`` — the first entry
    of the Pareto front — or ``None`` when unreachable within the
    search's transfer budget."""
    front = result.pareto_front(station, departure)
    return front[0] if front else None


def tradeoff_fronts(
    result: McProfileResult,
    stations: Iterable[int],
    *,
    departures: Sequence[int] = DEFAULT_DEPARTURES,
    min_options: int = 2,
) -> list[TradeoffFront]:
    """Stations (excluding the source) whose front shows at least
    ``min_options`` trade-offs at the first matching departure anchor.

    Each station contributes at most one front: the first departure in
    ``departures`` whose front is large enough wins, matching the
    scan's "does this relation trade speed for convenience at all"
    question rather than enumerating every anchor.
    """
    fronts: list[TradeoffFront] = []
    for station in stations:
        if station == result.source:
            continue
        for tau in departures:
            front = result.pareto_front(station, tau)
            if len(front) >= min_options:
                fronts.append(TradeoffFront(station, tau, tuple(front)))
                break
    return fronts


def scan_tradeoffs(
    graph: TDGraph,
    *,
    sources: Iterable[int] | None = None,
    departures: Sequence[int] = DEFAULT_DEPARTURES,
    max_transfers: int = 4,
    min_options: int = 2,
    stop_after: int = 3,
) -> TradeoffScan:
    """Scan candidate sources for the one with the most trade-off
    fronts (on sparse rail networks many relations are dominated by a
    single line, so a blind source choice often shows nothing).

    Runs one multi-criteria search per candidate, keeps the source
    with the most fronts, and stops early once ``stop_after`` fronts
    are found.  Deterministic for a fixed graph and argument set.
    """
    timetable = graph.timetable
    if sources is None:
        sources = range(min(timetable.num_stations, 16))
    best: TradeoffScan | None = None
    for source in sources:
        candidate = mc_profile_search(graph, source, max_transfers=max_transfers)
        fronts = tradeoff_fronts(
            candidate,
            range(timetable.num_stations),
            departures=departures,
            min_options=min_options,
        )
        if best is None or len(fronts) > len(best.fronts):
            best = TradeoffScan(source, candidate, tuple(fronts))
        if len(best.fronts) >= stop_after:
            break
    if best is None:
        raise ValueError("scan_tradeoffs needs at least one source")
    return best


def transfer_bounded_counts(
    result: McProfileResult, station: int, budgets: Sequence[int]
) -> dict[int, int]:
    """Per transfer budget, the number of reachable optimal connections
    toward ``station`` over the whole period (the day-profile view of
    how much each extra transfer opens up)."""
    counts: dict[int, int] = {}
    for budget in budgets:
        points = result.profile_points(station, budget)
        counts[budget] = sum(1 for p in points if p[1] < INF_TIME)
    return counts
