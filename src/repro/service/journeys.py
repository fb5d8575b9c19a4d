"""Journey legs: a node path collapsed into station-level legs.

Profile searches return travel-time *functions*, not itineraries: the
label matrices hold arrival times, no parent pointers.  For an actual
journey at a concrete departure time the facade runs the paper's §2
time-query (:func:`repro.baselines.time_query.time_query` — the
implementation every profile search is verified against at each
departure anchor) with parent tracking (:func:`reconstruct_legs`).  The
transfer-layered time queries of ``multicriteria`` / ``min_transfers``
record parents themselves
(:meth:`~repro.core.multicriteria.McTimeQueryResult.path_to`).  Either
node path — station and route nodes of the realistic model — becomes
legs in :func:`legs_along`.

Leg semantics: ``leg.departure`` is the moment you are at
``from_station`` ready to travel (arrival there for later legs, the
requested departure for the first), so waiting and the minimum
transfer time are part of the leg and consecutive legs chain:
``legs[i].arrival == legs[i + 1].departure``.
"""

from __future__ import annotations

from repro.baselines.time_query import time_query
from repro.functions.piecewise import INF_TIME
from repro.graph.td_model import TDGraph
from repro.service.model import JourneyLeg


def reconstruct_legs(
    graph: TDGraph,
    source: int,
    target: int,
    departure: int,
    *,
    queue: str = "binary",
) -> tuple[tuple[JourneyLeg, ...] | None, int, int]:
    """Return ``(legs, arrival, settled)`` for the earliest journey;
    ``settled`` is the time query's work (0 when nothing ran).

    ``legs`` is ``None`` when the target is unreachable (``arrival``
    is then :data:`INF_TIME`); an empty tuple when ``source ==
    target``.
    """
    if source == target:
        return (), departure, 0

    result = time_query(
        graph,
        source,
        departure,
        target=target,
        queue=queue,
        track_parents=True,
    )
    if result.arrival[target] >= INF_TIME:
        return None, INF_TIME, result.settled

    arrival = result.arrival
    path = [(node, arrival[node]) for node in result.path_to(target)]
    return legs_along(graph, path), arrival[target], result.settled


def legs_along(
    graph: TDGraph, path: list[tuple[int, int]]
) -> tuple[JourneyLeg, ...]:
    """The legs of a ``(node, arrival)`` path that starts at a station:
    cut at station nodes, one leg per alighting."""
    legs: list[JourneyLeg] = []
    start, start_time = path[0]
    for node, time in path[1:]:
        if graph.is_station_node(node):
            legs.append(
                JourneyLeg(
                    from_station=graph.station_of(start),
                    to_station=graph.station_of(node),
                    departure=start_time,
                    arrival=time,
                )
            )
            start, start_time = node, time
    return tuple(legs)
