"""Journey legs: a node path collapsed into station-level legs.

Profile searches return travel-time *functions*, not itineraries: the
label matrices hold arrival times, no parent pointers.  Every answer
with a concrete departure time — a dated ``journey``, each hop of
``via``, ``multicriteria`` and ``min_transfers`` — is read off the
transfer-layered §2 time query the facade runs at that departure
(:func:`repro.core.multicriteria.mc_time_search`, or its oracle on a
``python`` service), which records a parent per label
(:meth:`~repro.core.multicriteria.McTimeQueryResult.path_to`).  That
node path — station and route nodes of the realistic model — becomes
legs in :func:`legs_along`.

Leg semantics: ``leg.departure`` is the moment you are at
``from_station`` ready to travel (arrival there for later legs, the
requested departure for the first), so waiting and the minimum
transfer time are part of the leg and consecutive legs chain:
``legs[i].arrival == legs[i + 1].departure``.
"""

from __future__ import annotations

from repro.graph.td_arrays import TDGraphArrays
from repro.graph.td_model import TDGraph
from repro.service.model import JourneyLeg


def legs_along(
    graph: TDGraph | TDGraphArrays, path: list[tuple[int, int]]
) -> tuple[JourneyLeg, ...]:
    """The legs of a ``(node, arrival)`` path that starts at a station:
    cut at station nodes, one leg per alighting.  ``graph`` is anything
    that knows ``st(u)`` as ``node_station`` — the facade passes the
    pack, whose stations are numpy integers, so each is made a Python
    ``int`` here."""
    node_station = graph.node_station
    legs: list[JourneyLeg] = []
    start, start_time = path[0]
    for node, time in path[1:]:
        if graph.is_station_node(node):
            legs.append(
                JourneyLeg(
                    from_station=int(node_station[start]),
                    to_station=int(node_station[node]),
                    departure=start_time,
                    arrival=time,
                )
            )
            start, start_time = node, time
    return tuple(legs)
