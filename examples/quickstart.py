#!/usr/bin/env python3
"""Quickstart: profile search on a hand-built timetable.

Builds the three-train toy of the paper's Fig. 2, hands it to the
:class:`TransitService` facade (prepare once, query many), runs a
one-to-all profile search, and prints the piecewise-linear travel-time
function ``dist(S, T, ·)`` with its connection points.

Run:  python examples/quickstart.py
"""

from repro import ServiceConfig, TimetableBuilder, TransitService
from repro.timetable.periodic import format_time


def main() -> None:
    # --- 1. Describe a timetable ------------------------------------
    builder = TimetableBuilder(name="fig2-toy")
    home = builder.add_station("Home", transfer_time=2)
    hub = builder.add_station("Hub", transfer_time=5)
    work = builder.add_station("Work", transfer_time=3)

    # Three direct trains Home→Work (the three relevant departures in
    # the paper's Fig. 2) ...
    for dep, ride in ((7 * 60, 55), (8 * 60, 45), (9 * 60, 50)):
        builder.add_trip([(home, dep), (work, dep + ride)], name=f"direct-{dep}")
    # ... plus a slower alternative via the hub every 30 minutes.
    for dep in range(6 * 60 + 10, 21 * 60, 30):
        builder.add_trip(
            [(home, dep), (hub, dep + 20), (work, dep + 75)], name=f"via-hub-{dep}"
        )

    timetable = builder.build()
    print(timetable.summary())

    # --- 2. Prepare the service (graph build + packing, paid once) ----
    service = TransitService(timetable, ServiceConfig(num_threads=4))
    graph = service.graph
    print(
        f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges, "
        f"{len(graph.routes)} routes "
        f"(prepared in {service.prepare_stats.total_seconds * 1000:.1f} ms)\n"
    )

    # --- 3. One-to-all profile search (all best connections, one run) -
    result = service.profile(home)
    stats = result.stats
    print(
        f"profile search settled {stats.settled_connections} connections "
        f"over {stats.num_threads} subsets in "
        f"{stats.total_seconds * 1000:.2f} ms\n"
    )

    # --- 4. Read off the travel-time function toward Work ------------
    profile = result.profile(work)
    print(f"dist(Home, Work, ·) has {len(profile)} connection points:")
    for dep, duration in profile.connection_points():
        print(
            f"  depart {format_time(dep)}  arrive {format_time(dep + duration)}"
            f"  ({duration:3d} min)"
        )

    # --- 5. Evaluate it like a function ------------------------------
    print("\nearliest arrivals for a few departure times:")
    for query in (6 * 60, 7 * 60 + 30, 8 * 60, 12 * 60):
        arrival = profile.earliest_arrival(query)
        print(
            f"  leave at {format_time(query)} -> arrive {format_time(arrival)}"
            f"  (travel {arrival - query} min)"
        )


if __name__ == "__main__":
    main()
