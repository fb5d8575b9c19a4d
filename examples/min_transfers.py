#!/usr/bin/env python3
"""Multi-criteria profile search: arrival time vs number of transfers.

Implements the paper's §6 future-work challenge ("incorporate
multi-criteria connections, e.g., minimizing the number of transfers
... keep up the connection-setting property and find efficient
criteria for self-pruning") and shows the resulting Pareto fronts on a
rail network, where transfer-count trade-offs actually occur.

The scan/report logic lives in :mod:`repro.query.min_transfers`, over
the whole-day search (``mc_profile_search``); this example only prints.
The served ``min-transfers`` request shape answers one departure with
a search at that departure instead (``service.min_transfers``).

Run:  python examples/min_transfers.py
"""

from repro import build_td_graph, make_instance
from repro.query.min_transfers import scan_tradeoffs, transfer_bounded_counts
from repro.timetable.periodic import format_time


def main() -> None:
    timetable = make_instance("germany", scale="small", seed=0)
    graph = build_td_graph(timetable)
    print(timetable.summary())

    # Scan a few sources for fronts that actually show trade-offs (on
    # sparse rail networks many relations are dominated by one line).
    scan = scan_tradeoffs(graph)
    source, result = scan.source, scan.result

    stats = result.stats
    print(
        f"\nmulti-criteria profile search from station {source}: "
        f"{stats.settled} settled (node, connection, transfers) triples, "
        f"{stats.pruned} dominance-pruned\n"
    )

    print("Pareto fronts with genuine speed-vs-convenience trade-offs:")
    for front in scan.fronts[:5]:
        name = timetable.stations[front.station].name
        print(
            f"\n  to {name} (station {front.station}), "
            f"departing {format_time(front.departure)}:"
        )
        for transfers, arrival in front.options:
            label = "transfer" if transfers == 1 else "transfers"
            print(
                f"    {transfers} {label:9s} -> arrive {format_time(arrival)}"
            )
    if not scan.fronts:
        print("  (no trade-offs found — the network is transfer-free)")

    # Compare the fastest-overall vs fewest-transfer connection.
    print("\ntransfer-bounded day profiles toward one satellite station:")
    target = next(
        s.id for s in timetable.stations if "sat-" in s.name and s.id != source
    )
    for budget, reachable in transfer_bounded_counts(
        result, target, (0, 1, 4)
    ).items():
        print(
            f"  ≤{budget} transfers: {reachable:3d} optimal "
            f"connections over the day"
        )


if __name__ == "__main__":
    main()
