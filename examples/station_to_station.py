#!/usr/bin/env python3
"""Station-to-station queries with distance-table acceleration
(paper §4, Figs. 3–4) through the :class:`TransitService` facade.

On a synthetic city bus network: one service prepared *with* the
distance table (transfer stations by contraction), one without, then
the same queries on both — acceleration must be lossless.  The
prepared artifacts (station graph, transfer stations) are read off the
service for the via-station inspection.

Run:  python examples/station_to_station.py
"""

import numpy as np

from repro import ServiceConfig, TransitService, make_instance
from repro.query.via import compute_via_stations
from repro.timetable.periodic import format_time


def main() -> None:
    timetable = make_instance("washington", scale="tiny", seed=1)
    print(timetable.summary())

    # --- prepare once: graph, pack, transfer stations, table ---------
    accelerated = TransitService(
        timetable,
        ServiceConfig(
            use_distance_table=True,
            transfer_selection="contraction",
            transfer_fraction=0.25,
        ),
    )
    prepared = accelerated.prepared
    table = accelerated.table
    print(
        f"\ntransfer stations (contraction, 25%): "
        f"{prepared.transfer_stations.tolist()}"
    )
    print(
        f"distance table: {table.num_transfer_stations}² profiles, "
        f"{table.size_mib() * 1024:.1f} KiB, built in {table.build_seconds:.2f} s"
    )

    # A second service over the same timetable, stopping criterion only.
    plain = TransitService(timetable, ServiceConfig())

    # --- local and via stations of a target (paper Fig. 3) -----------
    mask = np.zeros(timetable.num_stations, dtype=bool)
    mask[prepared.transfer_stations] = True
    target = int(np.nonzero(~mask)[0][-1])
    via_info = compute_via_stations(prepared.station_graph, target, mask)
    print(f"\ntarget station {target}:")
    print(f"  local(T) = {sorted(via_info.local_stations)}")
    print(f"  via(T)   = {sorted(via_info.via_stations)}")

    # --- accelerated vs plain queries ---------------------------------
    rng = np.random.default_rng(7)
    print("\nsource -> target   class    settled (accel)  settled (plain)")
    total_accel = total_plain = 0
    for _ in range(8):
        s = int(rng.integers(0, timetable.num_stations))
        if s == target:
            continue
        fast = accelerated.journey(s, target)
        slow = plain.journey(s, target)
        assert fast.profile == slow.profile  # acceleration is lossless
        total_accel += fast.stats.settled_connections
        total_plain += slow.stats.settled_connections
        print(
            f"  {s:4d} -> {target:4d}     {fast.stats.classification:7s} "
            f"{fast.stats.settled_connections:10d} "
            f"{slow.stats.settled_connections:16d}"
        )
    print(
        f"\ntotal settled connections: {total_accel} with the table vs "
        f"{total_plain} with the stopping criterion only"
    )

    # --- show one full answer, with concrete legs ---------------------
    source = int(rng.integers(0, timetable.num_stations - 1))
    answer = accelerated.journey(source, target, departure=8 * 60)
    print(f"\nall best connections {source} -> {target} over the day:")
    for dep, dur in answer.profile.connection_points()[:10]:
        print(
            f"  depart {format_time(dep)}  arrive {format_time(dep + dur)}"
            f"  ({dur} min)"
        )
    if len(answer.profile) > 10:
        print(f"  ... and {len(answer.profile) - 10} more")
    if answer.legs:
        print(f"\nleaving at {format_time(8 * 60)}, the journey itself:")
        for leg in answer.legs:
            print(
                f"  {leg.from_station:4d} -> {leg.to_station:4d}  "
                f"ready {format_time(leg.departure)}  "
                f"arrive {format_time(leg.arrival)}"
            )


if __name__ == "__main__":
    main()
