#!/usr/bin/env python3
"""The fully dynamic scenario: querying under train delays (§5.1).

The paper points out that because SPCS needs no preprocessing, it can
serve timetable information under delays directly.  The
:class:`TransitService` facade packages that as
:meth:`~repro.service.TransitService.apply_delays`: a new service for
the delayed timetable that re-derives only travel-time-dependent
artifacts (graph, packed arrays) and shares the topology-only state
(station graph, transfer-station selection).  This example delays a
morning train, shows how the travel-time profile degrades, and
demonstrates slack recovery.

Run:  python examples/dynamic_delays.py
"""

from repro import Delay, ServiceConfig, TransitService, make_instance
from repro.timetable.delays import train_lateness_profile
from repro.timetable.periodic import format_time


def main() -> None:
    timetable = make_instance("germany", scale="tiny", seed=0)
    service = TransitService(timetable, ServiceConfig(num_threads=4))
    print(timetable.summary())

    source, target = 0, timetable.num_stations - 1
    baseline = service.profile(source).profile(target)
    if baseline.is_empty():
        raise SystemExit("chosen pair not connected; pick other stations")

    # Delay a morning train that actually carries best connections to
    # the target (scan the 06:00–09:00 departures for an impactful one).
    def impact(train):
        delayed = service.apply_delays([Delay(train=train, minutes=35)])
        prof = delayed.profile(source).profile(target)
        return sum(
            1
            for tau in range(0, timetable.period, 30)
            if prof.earliest_arrival(tau) > baseline.earliest_arrival(tau)
        )

    morning = [
        c
        for c in timetable.outgoing_connections(source)
        if 360 <= c.dep_time < 540
    ]
    victim, dep_time = max(
        ((c.train, c.dep_time) for c in morning),
        key=lambda pair: impact(pair[0]),
    )
    print(
        f"\ninjecting a 35-minute delay on train {victim} "
        f"(scheduled {format_time(dep_time)} from station {source})"
    )

    delayed_service = service.apply_delays([Delay(train=victim, minutes=35)])
    late_profile = train_lateness_profile(
        timetable, delayed_service.timetable, victim
    )
    print(f"per-leg lateness without recovery: {late_profile}")

    recovered_service = service.apply_delays(
        [Delay(train=victim, minutes=35)], slack_per_leg=6
    )
    print(
        "per-leg lateness with 6 min/leg slack recovery: "
        f"{train_lateness_profile(timetable, recovered_service.timetable, victim)}"
    )
    print(
        "replanning re-packed the delayed timetable in "
        f"{delayed_service.prepare_stats.total_seconds * 1000:.0f} ms "
        "(station graph shared: "
        f"{delayed_service.prepare_stats.shared_station_graph})"
    )

    # No preprocessing to repair: the delayed service answers directly.
    delayed = delayed_service.profile(source).profile(target)

    print(f"\nprofile {source} -> {target}, before vs after the delay:")
    print("  departure   planned arrival   delayed arrival")
    for tau in range(6 * 60, 12 * 60, 45):
        before = baseline.earliest_arrival(tau)
        after = delayed.earliest_arrival(tau)
        marker = "  <- degraded" if after > before else ""
        print(
            f"  {format_time(tau)}       {format_time(before)}             "
            f"{format_time(after)}{marker}"
        )

    affected = sum(
        1
        for tau in range(0, timetable.period, 10)
        if delayed.earliest_arrival(tau) > baseline.earliest_arrival(tau)
    )
    print(
        f"\n{affected * 10} minutes of the day have a worse best connection; "
        "the rest of the profile is untouched — exactly why profile "
        "queries without preprocessing suit dynamic scenarios."
    )


if __name__ == "__main__":
    main()
