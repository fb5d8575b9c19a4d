"""Synthetic public-transportation networks.

The paper evaluates on three GTFS city feeds (Oahu, Los Angeles,
Washington D.C.) and two HaCon railway timetables (Germany, Europe),
none of which are redistributable.  These generators emit networks with
the same *shape* at laptop scale:

* :mod:`repro.synthetic.schedules` — daily departure patterns with rush
  hours and an operational night break (the cause of the equal
  time-slots partition imbalance, §3.2);
* :mod:`repro.synthetic.bus` — dense grid city bus networks (high
  connections-per-station ratio);
* :mod:`repro.synthetic.rail` — sparse hierarchical hub-and-spoke
  railway networks (low ratio — the Europe scalability anomaly, §5.1);
* :mod:`repro.synthetic.instances` — the five named instances mirroring
  the paper's inputs, with a ``scale`` knob;
* :mod:`repro.synthetic.workloads` — reproducible random query sets;
* :mod:`repro.synthetic.delays` — seeded GTFS-RT-style delay streams
  (rush-hour cascades, rolling disruptions, line closures, recoveries),
  the delay batches the benchmarks and the fleet tests post.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.synthetic.schedules": ("SchedulePattern", "daily_departures"),
        "repro.synthetic.bus": ("BusNetworkConfig", "generate_bus_network"),
        "repro.synthetic.rail": ("RailNetworkConfig", "generate_rail_network"),
        "repro.synthetic.instances": (
            "INSTANCE_NAMES",
            "instance_config",
            "make_instance",
        ),
        "repro.synthetic.workloads": (
            "random_sources",
            "random_station_pairs",
        ),
        "repro.synthetic.delays": (
            "STREAM_SHAPES",
            "DelayEvent",
            "DelayStream",
            "generate_delay_stream",
        ),
    },
)

__all__ = [
    "SchedulePattern",
    "daily_departures",
    "BusNetworkConfig",
    "generate_bus_network",
    "RailNetworkConfig",
    "generate_rail_network",
    "INSTANCE_NAMES",
    "instance_config",
    "make_instance",
    "random_sources",
    "random_station_pairs",
    "STREAM_SHAPES",
    "DelayEvent",
    "DelayStream",
    "generate_delay_stream",
]
