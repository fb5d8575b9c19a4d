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
  (rush-hour cascades, rolling disruptions, line closures, recoveries)
  for the replay harness (:mod:`repro.streams`).
"""

from repro.synthetic.schedules import SchedulePattern, daily_departures
from repro.synthetic.bus import BusNetworkConfig, generate_bus_network
from repro.synthetic.rail import RailNetworkConfig, generate_rail_network
from repro.synthetic.instances import (
    INSTANCE_NAMES,
    instance_config,
    make_instance,
)
from repro.synthetic.workloads import random_sources, random_station_pairs
from repro.synthetic.delays import STREAM_SHAPES, generate_delay_stream

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
    "generate_delay_stream",
]
