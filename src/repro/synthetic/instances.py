"""Named instances mirroring the paper's five inputs.

Paper inputs and their shapes:

================  ========  ==============  ==================
input             stations  connections      connections/station
================  ========  ==============  ==================
Oahu                 3 918      1 408 559      ≈ 360  (dense bus)
Los Angeles         15 792      5 023 877      ≈ 318  (dense bus)
Washington D.C.     10 764      3 387 987      ≈ 315  (dense bus)
Germany              6 822        554 996      ≈  81  (rail)
Europe              30 517      1 775 533      ≈  58  (sparse rail)
================  ========  ==============  ==================

Scaled instances keep the *ratio contrast* (bus ≫ rail) and relative
size ordering at pure-Python-friendly node counts.  The ``scale`` knob:

* ``tiny``  — seconds per experiment; used by the test suite;
* ``small`` — default for benchmarks (minutes for the full suite);
* ``medium`` — closer to paper ratios; for manual runs.
"""

from __future__ import annotations



from repro.synthetic.bus import BusNetworkConfig, generate_bus_network
from repro.synthetic.rail import RailNetworkConfig, generate_rail_network
from repro.timetable.types import Timetable

INSTANCE_NAMES = ("oahu", "losangeles", "washington", "germany", "europe")

#: Bus shapes are *corridor-like*: long routes and few crossings, so the
#: station graph is chain-heavy (most stations have degree ≤ 2) like real
#: stop sequences along roads — the property that lets small transfer-
#: station fractions separate the network (paper §4/Table 2).
_BUS_BASE = {
    # name: (width, height, routes, min_len, max_len, headway_range)
    "oahu": (8, 6, 10, 5, 14, (9, 22)),
    "losangeles": (13, 9, 18, 6, 22, (10, 24)),
    "washington": (11, 8, 14, 6, 19, (10, 23)),
}

_RAIL_BASE = {
    # name: (hubs, satellites, intercity lines)
    "germany": (7, 5, 6),
    "europe": (12, 6, 10),
}

_SCALE_FACTORS = {"tiny": 0.55, "small": 1.0, "medium": 1.8}


def instance_config(
    name: str, scale: str = "small", seed: int = 0
) -> BusNetworkConfig | RailNetworkConfig:
    """Configuration for a named instance at a given scale."""
    if scale not in _SCALE_FACTORS:
        raise ValueError(
            f"unknown scale {scale!r}; choose from {sorted(_SCALE_FACTORS)}"
        )
    factor = _SCALE_FACTORS[scale]
    if name in _BUS_BASE:
        width, height, routes, min_len, max_len, headway = _BUS_BASE[name]
        return BusNetworkConfig(
            width=max(3, round(width * factor)),
            height=max(3, round(height * factor)),
            num_routes=max(4, round(routes * factor)),
            min_route_length=max(2, round(min_len * factor)),
            max_route_length=max(4, round(max_len * factor)),
            headway_range=headway,
            seed=seed,
            name=name,
        )
    if name in _RAIL_BASE:
        hubs, satellites, lines = _RAIL_BASE[name]
        return RailNetworkConfig(
            num_hubs=max(3, round(hubs * factor)),
            satellites_per_hub=max(2, round(satellites * factor)),
            num_intercity_lines=max(2, round(lines * factor)),
            seed=seed,
            name=name,
        )
    raise ValueError(
        f"unknown instance {name!r}; choose from {INSTANCE_NAMES}"
    )


def make_instance(name: str, scale: str = "small", seed: int = 0) -> Timetable:
    """Generate a named instance (deterministic in ``seed``)."""
    config = instance_config(name, scale, seed)
    if isinstance(config, BusNetworkConfig):
        return generate_bus_network(config)
    return generate_rail_network(config)
