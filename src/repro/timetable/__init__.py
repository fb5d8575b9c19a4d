"""Periodic timetable model (paper §2).

A periodic timetable is a tuple ``(C, S, Z, Π, T)``: elementary
connections, stations, trains, discrete time points, and per-station
minimum transfer times.  This package provides the data model, periodic
time arithmetic, route partitioning, validation, a fluent builder, and
GTFS-like CSV input/output.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.timetable.periodic": (
            "DAY_MINUTES",
            "PeriodicTime",
            "delta",
            "format_time",
            "normalize",
            "parse_time",
        ),
        "repro.timetable.types": (
            "Connection",
            "Route",
            "Station",
            "Timetable",
            "Train",
        ),
        "repro.timetable.routes": ("partition_routes",),
        "repro.timetable.builder": ("TimetableBuilder",),
        "repro.timetable.delays": (
            "Delay",
            "apply_delays",
            "train_lateness_profile",
        ),
        "repro.timetable.validation": ("TimetableError", "validate_timetable"),
    },
)

__all__ = [
    "DAY_MINUTES",
    "PeriodicTime",
    "delta",
    "normalize",
    "parse_time",
    "format_time",
    "Station",
    "Train",
    "Connection",
    "Route",
    "Timetable",
    "partition_routes",
    "TimetableBuilder",
    "Delay",
    "apply_delays",
    "train_lateness_profile",
    "TimetableError",
    "validate_timetable",
]
