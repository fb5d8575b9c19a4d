"""Live delay streams: stream model, replay harness, metrics.

The operational layer over the serving stack (ROADMAP item 2): a
:class:`~repro.streams.model.DelayStream` is a timestamped sequence of
delay batches (GTFS-RT-style, generated by
:func:`repro.synthetic.delays.generate_delay_stream` or loaded from
JSON), and :func:`~repro.streams.replay.replay_stream` drives a live
``serve``/``serve-fleet`` target with the stream's delay traffic
interleaved with closed-loop query traffic, recording swap latency,
replans per second and failed requests.

Exposed on the CLI as ``repro delay-stream`` (generate) and ``repro
replay`` (drive).  See ``docs/STREAMS.md``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.streams.model": (
            "DelayEvent",
            "DelayStream",
            "StreamFormatError",
        ),
        "repro.streams.metrics": ("ReplayMetrics",),
        "repro.streams.replay": (
            "ReplayConfig",
            "ReplayError",
            "ReplayReport",
            "replay_stream",
        ),
    },
)

__all__ = [
    "DelayEvent",
    "DelayStream",
    "ReplayConfig",
    "ReplayError",
    "ReplayMetrics",
    "ReplayReport",
    "StreamFormatError",
    "replay_stream",
]
