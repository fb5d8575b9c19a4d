"""Seeded synthetic delay streams (GTFS-RT-shaped event feeds).

Generates the live-traffic half of the dynamic scenario the paper
claims SPCS handles without preprocessing (§5.1): a timestamped
sequence of delay batches against one synthetic timetable, with the
disruption shapes real feeds exhibit:

* **rush-hour cascade** — consecutive trains of one route pick up
  growing knock-on delays from a mid-route stop, the classic
  headway-compression pattern;
* **rolling disruption** — moderate independent delays hopping across
  unrelated trains (weather, staffing);
* **line closure** — every train of one route held heavily from its
  first stop (signal failure on the line);
* **recovering delay** — a large hit paired with per-leg slack, so the
  lateness decays downstream (drivers making time back).  Note delays
  can never *reduce* prior lateness (``repro.timetable.delays``:
  lateness resets per batch), so recovery is always modelled as slack
  inside one batch, never as a negative follow-up.

Everything is driven by one :class:`random.Random` seed — same
timetable, same seed, same stream, which is what lets the
``delay_replay`` benchmark and the fleet tests post the same batches
on every run.  Each event is one wire-shaped delay batch (the
``delays`` + ``slack_per_leg`` the ``/delays`` endpoint accepts), so
posting an event is one ``apply``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.timetable.delays import Delay
from repro.timetable.routes import partition_routes
from repro.timetable.types import Timetable

__all__ = [
    "STREAM_SHAPES",
    "DelayEvent",
    "DelayStream",
    "generate_delay_stream",
]

STREAM_SHAPES = (
    "rush_hour_cascade",
    "rolling_disruption",
    "line_closure",
    "recovering_delay",
)


@dataclass(frozen=True, slots=True)
class DelayEvent:
    """One timestamped delay batch; ``t_offset_s`` is seconds from
    stream start."""

    t_offset_s: float
    delays: tuple[Delay, ...]
    slack_per_leg: int = 0

    def __post_init__(self) -> None:
        if self.t_offset_s < 0:
            raise ValueError(
                f"t_offset_s must be >= 0, got {self.t_offset_s}"
            )
        if not self.delays:
            raise ValueError("an event needs at least one delay")
        if self.slack_per_leg < 0:
            raise ValueError(
                f"slack_per_leg must be >= 0, got {self.slack_per_leg}"
            )


@dataclass(frozen=True, slots=True)
class DelayStream:
    """A named, seeded sequence of delay events (offsets ascending)
    against the timetable ``period`` / ``num_trains`` describe."""

    name: str
    seed: int
    period: int
    num_trains: int
    events: tuple[DelayEvent, ...] = field(default=())

    def __post_init__(self) -> None:
        for earlier, later in zip(self.events, self.events[1:]):
            if later.t_offset_s < earlier.t_offset_s:
                raise ValueError("event offsets must be non-decreasing")

    @property
    def num_events(self) -> int:
        return len(self.events)

    @property
    def duration_s(self) -> float:
        return self.events[-1].t_offset_s if self.events else 0.0


def _train_legs(timetable: Timetable) -> dict[int, int]:
    legs: dict[int, int] = {}
    for c in timetable.connections:
        legs[c.train] = legs.get(c.train, 0) + 1
    return legs


def generate_delay_stream(
    timetable: Timetable,
    *,
    seed: int = 0,
    num_events: int = 20,
    duration_s: float = 10.0,
    shapes: tuple[str, ...] = STREAM_SHAPES,
    max_trains_per_event: int = 5,
    name: str | None = None,
) -> DelayStream:
    """A seeded stream of ``num_events`` delay batches spread over
    ``duration_s`` seconds of stream time.

    ``shapes`` restricts which disruption patterns occur (each event
    draws one uniformly); ``max_trains_per_event`` caps the batch size
    for every shape except ``line_closure``, which by nature touches
    every train of the closed route.
    """
    if num_events < 1:
        raise ValueError(f"num_events must be >= 1, got {num_events}")
    if duration_s < 0:
        raise ValueError(f"duration_s must be >= 0, got {duration_s}")
    if max_trains_per_event < 1:
        raise ValueError(
            f"max_trains_per_event must be >= 1, got {max_trains_per_event}"
        )
    unknown = set(shapes) - set(STREAM_SHAPES)
    if unknown:
        raise ValueError(
            f"unknown stream shapes {sorted(unknown)}; "
            f"valid: {list(STREAM_SHAPES)}"
        )
    if not timetable.connections:
        raise ValueError("timetable has no connections")

    rng = random.Random(seed)
    routes = partition_routes(timetable)
    legs = _train_legs(timetable)

    # Uniform arrival times over the stream window, sorted — bursts
    # emerge naturally from the uniform draw, matching the "trickle
    # with occasional pile-ups" character of real feeds.
    offsets = sorted(rng.uniform(0.0, duration_s) for _ in range(num_events))

    events = []
    for t_offset in offsets:
        shape = shapes[rng.randrange(len(shapes))]
        route = routes[rng.randrange(len(routes))]
        slack = 0
        if shape == "rush_hour_cascade":
            # Consecutive trains of one line, knock-on growth from a
            # shared mid-route stop; two or more unless the cap is 1.
            low = min(2, max_trains_per_event)
            count = min(
                len(route.trains), rng.randint(low, max_trains_per_event)
            )
            first = rng.randrange(len(route.trains) - count + 1)
            trains = route.trains[first : first + count]
            stop = rng.randrange(route.num_legs)
            base = rng.randint(2, 8)
            delays = tuple(
                Delay(
                    train=train,
                    minutes=base + 2 * i,
                    from_stop=min(stop, legs[train] - 1),
                )
                for i, train in enumerate(trains)
            )
        elif shape == "rolling_disruption":
            count = rng.randint(1, max_trains_per_event)
            picked = rng.sample(
                sorted(legs), min(count, len(legs))
            )
            delays = tuple(
                Delay(
                    train=train,
                    minutes=rng.randint(3, 20),
                    from_stop=rng.randrange(legs[train]),
                )
                for train in picked
            )
        elif shape == "line_closure":
            # The whole line held from its first stop.
            minutes = rng.randint(30, 120)
            delays = tuple(
                Delay(train=train, minutes=minutes, from_stop=0)
                for train in route.trains
            )
        else:  # recovering_delay
            count = rng.randint(1, max_trains_per_event)
            picked = rng.sample(sorted(legs), min(count, len(legs)))
            slack = rng.randint(1, 4)
            delays = tuple(
                Delay(
                    train=train,
                    minutes=rng.randint(15, 45),
                    from_stop=rng.randrange(legs[train]),
                )
                for train in picked
            )
        events.append(
            DelayEvent(
                t_offset_s=t_offset, delays=delays, slack_per_leg=slack
            )
        )

    return DelayStream(
        name=name or f"{timetable.name or 'timetable'}-delays-s{seed}",
        seed=seed,
        period=timetable.period,
        num_trains=timetable.num_trains,
        events=tuple(events),
    )
