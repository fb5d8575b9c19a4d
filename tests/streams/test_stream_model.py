"""The delay stream's invariants and the synthetic stream generator."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.synthetic.delays import (
    STREAM_SHAPES,
    DelayEvent,
    DelayStream,
    generate_delay_stream,
)
from repro.synthetic.instances import make_instance
from repro.timetable.delays import Delay, apply_delays
from repro.timetable.types import Timetable

from tests.helpers import random_line_timetable

#: Every shape whose batches the cap bounds: a line closure holds every
#: train of its route, however many.
CAPPED_SHAPES = tuple(s for s in STREAM_SHAPES if s != "line_closure")


def _stream(**overrides) -> DelayStream:
    events = (
        DelayEvent(t_offset_s=0.5, delays=(Delay(train=0, minutes=7),)),
        DelayEvent(
            t_offset_s=2.0,
            delays=(
                Delay(train=1, minutes=3, from_stop=1),
                Delay(train=0, minutes=2),
            ),
            slack_per_leg=2,
        ),
    )
    fields = dict(
        name="unit", seed=4, period=1440, num_trains=10, events=events
    )
    fields.update(overrides)
    return DelayStream(**fields)


class TestModel:
    def test_rejects_unordered_offsets(self):
        events = (
            DelayEvent(t_offset_s=5.0, delays=(Delay(train=0, minutes=1),)),
            DelayEvent(t_offset_s=1.0, delays=(Delay(train=0, minutes=1),)),
        )
        with pytest.raises(ValueError, match="non-decreasing"):
            _stream(events=events)

    def test_event_validation(self):
        with pytest.raises(ValueError, match="t_offset_s"):
            DelayEvent(t_offset_s=-1.0, delays=(Delay(train=0, minutes=1),))
        with pytest.raises(ValueError, match="at least one"):
            DelayEvent(t_offset_s=0.0, delays=())

    def test_event_rejects_negative_slack(self):
        with pytest.raises(ValueError, match="slack_per_leg"):
            DelayEvent(
                t_offset_s=0.0,
                delays=(Delay(train=0, minutes=1),),
                slack_per_leg=-1,
            )

    def test_tied_offsets_are_in_order(self):
        """A zero-duration stream posts every event at offset 0."""
        events = tuple(
            DelayEvent(t_offset_s=1.0, delays=(Delay(train=t, minutes=1),))
            for t in range(3)
        )
        assert _stream(events=events).duration_s == 1.0

    def test_events_and_streams_are_frozen(self):
        stream = _stream()
        with pytest.raises(dataclasses.FrozenInstanceError):
            stream.seed = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            stream.events[0].slack_per_leg = 3

    def test_duration_and_counts(self):
        stream = _stream()
        assert stream.num_events == 2
        assert stream.duration_s == 2.0
        assert DelayStream(
            name="empty", seed=0, period=1440, num_trains=1
        ).duration_s == 0.0


class TestGenerator:
    @pytest.fixture(scope="class")
    def timetable(self):
        return make_instance("oahu", scale="tiny")

    def test_deterministic_in_seed(self, timetable):
        a = generate_delay_stream(timetable, seed=3, num_events=12)
        b = generate_delay_stream(timetable, seed=3, num_events=12)
        c = generate_delay_stream(timetable, seed=4, num_events=12)
        assert a == b
        assert a != c

    def test_pins_the_timetable(self, timetable):
        stream = generate_delay_stream(timetable, seed=1, num_events=3)
        assert stream.period == timetable.period
        assert stream.num_trains == timetable.num_trains

    def test_every_event_applies_cleanly(self, timetable):
        """Generated delays always respect each train's run length —
        ``apply_delays`` validates ``from_stop`` and would reject a
        delay past the last departure."""
        stream = generate_delay_stream(timetable, seed=7, num_events=25)
        current = timetable
        for event in stream.events:
            current = apply_delays(
                current, list(event.delays),
                slack_per_leg=event.slack_per_leg,
            )
        assert current.num_trains == timetable.num_trains

    def test_shape_restriction(self, timetable):
        stream = generate_delay_stream(
            timetable, seed=2, num_events=8, shapes=("recovering_delay",)
        )
        assert all(e.slack_per_leg >= 1 for e in stream.events)
        closed = generate_delay_stream(
            timetable, seed=2, num_events=4, shapes=("line_closure",)
        )
        # A closure holds every train of one route from its first stop.
        assert all(
            all(d.from_stop == 0 for d in e.delays) for e in closed.events
        )

    def test_respects_bounds(self, timetable):
        stream = generate_delay_stream(
            timetable,
            seed=5,
            num_events=10,
            duration_s=30.0,
            shapes=("rush_hour_cascade", "rolling_disruption"),
            max_trains_per_event=3,
        )
        assert stream.num_events == 10
        assert stream.duration_s <= 30.0
        assert all(len(e.delays) <= 3 for e in stream.events)

    def test_rejects_bad_arguments(self, timetable):
        with pytest.raises(ValueError, match="num_events"):
            generate_delay_stream(timetable, num_events=0)
        with pytest.raises(ValueError, match="unknown stream shapes"):
            generate_delay_stream(timetable, shapes=("bogus",))
        with pytest.raises(ValueError, match="max_trains_per_event"):
            generate_delay_stream(timetable, max_trains_per_event=0)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(num_events=-3), "num_events must be >= 1, got -3"),
            (dict(duration_s=-1.0), "duration_s must be >= 0, got -1.0"),
            (
                dict(max_trains_per_event=-1),
                "max_trains_per_event must be >= 1, got -1",
            ),
            (
                dict(shapes=("line_closure", "bogus")),
                r"unknown stream shapes \['bogus'\]",
            ),
        ],
    )
    def test_refuses_an_argument_with_its_value(
        self, timetable, overrides, message
    ):
        with pytest.raises(ValueError, match=message):
            generate_delay_stream(timetable, **overrides)

    def test_refuses_a_timetable_without_connections(self):
        empty = Timetable(stations=[], trains=[], connections=[])
        with pytest.raises(ValueError, match="no connections"):
            generate_delay_stream(empty)

    @pytest.mark.parametrize("shape", STREAM_SHAPES)
    def test_each_shape_alone_applies_cleanly(self, timetable, shape):
        """Every batch of one shape names real trains and stops inside
        each train's run, so ``apply_delays`` takes it as it is."""
        stream = generate_delay_stream(
            timetable, seed=9, num_events=12, shapes=(shape,)
        )
        for event in stream.events:
            trains = [d.train for d in event.delays]
            assert all(0 <= t < timetable.num_trains for t in trains)
            assert all(d.minutes > 0 for d in event.delays)
            delayed = apply_delays(
                timetable, list(event.delays),
                slack_per_leg=event.slack_per_leg,
            )
            assert delayed.num_trains == timetable.num_trains
        if shape == "recovering_delay":
            assert all(1 <= e.slack_per_leg <= 4 for e in stream.events)
        else:
            assert all(e.slack_per_leg == 0 for e in stream.events)

    def test_zero_duration_puts_every_event_at_the_start(self, timetable):
        stream = generate_delay_stream(
            timetable, seed=42, num_events=24, duration_s=0.0
        )
        assert stream.num_events == 24
        assert all(e.t_offset_s == 0.0 for e in stream.events)
        assert stream.duration_s == 0.0

    def test_name_defaults_to_the_timetable_and_seed(self, timetable):
        stream = generate_delay_stream(timetable, seed=6, num_events=2)
        assert stream.name == f"{timetable.name}-delays-s6"
        named = generate_delay_stream(
            timetable, seed=6, num_events=2, name="storm"
        )
        assert named.name == "storm"
        assert named.events == stream.events

    def test_composes_with_random_line_instances(self):
        timetable = random_line_timetable(11, num_stations=8, num_lines=5)
        stream = generate_delay_stream(timetable, seed=0, num_events=6)
        assert stream.num_events == 6
        assert set(STREAM_SHAPES) >= {
            "rush_hour_cascade", "line_closure",
        }

    @pytest.mark.parametrize("cap", [1, 2, 3, 4, 5])
    def test_every_capped_event_touches_at_most_cap_trains(
        self, timetable, cap
    ):
        """The cap holds for every shape but ``line_closure``, a cap of
        1 included (a cascade then delays one train)."""
        stream = generate_delay_stream(
            timetable,
            seed=0,
            num_events=40,
            shapes=CAPPED_SHAPES,
            max_trains_per_event=cap,
        )
        assert all(
            len({d.train for d in event.delays}) <= cap
            for event in stream.events
        )


#: sha256 of the batches ``e2ebench``'s ``delay_replay`` posts in runs
#: 0, 1 and 2: a generator change that moves them moves the benchmark's
#: operations, and runs recorded before it stop being comparable.
DELAY_REPLAY_DIGEST = (
    "eb1605f182af5c02cb64611fc053ad5e4e43d66e4b58b7a704afb35fac071b2e"
)


def test_the_delay_replay_benchmark_draws_the_same_batches():
    """A ``delay_replay`` run posts the events of one stream: cap 5, no
    line closure, seeded by the run's first draw."""
    from e2ebench.workloads import (
        _DELAY_SHAPES,
        _MAX_TRAINS_PER_BATCH,
        RUN_SECONDS,
        WORKLOADS,
        _rng,
        scaled,
    )

    workload = WORKLOADS["delay_replay"]
    timetable = make_instance(workload.instance, scale=workload.scale)
    digest = hashlib.sha256()
    for run in range(3):
        stream = generate_delay_stream(
            timetable,
            seed=_rng(workload, run).randrange(2**31),
            num_events=workload.warmup + scaled(workload.ops, RUN_SECONDS),
            duration_s=0.0,
            shapes=_DELAY_SHAPES,
            max_trains_per_event=_MAX_TRAINS_PER_BATCH,
        )
        batches = [
            (
                event.t_offset_s,
                event.slack_per_leg,
                [(d.train, d.minutes, d.from_stop) for d in event.delays],
            )
            for event in stream.events
        ]
        digest.update(repr(batches).encode())
    assert digest.hexdigest() == DELAY_REPLAY_DIGEST
