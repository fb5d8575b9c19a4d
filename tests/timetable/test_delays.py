"""Tests for the fully dynamic scenario: delay injection (paper §5.1)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.label_correcting import label_correcting_profile
from repro.core.spcs import spcs_profile_search
from repro.graph.td_model import build_td_graph
from repro.timetable.delays import Delay, apply_delays, train_lateness_profile
from repro.timetable.types import Timetable
from repro.timetable.validation import validate_timetable

from tests.helpers import apply_delays_by_connection, toy_timetable
from tests.oracles.mc_time_query import mc_time_query
from tests.strategies import adversarial_timetables, delay_batches


class TestDelayDataclass:
    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError, match="non-negative"):
            Delay(train=0, minutes=-5)

    def test_rejects_negative_stop(self):
        with pytest.raises(ValueError, match="from_stop"):
            Delay(train=0, minutes=5, from_stop=-1)


class TestApplyDelays:
    def test_shifts_whole_run(self):
        tt = toy_timetable()
        delayed = apply_delays(tt, [Delay(train=0, minutes=7)])
        assert train_lateness_profile(tt, delayed, 0) == [7, 7]
        # Other trains untouched.
        assert train_lateness_profile(tt, delayed, 1) == [0, 0]

    def test_mid_run_delay(self):
        tt = toy_timetable()
        delayed = apply_delays(tt, [Delay(train=0, minutes=9, from_stop=1)])
        assert train_lateness_profile(tt, delayed, 0) == [0, 9]

    def test_slack_recovery(self):
        tt = toy_timetable()
        delayed = apply_delays(
            tt, [Delay(train=0, minutes=5)], slack_per_leg=3
        )
        # Leg 0 departs 5 late; leg 1 recovered 3 → 2 late.
        assert train_lateness_profile(tt, delayed, 0) == [5, 2]

    def test_slack_never_goes_negative(self):
        tt = toy_timetable()
        delayed = apply_delays(
            tt, [Delay(train=0, minutes=2)], slack_per_leg=10
        )
        assert train_lateness_profile(tt, delayed, 0) == [2, 0]

    def test_multiple_delays_accumulate(self):
        tt = toy_timetable()
        delayed = apply_delays(
            tt,
            [Delay(train=0, minutes=4, from_stop=0), Delay(train=0, minutes=6, from_stop=1)],
        )
        assert train_lateness_profile(tt, delayed, 0) == [4, 10]

    def test_original_untouched(self):
        tt = toy_timetable()
        snapshot = list(tt.connections)
        apply_delays(tt, [Delay(train=0, minutes=30)])
        assert tt.connections == snapshot

    def test_unknown_train_rejected(self):
        with pytest.raises(ValueError, match="unknown train"):
            apply_delays(toy_timetable(), [Delay(train=999, minutes=1)])

    def test_from_stop_at_last_departure_shifts_last_leg(self):
        """Off-by-one boundary: train 0 has 2 legs, so from_stop=1 is
        its *last* valid departure and must still take effect."""
        tt = toy_timetable()
        delayed = apply_delays(tt, [Delay(train=0, minutes=5, from_stop=1)])
        assert train_lateness_profile(tt, delayed, 0) == [0, 5]

    def test_from_stop_past_run_rejected(self):
        """Regression: a from_stop at or past the train's run length
        used to be silently ignored (the delay vanished)."""
        tt = toy_timetable()  # train 0 runs A→B→C: 2 legs, stops 0 and 1
        with pytest.raises(ValueError, match="from_stop 2 out of range"):
            apply_delays(tt, [Delay(train=0, minutes=5, from_stop=2)])
        with pytest.raises(ValueError, match="from_stop 99 out of range"):
            apply_delays(tt, [Delay(train=0, minutes=5, from_stop=99)])

    def test_from_stop_validated_per_train_run_length(self):
        """The bound is each train's own run length: stop 1 exists for
        the 2-leg train 0 but not for a 1-leg train."""
        tt = toy_timetable()
        one_leg_train = next(
            t.id
            for t in tt.trains
            if sum(c.train == t.id for c in tt.connections) == 1
        )
        with pytest.raises(ValueError, match="out of range"):
            apply_delays(tt, [Delay(train=one_leg_train, minutes=5, from_stop=1)])
        # The same from_stop on the longer train is fine.
        apply_delays(tt, [Delay(train=0, minutes=5, from_stop=1)])

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError, match="slack"):
            apply_delays(toy_timetable(), [], slack_per_leg=-1)

    def test_result_is_structurally_valid(self):
        tt = toy_timetable()
        delayed = apply_delays(tt, [Delay(train=0, minutes=45)])
        # Delays can break FIFO between sibling trains — structural
        # validity without the FIFO requirement must hold.
        validate_timetable(delayed, require_fifo=False)

    def test_delay_past_midnight_wraps(self):
        from repro.timetable.builder import TimetableBuilder

        builder = TimetableBuilder()
        a, b = builder.add_station("a"), builder.add_station("b")
        builder.add_trip([(a, 1430), (b, 1439)])
        tt = builder.build()
        delayed = apply_delays(tt, [Delay(train=0, minutes=30)])
        assert delayed.connections[0].dep_time == 20  # 00:20 next day
        validate_timetable(delayed, require_fifo=False)


class TestCompositionRule:
    """The batch composition rule the module docstring documents and
    the fleet catch-up coalescer (:mod:`repro.fleet.catchup`) relies
    on: order never matters within a batch; slack-free batches
    coalesce additively across batches; slack makes a batch a
    sequencing barrier."""

    BATCH = [
        Delay(train=0, minutes=4, from_stop=0),
        Delay(train=0, minutes=6, from_stop=1),
        Delay(train=1, minutes=9),
        Delay(train=0, minutes=3, from_stop=1),  # same-stop duplicate
    ]

    def _connections(self, timetable):
        return [
            (c.train, c.dep_station, c.arr_station, c.dep_time, c.arr_time)
            for c in timetable.connections
        ]

    def test_order_independent_within_batch(self):
        """Every permutation of one batch — including same-train and
        same-stop duplicates — yields the identical timetable, with
        and without slack."""
        import itertools

        tt = toy_timetable()
        for slack in (0, 2):
            reference = self._connections(
                apply_delays(tt, self.BATCH, slack_per_leg=slack)
            )
            for perm in itertools.permutations(self.BATCH):
                assert (
                    self._connections(
                        apply_delays(tt, list(perm), slack_per_leg=slack)
                    )
                    == reference
                ), f"permutation changed the result (slack={slack})"

    def test_same_stop_duplicates_are_additive(self):
        tt = toy_timetable()
        doubled = apply_delays(
            tt,
            [Delay(train=0, minutes=5), Delay(train=0, minutes=7)],
        )
        summed = apply_delays(tt, [Delay(train=0, minutes=12)])
        assert self._connections(doubled) == self._connections(summed)

    def test_slack_free_batches_coalesce_exactly(self):
        """Sequential slack-free batches ≡ one merged batch, bitwise —
        the soundness condition of the gateway's catch-up coalescing."""
        tt = toy_timetable()
        batch_a = [Delay(train=0, minutes=4), Delay(train=1, minutes=2)]
        batch_b = [Delay(train=0, minutes=6, from_stop=1), Delay(train=1, minutes=3)]
        sequential = apply_delays(apply_delays(tt, batch_a), batch_b)
        merged = apply_delays(tt, batch_a + batch_b)
        assert self._connections(sequential) == self._connections(merged)

    def test_slack_batches_are_sequencing_barriers(self):
        """With slack the clamp is non-linear: sequential application
        differs from the merged batch, so coalescing across a
        slack-bearing batch would be unsound."""
        tt = toy_timetable()
        batch_a = [Delay(train=0, minutes=5)]
        batch_b = [Delay(train=0, minutes=5)]
        sequential = apply_delays(
            apply_delays(tt, batch_a, slack_per_leg=3),
            batch_b,
            slack_per_leg=3,
        )
        merged = apply_delays(tt, batch_a + batch_b, slack_per_leg=3)
        # Leg 1: sequential recovers slack twice (2 + 2 = 4 late),
        # merged once on the sum (10 - 3 = 7 late).
        assert self._connections(sequential) != self._connections(merged)


def _outcome(apply, timetable, delays, slack):
    """``apply``'s delayed timetable, or the text of its refusal."""
    try:
        return apply(timetable, delays, slack_per_leg=slack)
    except ValueError as exc:
        return str(exc)


def _column_bytes(timetable):
    return [(c.dtype, c.tobytes()) for c in timetable.connection_columns()]


class TestAgainstThePerConnectionOracle:
    """``apply_delays`` walks the delayed trains' rows of the connection
    columns only; :func:`tests.helpers.apply_delays_by_connection` is
    the readable loop over every connection object it replaced."""

    @settings(
        deadline=None,
        max_examples=120,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(timetable=adversarial_timetables(), data=st.data())
    def test_chained_batches_equal_the_oracle(self, timetable, data):
        """One to three chained batches: equal connection lists, the
        carried columns equal a fresh timetable's in dtype and bytes,
        a refused batch refused with the same text, and the parent's
        columns read-only and unchanged."""
        for _ in range(data.draw(st.integers(1, 3), label="batches")):
            delays, slack = data.draw(delay_batches(timetable), label="batch")
            before = _column_bytes(timetable)
            got = _outcome(apply_delays, timetable, delays, slack)
            expected = _outcome(
                apply_delays_by_connection, timetable, delays, slack
            )
            assert _column_bytes(timetable) == before
            assert not any(
                c.flags.writeable for c in timetable.connection_columns()
            )
            if isinstance(expected, str):
                assert got == expected
                continue
            assert got.connections == expected.connections
            assert got.name == expected.name and got.period == expected.period
            fresh = Timetable(
                stations=got.stations,
                trains=got.trains,
                connections=list(got.connections),
                period=got.period,
            )
            assert _column_bytes(got) == _column_bytes(fresh)
            timetable = got

    def test_the_carried_columns_share_what_delays_never_change(self):
        tt = toy_timetable()
        delayed = apply_delays(tt, [Delay(train=0, minutes=7)])
        parent, child = tt.connection_columns(), delayed.connection_columns()
        assert all(a is b for a, b in zip(parent[:3], child[:3]))
        assert not any(np.shares_memory(a, b) for a, b in zip(parent[3:], child[3:]))
        with pytest.raises(ValueError, match="read-only"):
            child[3][0] = 0


class TestQueriesUnderDelays:
    def test_no_preprocessing_needed(self):
        """The paper's dynamic-scenario claim: after a delay, rebuild the
        graph and query — no auxiliary data to repair."""
        tt = toy_timetable()
        graph = build_td_graph(tt)
        before = mc_time_query(graph, 0, 480, max_transfers=None)
        assert before.arrival_at_station(2, 0) == 510  # 08:00 train arrives C 08:30

        # The 08:00 A→B→C train (train 0) is 25 minutes late.
        delayed_graph = build_td_graph(apply_delays(tt, [Delay(train=0, minutes=25)]))
        after = mc_time_query(delayed_graph, 0, 480, max_transfers=None)
        # Now: delayed train departs 08:25, arrives C 08:55 — still the
        # best option (next regular train 08:30 arrives 09:00).
        assert after.arrival_at_station(2, 0) == 535

    def test_spcs_equals_lc_on_delayed_network(self):
        tt = toy_timetable()
        delayed = apply_delays(
            tt,
            [Delay(train=0, minutes=25), Delay(train=9, minutes=13, from_stop=0)],
        )
        graph = build_td_graph(delayed)
        spcs = spcs_profile_search(graph, 0)
        lc = label_correcting_profile(graph, 0)
        for station in range(graph.num_stations):
            assert spcs.profile(station) == lc.profile(station, delayed.period)

    def test_delay_bounded_by_train_removal(self, oahu_tiny):
        """The sound monotonicity statement: journeys avoiding the
        delayed train are untouched, so the delayed network can never be
        *worse* than the network with the train removed outright.  (A
        naive "delays only hurt" claim is false both ways: later
        departures may newly catch the delayed train, and mid-run
        connections shift.)"""
        from repro.timetable.types import Timetable

        victim = 5
        delayed = apply_delays(oahu_tiny, [Delay(train=victim, minutes=40)])
        without = Timetable(
            stations=list(oahu_tiny.stations),
            trains=list(oahu_tiny.trains),
            connections=[
                c for c in oahu_tiny.connections if c.train != victim
            ],
            period=oahu_tiny.period,
            name="without-victim",
        )
        delayed_graph = build_td_graph(delayed)
        removed_graph = build_td_graph(without)
        for departure in (0, 430, 1000):
            with_delay = mc_time_query(
                delayed_graph, 0, departure, max_transfers=None
            )
            with_removal = mc_time_query(
                removed_graph, 0, departure, max_transfers=None
            )
            for station in range(oahu_tiny.num_stations):
                assert with_delay.arrival_at_station(
                    station, 0
                ) <= with_removal.arrival_at_station(station, 0)

    def test_delay_can_help_later_departures(self):
        """The flip side: a big delay turns a missed train into a
        catchable one."""
        tt = toy_timetable()
        graph = build_td_graph(tt)
        # Depart A at 08:05: the 08:00 train is gone; next at 08:30.
        early = mc_time_query(graph, 0, 485, max_transfers=None)
        assert early.arrival_at_station(1, 0) == 525
        # Delay the 08:00 train (train 0) by 10 minutes → departs 08:10.
        delayed_graph = build_td_graph(apply_delays(tt, [Delay(train=0, minutes=10)]))
        early = mc_time_query(delayed_graph, 0, 485, max_transfers=None)
        assert early.arrival_at_station(1, 0) == 505
