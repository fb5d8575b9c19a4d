"""Catch-up coalescing: the per-dataset delay log collapses into a
bounded replay plan (``repro.fleet.catchup``), and a worker rejoining
after a long stream catches up in O(slack barriers + 1) posts with
generation accounting unchanged."""

from __future__ import annotations

import json

import pytest

from repro.client import connect
from repro.fleet.catchup import coalesce_delay_log
from repro.service import TransitService
from repro.timetable.delays import Delay, apply_delays

from tests.fleet.test_swap_fleet import PAIRS, _profiles
from tests.helpers import toy_timetable


def _entry(delays, *, slack=0, replan=None) -> bytes:
    body: dict = {"delays": delays}
    if slack:
        body["slack_per_leg"] = slack
    if replan:
        body["replan"] = replan
    return json.dumps(body).encode()


class TestCoalescePlan:
    def test_slack_free_run_merges_into_one_post(self):
        entries = [
            _entry([{"train": 0, "minutes": 4}]),
            _entry([{"train": 0, "minutes": 6}, {"train": 1, "minutes": 2}]),
            _entry([{"train": 1, "minutes": 3, "from_stop": 1}]),
        ]
        plan = coalesce_delay_log(entries)
        assert len(plan) == 1
        body, represented = plan[0]
        assert represented == 3
        assert body["generations"] == 3
        assert body["delays"] == [
            {"train": 0, "minutes": 10},
            {"train": 1, "minutes": 2},
            {"train": 1, "minutes": 3, "from_stop": 1},
        ]

    def test_slack_entry_is_a_barrier(self):
        entries = [
            _entry([{"train": 0, "minutes": 1}]),
            _entry([{"train": 0, "minutes": 2}]),
            _entry([{"train": 1, "minutes": 9}], slack=3),
            _entry([{"train": 0, "minutes": 4}]),
            _entry([{"train": 1, "minutes": 5}]),
        ]
        plan = coalesce_delay_log(entries)
        assert [represented for _, represented in plan] == [2, 1, 2]
        assert plan[1][0]["slack_per_leg"] == 3
        assert sum(r for _, r in plan) == len(entries)

    def test_singleton_runs_pass_through_unchanged(self):
        entries = [_entry([{"train": 2, "minutes": 7}], replan="incremental")]
        plan = coalesce_delay_log(entries)
        assert plan == [({"delays": [{"train": 2, "minutes": 7}],
                          "replan": "incremental"}, 1)]
        assert "generations" not in plan[0][0]

    def test_empty_log_empty_plan(self):
        assert coalesce_delay_log([]) == []

    def test_plan_replay_is_bitwise_equal_to_sequential(self):
        """The soundness claim itself: replaying the plan against a
        timetable yields the identical connections as replaying every
        logged batch one by one — including across a slack barrier."""
        entries = [
            _entry([{"train": 0, "minutes": 4}]),
            _entry([{"train": 0, "minutes": 6, "from_stop": 1}]),
            _entry([{"train": 0, "minutes": 5}], slack=3),
            _entry([{"train": 1, "minutes": 2}]),
            _entry([{"train": 1, "minutes": 8}]),
        ]

        def replay(tt, bodies):
            for body in bodies:
                tt = apply_delays(
                    tt,
                    [
                        Delay(
                            train=item["train"],
                            minutes=item["minutes"],
                            from_stop=item.get("from_stop", 0),
                        )
                        for item in body["delays"]
                    ],
                    slack_per_leg=body.get("slack_per_leg", 0),
                )
            return [
                (c.train, c.dep_time, c.arr_time) for c in tt.connections
            ]

        tt = toy_timetable()
        sequential = replay(tt, [json.loads(e) for e in entries])
        coalesced = replay(tt, [body for body, _ in coalesce_delay_log(entries)])
        assert coalesced == sequential


class TestLongStreamRejoin:
    #: ~25 committed batches with one slack barrier in the middle ⇒
    #: the missed log must coalesce to exactly 3 catch-up posts.
    NUM_BATCHES = 25
    BARRIER_AT = 12

    def _batch(self, i: int) -> dict:
        # Both values of protocol 2's ``replan`` key ride along: the
        # gateway counts the ``incremental`` ones, the workers swap
        # all of them one way.
        if i == self.BARRIER_AT:
            return {
                "delays": [{"train": 30, "minutes": 9}],
                "slack_per_leg": 2,
                "replan": "full",
            }
        return {
            "delays": [{"train": i % 20, "minutes": 1 + i % 4}],
            "replan": "incremental",
        }

    @pytest.mark.slow
    def test_worker_rejoins_long_stream_in_bounded_posts(
        self, make_fleet, twin_service
    ):
        fleet = make_fleet(2)

        delayed = twin_service.timetable
        for i in range(self.NUM_BATCHES):
            body = self._batch(i)
            status, update = fleet.request(
                "POST", "/v1/datasets/oahu/delays", body, timeout=180
            )
            assert status == 200, update
            assert update["generation"] == i + 1
            delayed = apply_delays(
                delayed,
                [
                    Delay(
                        train=item["train"],
                        minutes=item["minutes"],
                        from_stop=item.get("from_stop", 0),
                    )
                    for item in body["delays"]
                ],
                slack_per_leg=body.get("slack_per_leg", 0),
            )
        oracle = TransitService(delayed, twin_service.config)

        _, metrics = fleet.request("GET", "/metrics")
        assert metrics["gateway"]["swaps_total"] == {"oahu": self.NUM_BATCHES}
        assert metrics["gateway"]["incremental_swaps_total"] == {
            "oahu": self.NUM_BATCHES - 1
        }
        baseline_posts = metrics["gateway"]["catch_up_batches_total"]

        # Kill a worker: the respawn warm-starts from the pristine
        # store (generation 0) and must catch up through the whole
        # 25-batch stream before the gateway routes to it again.
        fleet.supervisor.kill("w1")
        fleet.wait_worker_down("w1", timeout=30)
        fleet.wait_worker_healthy("w1", timeout=120)

        from repro.client import LocalBackend

        post = _profiles(LocalBackend(oracle, name="oahu"))
        port = fleet.worker_ports()["w1"]
        worker_backend = connect(f"http://127.0.0.1:{port}")
        try:
            assert _profiles(worker_backend) == post
        finally:
            worker_backend.close()

        # Bounded replay: 12 slack-free + barrier + 12 slack-free ⇒ 3
        # posts standing for all 25 batches, generation unchanged.
        _, metrics = fleet.request("GET", "/metrics")
        assert (
            metrics["gateway"]["catch_up_batches_total"] - baseline_posts == 3
        )
        assert metrics["gateway"]["catch_up_coalesced_total"] >= self.NUM_BATCHES
        _, health = fleet.request("GET", "/healthz")
        assert health["generations"] == {"oahu": self.NUM_BATCHES}
        assert all(
            w["generations"] == {"oahu": self.NUM_BATCHES}
            for w in health["workers"].values()
        )
