"""Transport parity: the client SDK's acceptance bar.

Any program written against :class:`TransitBackend` must produce
**bitwise-identical answers** over :class:`LocalBackend` and
:class:`HttpBackend` (against a live server over real TCP).  Every
test here runs the *same* call sequence on both backends — sequences
matter, because the per-service result cache makes answers
state-dependent (``cache_hit`` flags) and parity must hold for the
stateful stream, not just for isolated calls.

Wall-clock fields are the one permitted difference; everything else —
profiles, arrivals, legs, counters, classifications, cache-hit flags,
error codes and exception types — must match exactly.
"""

from __future__ import annotations

import pytest

from repro.client import (
    BadRequestError,
    ConnectionProfile,
    TransitBackend,
)
from repro.service import BatchRequest, JourneyRequest, ProfileRequest
from repro.timetable.delays import Delay

from tests.helpers import scrubbed


def assert_parity(call, http_backend, local_backend):
    """Run ``call`` on both backends; answers must match scrubbed."""
    remote = call(http_backend)
    local = call(local_backend)
    assert scrubbed(remote) == scrubbed(local)
    return remote, local


class TestQueryShapeParity:
    def test_backends_satisfy_the_protocol(
        self, http_backend, local_backend
    ):
        assert isinstance(http_backend, TransitBackend)
        assert isinstance(local_backend, TransitBackend)

    def test_journey(self, http_backend, local_backend):
        assert_parity(
            lambda b: b.journey(0, 5), http_backend, local_backend
        )

    def test_journey_with_departure_and_legs(
        self, http_backend, local_backend
    ):
        remote, _ = assert_parity(
            lambda b: b.journey(2, 9, departure=480),
            http_backend,
            local_backend,
        )
        assert remote.arrival is not None and remote.legs

    def test_profile_full(self, http_backend, local_backend):
        remote, _ = assert_parity(
            lambda b: b.profile(3), http_backend, local_backend
        )
        # All stations but the source are encoded.
        assert len(remote.profiles) == 11
        assert all(
            isinstance(p, ConnectionProfile)
            for p in remote.profiles.values()
        )

    def test_profile_with_targets(self, http_backend, local_backend):
        remote, _ = assert_parity(
            lambda b: b.profile(ProfileRequest(3), targets=[0, 7]),
            http_backend,
            local_backend,
        )
        assert sorted(remote.profiles) == [0, 7]

    def test_batch_mixed(self, http_backend, local_backend):
        request = BatchRequest(
            journeys=(JourneyRequest(0, 5), JourneyRequest(1, 6, 540)),
            profiles=(ProfileRequest(2),),
        )
        remote, _ = assert_parity(
            lambda b: b.batch(request), http_backend, local_backend
        )
        assert len(remote.journeys) == 2 and len(remote.profiles) == 1

    def test_batch_from_pairs(self, http_backend, local_backend):
        assert_parity(
            lambda b: b.batch([(0, 5), (7, 2), (4, 11)]),
            http_backend,
            local_backend,
        )

    def test_journey_many(self, http_backend, local_backend):
        requests = [JourneyRequest(s, (s + 5) % 12) for s in range(4)]
        remote, _ = assert_parity(
            lambda b: b.journey_many(requests), http_backend, local_backend
        )
        assert [a.target for a in remote] == [r.target for r in requests]

    def test_iter_batch_streams_in_submission_order(
        self, http_backend, local_backend
    ):
        request = BatchRequest(
            journeys=(JourneyRequest(0, 5), JourneyRequest(3, 8)),
            profiles=(ProfileRequest(6),),
        )
        remote, local = assert_parity(
            lambda b: list(b.iter_batch(request)),
            http_backend,
            local_backend,
        )
        assert [type(item).__name__ for item in remote] == [
            "JourneyAnswer",
            "JourneyAnswer",
            "ProfileAnswer",
        ]
        assert len(remote) == len(local) == 3

    def test_iter_batch_answers_match_batch_payloads(
        self, http_backend, local_backend
    ):
        """Streaming trades batch dispatch for per-item requests; the
        *payloads* (profiles, reachability) must still agree with the
        materialized batch on both transports."""
        pairs = [(5, 2), (7, 1)]
        for backend in (http_backend, local_backend):
            streamed = list(backend.iter_batch(pairs))
            materialized = backend.batch(pairs)
            for item, twin in zip(streamed, materialized.journeys):
                assert item.profile == twin.profile
                assert item.reachable == twin.reachable

    def test_multicriteria(self, http_backend, local_backend):
        remote, _ = assert_parity(
            lambda b: b.multicriteria(2, 5, departure=480),
            http_backend,
            local_backend,
        )
        assert remote.reachable and remote.options
        assert remote.stats.kind == "multicriteria"

    def test_multicriteria_tight_budget(self, http_backend, local_backend):
        assert_parity(
            lambda b: b.multicriteria(2, 5, departure=480, max_transfers=0),
            http_backend,
            local_backend,
        )

    def test_via(self, http_backend, local_backend):
        remote, _ = assert_parity(
            lambda b: b.via(2, 5, 7, departure=480),
            http_backend,
            local_backend,
        )
        assert remote.reachable
        assert remote.via_arrival <= remote.arrival
        assert remote.stats.kind == "via"

    def test_via_degenerate_hops(self, http_backend, local_backend):
        assert_parity(
            lambda b: b.via(2, 2, 5, departure=480),
            http_backend,
            local_backend,
        )
        assert_parity(
            lambda b: b.via(2, 5, 5, departure=480),
            http_backend,
            local_backend,
        )

    def test_min_transfers(self, http_backend, local_backend):
        remote, _ = assert_parity(
            lambda b: b.min_transfers(2, 5, departure=480),
            http_backend,
            local_backend,
        )
        assert remote.reachable and remote.transfers is not None
        assert remote.stats.kind == "min_transfers"

    def test_info(self, http_backend, local_backend):
        remote = http_backend.info()
        local = local_backend.info()
        # `source` legitimately differs ("memory" vs the server's);
        # the dataset description itself must not.
        for field in (
            "name",
            "generation",
            "timetable",
            "stations",
            "trains",
            "connections",
            "kernel",
            "has_distance_table",
        ):
            assert getattr(remote, field) == getattr(local, field)


class TestStatefulParity:
    def test_cache_hits_surface_identically(
        self, http_backend, local_backend
    ):
        """The repeat of an identical request is served from the
        result cache on both sides, and both mark it ``cache_hit``."""
        first_remote, first_local = assert_parity(
            lambda b: b.journey(1, 7), http_backend, local_backend
        )
        assert not first_remote.stats.cache_hit
        repeat_remote, repeat_local = assert_parity(
            lambda b: b.journey(1, 7), http_backend, local_backend
        )
        assert repeat_remote.stats.cache_hit
        assert repeat_local.stats.cache_hit

    def test_cache_hits_cover_every_new_shape(
        self, http_backend, local_backend
    ):
        calls = (
            lambda b: b.multicriteria(2, 5, departure=480),
            lambda b: b.via(2, 5, 7, departure=480),
            lambda b: b.min_transfers(2, 9, departure=480),
        )
        for call in calls:
            first, _ = assert_parity(call, http_backend, local_backend)
            assert not first.stats.cache_hit
            repeat_remote, repeat_local = assert_parity(
                call, http_backend, local_backend
            )
            assert repeat_remote.stats.cache_hit
            assert repeat_local.stats.cache_hit

    def test_delay_replanning_parity(self, http_backend, local_backend):
        """The fully dynamic scenario through both transports: apply
        delays, then every query shape against the replanned dataset
        answers identically (and differs from the undelayed answer)."""
        before, _ = assert_parity(
            lambda b: b.journey(2, 5), http_backend, local_backend
        )
        delays = [Delay(train=0, minutes=45)]
        update_remote = http_backend.apply_delays(delays)
        update_local = local_backend.apply_delays(delays)
        assert update_remote.generation == update_local.generation == 1
        assert update_remote.num_delays == update_local.num_delays == 1

        after, _ = assert_parity(
            lambda b: b.journey(2, 5), http_backend, local_backend
        )
        assert after.profile != before.profile, (
            "delaying train 0 by 45 minutes must move the 2→5 profile"
        )
        assert_parity(
            lambda b: b.profile(2, targets=[5]), http_backend, local_backend
        )
        assert_parity(
            lambda b: b.batch([(2, 5), (0, 9)]), http_backend, local_backend
        )
        assert_parity(
            lambda b: b.multicriteria(2, 5, departure=480),
            http_backend,
            local_backend,
        )
        assert_parity(
            lambda b: b.via(2, 5, 7, departure=480),
            http_backend,
            local_backend,
        )
        assert_parity(
            lambda b: b.min_transfers(2, 5, departure=480),
            http_backend,
            local_backend,
        )

    def test_delay_validation_errors_match(
        self, http_backend, local_backend
    ):
        """A bad delay raises the same typed exception — same code,
        same exception type — on both transports, and swaps nothing."""
        bad = [Delay(train=0, minutes=10, from_stop=9999)]
        errors = []
        for backend in (http_backend, local_backend):
            with pytest.raises(BadRequestError) as excinfo:
                backend.apply_delays(bad)
            errors.append(excinfo.value)
        assert [e.code for e in errors] == ["invalid_request"] * 2
        assert http_backend.info().generation == 0
        assert local_backend.info().generation == 0


class TestErrorParity:
    @pytest.mark.parametrize(
        "call, code, field",
        [
            (lambda b: b.journey(0, 99), "out_of_range", "target"),
            (lambda b: b.journey(-1, 5), "out_of_range", "source"),
            (
                lambda b: b.profile(0, targets=[99]),
                "out_of_range",
                "targets",
            ),
            (
                lambda b: b.profile(ProfileRequest(0, num_threads=10**6)),
                "out_of_range",
                "num_threads",
            ),
            (lambda b: b.batch(BatchRequest()), "invalid_request", None),
            (
                lambda b: b.multicriteria(0, 99, departure=480),
                "out_of_range",
                "target",
            ),
            (
                lambda b: b.multicriteria(
                    0, 5, departure=480, max_transfers=999
                ),
                "out_of_range",
                "max_transfers",
            ),
            (
                lambda b: b.via(0, 99, 5, departure=480),
                "out_of_range",
                "via",
            ),
            (
                lambda b: b.min_transfers(-1, 5, departure=480),
                "out_of_range",
                "source",
            ),
        ],
    )
    def test_rejections_are_identical(
        self, http_backend, local_backend, call, code, field
    ):
        errors = []
        for backend in (http_backend, local_backend):
            with pytest.raises(BadRequestError) as excinfo:
                call(backend)
            errors.append(excinfo.value)
        remote, local = errors
        assert (remote.code, remote.field, remote.status) == (
            local.code,
            local.field,
            local.status,
        )
        assert remote.code == code
        assert remote.field == field

    def test_rejections_are_also_value_errors(self, http_backend):
        """Pre-client call sites catch ValueError; the typed hierarchy
        must keep satisfying them over every transport."""
        with pytest.raises(ValueError):
            http_backend.journey(0, 99)
