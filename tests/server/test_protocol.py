"""Unit tests of the wire schema: strict validation in, deterministic
encoding out — no server, no sockets."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.server.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    encode_batch,
    encode_journey,
    encode_profile,
    parse_batch_request,
    parse_delay_request,
    parse_journey_request,
    parse_profile_request,
)
from repro.service import (
    BatchRequest,
    JourneyRequest,
    ProfileRequest,
    ServiceConfig,
    TransitService,
)
from repro.service.shapes import BATCH_STATS, QUERY_STATS
from repro.timetable.delays import Delay

N = 10  # stations in scope for parsing tests
TRAINS = 5


def err(fn, *args, **kwargs) -> ProtocolError:
    with pytest.raises(ProtocolError) as excinfo:
        fn(*args, **kwargs)
    return excinfo.value


class TestParseProfile:
    def test_minimal(self):
        request, targets = parse_profile_request({"source": 3}, N)
        assert request == ProfileRequest(3)
        assert targets is None

    def test_full(self):
        request, targets = parse_profile_request(
            {"v": 2, "source": 3, "num_threads": 2, "targets": [0, 9]}, N
        )
        assert request == ProfileRequest(3, num_threads=2)
        assert targets == (0, 9)

    def test_rejections(self):
        assert err(parse_profile_request, [], N).code == "invalid_request"
        assert err(parse_profile_request, {}, N).code == "missing_field"
        assert (
            err(parse_profile_request, {"source": "0"}, N).code
            == "invalid_type"
        )
        assert (
            err(parse_profile_request, {"source": True}, N).code
            == "invalid_type"
        )
        assert (
            err(parse_profile_request, {"source": N}, N).code
            == "out_of_range"
        )
        assert (
            err(parse_profile_request, {"source": -1}, N).code
            == "out_of_range"
        )
        assert (
            err(parse_profile_request, {"source": 0, "threads": 2}, N).code
            == "unknown_field"
        )
        assert (
            err(parse_profile_request, {"source": 0, "num_threads": 0}, N).code
            == "out_of_range"
        )
        assert (
            err(parse_profile_request, {"source": 0, "targets": []}, N).code
            == "invalid_type"
        )
        assert (
            err(parse_profile_request, {"source": 0, "targets": [N]}, N).code
            == "out_of_range"
        )

    def test_num_threads_is_capped(self):
        """An unauthenticated request must not size allocations: the
        wire cap bounds per-query cores in both places they appear."""
        from repro.server.protocol import MAX_NUM_THREADS

        parse_profile_request({"source": 0, "num_threads": MAX_NUM_THREADS}, N)
        assert (
            err(
                parse_profile_request,
                {"source": 0, "num_threads": MAX_NUM_THREADS + 1},
                N,
            ).code
            == "out_of_range"
        )
        assert (
            err(
                parse_batch_request,
                {"profiles": [{"source": 0, "num_threads": 10**9}]},
                N,
            ).code
            == "out_of_range"
        )

    def test_version_gate(self):
        # A version-1 client (its batch stats had three more keys).
        exc = err(parse_profile_request, {"v": 1, "source": 0}, N)
        assert exc.code == "unsupported_version"
        assert exc.status == 400
        # Omitted version means the current one.
        parse_profile_request({"source": 0}, N)


class TestParseJourney:
    def test_roundtrip(self):
        request = parse_journey_request(
            {"source": 1, "target": 8, "departure": 480}, N
        )
        assert request == JourneyRequest(1, 8, 480)
        assert parse_journey_request({"source": 1, "target": 8}, N) == (
            JourneyRequest(1, 8, None)
        )

    def test_rejections(self):
        assert (
            err(parse_journey_request, {"source": 1}, N).code
            == "missing_field"
        )
        assert (
            err(
                parse_journey_request,
                {"source": 1, "target": 2, "departure": -1},
                N,
            ).code
            == "out_of_range"
        )


class TestParseBatch:
    def test_mixed(self):
        request = parse_batch_request(
            {
                "journeys": [
                    {"source": 0, "target": 5},
                    {"source": 1, "target": 6, "departure": 60},
                ],
                "profiles": [{"source": 2, "num_threads": 2}],
            },
            N,
        )
        assert request.journeys == (
            JourneyRequest(0, 5),
            JourneyRequest(1, 6, 60),
        )
        assert request.profiles == (ProfileRequest(2, num_threads=2),)

    def test_rejections(self):
        assert err(parse_batch_request, {}, N).code == "invalid_request"
        assert (
            err(parse_batch_request, {"journeys": "x"}, N).code
            == "invalid_type"
        )
        exc = err(
            parse_batch_request,
            {"journeys": [{"source": 0, "target": 1, "x": 2}]},
            N,
        )
        assert exc.code == "unknown_field"
        assert "journeys[0]" in exc.message


class TestParseDelays:
    def test_roundtrip(self):
        command = parse_delay_request(
            {
                "delays": [
                    {"train": 0, "minutes": 10},
                    {"train": 4, "minutes": 5, "from_stop": 1},
                ],
                "slack_per_leg": 2,
            },
            TRAINS,
        )
        assert command.delays == (
            Delay(train=0, minutes=10),
            Delay(train=4, minutes=5, from_stop=1),
        )
        assert command.slack_per_leg == 2
        assert command.mode == "apply" and command.token is None

    def test_two_phase_modes(self):
        prepare = parse_delay_request(
            {"mode": "prepare", "delays": [{"train": 0, "minutes": 3}]},
            TRAINS,
        )
        assert prepare.mode == "prepare" and prepare.token is None
        commit = parse_delay_request({"mode": "commit", "token": 7}, TRAINS)
        assert commit.mode == "commit" and commit.token == 7
        assert commit.delays == ()
        abort = parse_delay_request({"mode": "abort", "token": 7}, TRAINS)
        assert abort.mode == "abort" and abort.token == 7

    def test_two_phase_rejections(self):
        # An unknown phase name.
        assert (
            err(parse_delay_request, {"mode": "merge", "token": 1}, TRAINS).code
            == "invalid_request"
        )
        # commit/abort must not re-send the batch...
        assert (
            err(
                parse_delay_request,
                {"mode": "commit", "token": 1,
                 "delays": [{"train": 0, "minutes": 1}]},
                TRAINS,
            ).code
            == "invalid_request"
        )
        # ...and need their token.
        assert (
            err(parse_delay_request, {"mode": "commit"}, TRAINS).code
            == "missing_field"
        )
        # apply/prepare carry delays, never a token.
        assert (
            err(
                parse_delay_request,
                {"delays": [{"train": 0, "minutes": 1}], "token": 3},
                TRAINS,
            ).code
            == "invalid_request"
        )

    def test_replan_is_checked_and_selects_nothing(self):
        """Protocol 2's ``replan`` key: an unknown value is refused,
        and a known one parses to the command no key parses to."""
        refused = err(
            parse_delay_request,
            {"delays": [{"train": 0, "minutes": 1}], "replan": "bogus"},
            TRAINS,
        )
        assert (refused.code, refused.field) == ("invalid_request", "replan")
        plain = parse_delay_request({"delays": [{"train": 0, "minutes": 1}]}, TRAINS)
        for replan in ("full", "incremental"):
            for mode in ("apply", "prepare"):
                command = parse_delay_request(
                    {
                        "mode": mode,
                        "delays": [{"train": 0, "minutes": 1}],
                        "replan": replan,
                    },
                    TRAINS,
                )
                assert command == replace(plain, mode=mode)

    def test_rejections(self):
        assert (
            err(parse_delay_request, {"delays": []}, TRAINS).code
            == "invalid_request"
        )
        assert (
            err(
                parse_delay_request,
                {"delays": [{"train": TRAINS, "minutes": 1}]},
                TRAINS,
            ).code
            == "out_of_range"
        )
        assert (
            err(
                parse_delay_request,
                {"delays": [{"train": 0}]},
                TRAINS,
            ).code
            == "missing_field"
        )


class TestErrorPayload:
    def test_shape_and_status(self):
        exc = ProtocolError("boom", "it broke", field="x", status=418)
        assert exc.status == 418
        assert exc.payload() == {
            "v": PROTOCOL_VERSION,
            "error": {"code": "boom", "message": "it broke", "field": "x"},
        }


class TestEncoding:
    @pytest.fixture(scope="class")
    def service(self, oahu_tiny):
        return TransitService(oahu_tiny, ServiceConfig(num_threads=2))

    def test_journey_payload_is_json_safe_and_faithful(self, service):
        result = service.journey(0, 5, departure=480)
        payload = json.loads(json.dumps(encode_journey(result)))
        assert payload["v"] == PROTOCOL_VERSION
        assert payload["source"] == 0 and payload["target"] == 5
        assert payload["arrival"] == result.arrival
        assert payload["profile"] == [
            [int(dep), int(dur)]
            for dep, dur in result.profile.connection_points()
        ]
        assert len(payload["legs"]) == len(result.legs)
        assert payload["stats"]["cache_hit"] is False

    def test_profile_payload_respects_targets(self, service):
        result = service.profile(0)
        full = encode_profile(result, num_stations=12)
        assert str(0) not in full["profiles"]  # source is omitted
        assert len(full["profiles"]) == 11
        part = encode_profile(result, num_stations=12, targets=(5,))
        assert list(part["profiles"]) == ["5"]
        assert part["profiles"]["5"] == full["profiles"]["5"]


def _per_station_profile(result, num_stations, targets=None) -> dict:
    """A profile answer rendered one reduced ``Profile`` per station —
    the oracle of ``encode_profile``'s one-pass reduction."""
    stations = range(num_stations) if targets is None else targets
    return {
        "v": PROTOCOL_VERSION,
        "kind": "profile",
        "source": result.source,
        "profiles": {
            str(t): [list(point) for point in result.profile(t).connection_points()]
            for t in stations
            if t != result.source
        },
        "stats": QUERY_STATS.encode(result.stats),
    }


class TestProfileEncodingBytes:
    """The wire bytes of a profile answer are those of the per-station
    rendering, for every station and for any ``targets`` list."""

    @pytest.fixture(scope="class")
    def service(self, oahu_tiny):
        return TransitService(oahu_tiny, ServiceConfig())

    @pytest.mark.parametrize("num_threads", [1, 2, 3])
    @pytest.mark.parametrize(
        "targets",
        [None, (0, 5, 3), (3, 3, 9, 3), (11, 2, 7, 0, 1), ()],
        ids=["all", "with-source", "repeats", "unsorted", "none"],
    )
    def test_profile(self, service, targets, num_threads):
        n = service.timetable.num_stations
        for source in (0, 3, 7):
            result = service.profile(ProfileRequest(source, num_threads))
            got = encode_profile(result, num_stations=n, targets=targets)
            want = _per_station_profile(result, n, targets)
            assert json.dumps(got) == json.dumps(want)

    def test_batch_profile_items(self, service):
        n = service.timetable.num_stations
        response = service.batch(
            BatchRequest(
                journeys=(JourneyRequest(0, 5),),
                profiles=(ProfileRequest(3), ProfileRequest(8, num_threads=2)),
            )
        )
        want = {
            "v": PROTOCOL_VERSION,
            "kind": "batch",
            "journeys": [encode_journey(j) for j in response.journeys],
            "profiles": [
                _per_station_profile(p, n) for p in response.profiles
            ],
            "stats": BATCH_STATS.encode(response.stats),
        }
        got = encode_batch(response, num_stations=n)
        assert json.dumps(got) == json.dumps(want)
