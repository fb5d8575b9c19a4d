"""Unit tests of :class:`LocalBackend`, :func:`connect` and the
client result types — the transport-independent half of the SDK."""

from __future__ import annotations

import pytest

from repro.client import (
    BadRequestError,
    ConnectionProfile,
    HttpBackend,
    JourneyAnswer,
    LocalBackend,
    ProfileAnswer,
    connect,
)
from repro.service import (
    BatchRequest,
    JourneyRequest,
    ProfileRequest,
    ServiceConfig,
    TransitService,
)
from repro.store import StoreError
from repro.timetable.delays import Delay

from tests.client.conftest import CLIENT_CONFIG


class TestConstructionAndConnect:
    def test_store_path_is_opened_lazily(self, tmp_path, make_service):
        store = tmp_path / "oahu"
        make_service().save(store)
        backend = LocalBackend(store)
        assert backend._service is None, "store must not load eagerly"
        assert backend.name == "oahu"  # the directory basename
        answer = backend.journey(0, 5)
        assert answer.reachable
        assert backend._service is not None

    def test_bad_store_path_surfaces_on_first_use(self, tmp_path):
        backend = LocalBackend(tmp_path / "nowhere")
        with pytest.raises(StoreError):
            backend.journey(0, 5)

    def test_close_releases_a_path_built_service(
        self, tmp_path, make_service
    ):
        store = tmp_path / "oahu"
        make_service().save(store)
        with LocalBackend(store) as backend:
            backend.journey(0, 5)
            backend.apply_delays([Delay(train=0, minutes=10)])
            assert backend.info().generation == 1
            assert backend._service is not None
        assert backend._service is None
        # Reusable after close: lazily reloads the *stored* state, so
        # the delay generation resets along with the applied delays.
        assert backend.info().generation == 0
        assert backend.journey(0, 5).reachable
        assert backend.apply_delays([Delay(train=0, minutes=5)]).generation == 1

    def test_connect_dispatches_on_target(self, tmp_path, make_service):
        store = tmp_path / "oahu"
        make_service().save(store)
        assert isinstance(connect(store), LocalBackend)
        assert isinstance(connect(str(store)), LocalBackend)
        assert isinstance(connect(make_service()), LocalBackend)
        remote = connect("http://127.0.0.1:9/oahu")
        assert isinstance(remote, HttpBackend)
        assert remote._dataset == "oahu"

    def test_http_url_validation(self):
        with pytest.raises(ValueError):
            HttpBackend("ftp://example.com/oahu")
        with pytest.raises(ValueError):
            HttpBackend("http://127.0.0.1:9/a", dataset="b")

    def test_service_parity_with_store_roundtrip(
        self, tmp_path, make_service
    ):
        """A backend over the store answers exactly like a backend
        over the live service the store was saved from."""
        service = make_service()
        store = tmp_path / "oahu"
        service.save(store)
        live = LocalBackend(service, name="oahu")
        warm = LocalBackend(store, name="oahu")
        a, b = live.journey(2, 9, departure=480), warm.journey(
            2, 9, departure=480
        )
        assert a.profile == b.profile
        assert a.arrival == b.arrival and a.legs == b.legs


class TestValidationMatchesWire:
    """LocalBackend runs the server's own parsers: the codes must be
    the wire protocol's, not ad-hoc ones."""

    def test_out_of_range_station(self, local_backend):
        with pytest.raises(BadRequestError) as excinfo:
            local_backend.profile(99)
        assert excinfo.value.code == "out_of_range"
        assert excinfo.value.field == "source"
        assert excinfo.value.status == 400

    def test_journey_requires_target(self, local_backend):
        with pytest.raises(TypeError):
            local_backend.journey(0)

    def test_empty_batch_rejected(self, local_backend):
        with pytest.raises(BadRequestError) as excinfo:
            local_backend.batch(BatchRequest())
        assert excinfo.value.code == "invalid_request"

    def test_delay_out_of_range_train(self, local_backend):
        with pytest.raises(BadRequestError) as excinfo:
            local_backend.apply_delays([Delay(train=10**6, minutes=5)])
        assert excinfo.value.code == "out_of_range"
        assert local_backend.info().generation == 0


class TestAnswerSemantics:
    def test_journey_earliest_arrival_matches_facade_profile(
        self, local_backend, make_service
    ):
        """ConnectionProfile's cyclic evaluation must agree with the
        packed Profile's at every minute of the period."""
        service = make_service()
        answer = local_backend.journey(0, 5)
        reference = service.journey(0, 5).profile
        assert (
            answer.profile.connection_points()
            == reference.connection_points()
        )
        for tau in range(0, 1440, 7):
            assert answer.profile.earliest_arrival(
                tau
            ) == reference.earliest_arrival(tau), f"diverges at tau={tau}"

    def test_profile_answer_maps_every_other_station(self, local_backend):
        answer = local_backend.profile(0)
        assert sorted(answer.profiles) == list(range(1, 12))
        assert answer.earliest_arrival(0, 100) == 100  # source identity

    def test_empty_connection_profile(self):
        profile = ConnectionProfile(points=())
        assert profile.is_empty() and len(profile) == 0
        assert profile.earliest_arrival(0) >= 2**62

    def test_generation_counts_successive_delay_scenarios(
        self, local_backend
    ):
        first = local_backend.apply_delays([Delay(train=0, minutes=10)])
        second = local_backend.apply_delays([Delay(train=1, minutes=5)])
        assert (first.generation, second.generation) == (1, 2)
        assert local_backend.info().generation == 2

    def test_journey_many_equals_batch_journeys(self, local_backend):
        requests = [JourneyRequest(s, s + 6) for s in range(4)]
        via_many = local_backend.journey_many(requests)
        via_batch = local_backend.batch(
            BatchRequest(journeys=tuple(requests))
        )
        assert [a.profile for a in via_many] == [
            a.profile for a in via_batch.journeys
        ]

    def test_iter_batch_yields_journeys_then_profiles(self, local_backend):
        request = BatchRequest(
            journeys=(JourneyRequest(0, 5),),
            profiles=(ProfileRequest(1), ProfileRequest(2)),
        )
        items = list(local_backend.iter_batch(request))
        assert isinstance(items[0], JourneyAnswer)
        assert isinstance(items[1], ProfileAnswer)
        assert isinstance(items[2], ProfileAnswer)
        assert [getattr(i, "source") for i in items] == [0, 1, 2]

    def test_cache_hits_are_marked(self, local_backend):
        assert not local_backend.journey(3, 8).stats.cache_hit
        assert local_backend.journey(3, 8).stats.cache_hit

    def test_info_reflects_config(self, oahu_tiny):
        service = TransitService(oahu_tiny, ServiceConfig(num_threads=1))
        info = LocalBackend(service, name="x").info()
        assert info.kernel == "flat"
        assert info.has_distance_table is False
        assert info.stations == 12

    def test_runs_without_distance_table(self, oahu_tiny):
        """The client surface must not assume the pruned paths: a
        table-less service answers every shape too."""
        backend = LocalBackend(
            TransitService(oahu_tiny, ServiceConfig(num_threads=1))
        )
        assert backend.journey(0, 5).reachable
        assert backend.batch([(0, 5)]).stats.num_queries == 1

    def test_default_config_matches_suite_recipe(self, local_backend):
        # Guards the fixture contract the parity suite relies on.
        assert local_backend.service.config == CLIENT_CONFIG
