"""Conformance of every layer to the shape table.

Parametrised over :data:`repro.service.shapes.SHAPES`, not over shape
names: a future row is covered by every test here without an edit.
What is pinned, per shape: the wire round trip of requests
(``render → parse``), every declared bound's typed error, the wire
round trip of answers (``encode → orjson → decode`` equals the
``LocalBackend`` answer), the served dispatch from the event loop,
the routes the HTTP edge labels, the public per-shape names, and the
docs' "Request shapes" matrices.
"""

from __future__ import annotations

import asyncio
import random
import re
from pathlib import Path

import numpy as np
import orjson
import pytest

from repro.client import LocalBackend, TransitBackend, results, wire
from repro.server import protocol
from repro.server.http_base import parse_path
from repro.service import ServiceConfig, TransitService
from repro.service import shapes
from repro.core.fanout import ForkPool
from repro.service.model import BatchRequest, JourneyRequest, ProfileRequest
from repro.service.shapes import (
    ANSWERS,
    BATCH,
    JOURNEY,
    PAYLOADS,
    PROFILE,
    SHAPES,
    as_request,
)

from tests.helpers import scrubbed, scrubbed_payload

REPO_ROOT = Path(__file__).resolve().parents[2]
N = 10  # stations in scope for the parsing tests

by_name = pytest.mark.parametrize("shape", SHAPES, ids=lambda s: s.name)
#: The shapes whose requests are flat field lists (all but ``batch``).
FLAT_SHAPES = [shape for shape in SHAPES if shape.fields]
FIELD_CASES = [
    pytest.param(shape, field, id=f"{shape.name}.{field.name}")
    for shape in FLAT_SHAPES
    for field in shape.fields
]


def seeded_request(shape, rng: random.Random, num_stations: int, *, full: bool):
    """A valid request of ``shape`` drawn from its declared bounds;
    without ``full`` every non-required field is left out."""
    if shape is BATCH:
        return BATCH.request(
            journeys=tuple(
                seeded_request(JOURNEY, rng, num_stations, full=full)
                for _ in range(2)
            ),
            profiles=(seeded_request(PROFILE, rng, num_stations, full=full),),
        )
    values = {}
    for field in shape.fields:
        if not (field.required or full):
            continue
        lo = field.lo or 0
        hi = num_stations if field.kind == "station" else field.hi
        values[field.name] = rng.randrange(lo, hi if hi is not None else lo + 600)
    return shape.request(**values)


def valid_body(shape) -> dict:
    return wire.render(shape, seeded_request(shape, random.Random(7), N, full=True))


def rejection(shape, body) -> protocol.ProtocolError:
    with pytest.raises(protocol.ProtocolError) as excinfo:
        protocol.open_request(shape, body, N)
    return excinfo.value


class TestRequestRoundTrip:
    @by_name
    @pytest.mark.parametrize("full", [True, False], ids=["full", "minimal"])
    def test_render_then_parse_is_identity(self, shape, full):
        rng = random.Random(13)
        for _ in range(20):
            request = seeded_request(shape, rng, N, full=full)
            body = orjson.loads(orjson.dumps(wire.render(shape, request)))
            parsed, _encode = protocol.open_request(shape, body, N)
            # Omitted fields come back as the declared default.
            assert parsed == request

    @by_name
    def test_omitted_optionals_are_not_sent(self, shape):
        request = seeded_request(shape, random.Random(3), N, full=False)
        sent = wire.render(shape, request)
        for field in shape.fields:
            if not field.required and field.default is None:
                assert field.name not in sent

    @by_name
    def test_typed_request_passes_through_as_request(self, shape):
        request = seeded_request(shape, random.Random(5), N, full=True)
        assert as_request(shape, request) is request


class TestCallSugar:
    """``as_request`` — the one normaliser of the raw call forms."""

    @pytest.mark.parametrize("shape", FLAT_SHAPES, ids=lambda s: s.name)
    def test_raw_values_build_the_typed_request(self, shape):
        request = seeded_request(shape, random.Random(23), N, full=True)
        first, *rest = (getattr(request, f.name) for f in shape.fields)
        assert as_request(shape, first, *rest) == request
        by_keyword = {f.name: v for f, v in zip(shape.fields[1:], rest)}
        assert as_request(shape, first, **by_keyword) == request

    @pytest.mark.parametrize("shape", FLAT_SHAPES, ids=lambda s: s.name)
    def test_missing_required_field_names_the_call_form(self, shape):
        required = [f.name for f in shape.fields[1:] if f.required]
        if not required:
            assert as_request(shape, 0) == shape.request(0)
            return
        with pytest.raises(TypeError) as excinfo:
            as_request(shape, 0)
        message = str(excinfo.value)
        assert message.startswith(f"{shape.name}(source")
        assert all(f"a {name}" in message for name in required)

    def test_the_historical_texts_are_unchanged(self):
        texts = {}
        for shape in FLAT_SHAPES:
            try:
                as_request(shape, 0)
            except TypeError as exc:
                texts[shape.name] = str(exc)
        assert texts == {
            "journey": "journey(source, target) needs a target",
            "multicriteria": "multicriteria(source, target, departure=...) "
            "needs a target and a departure",
            "via": "via(source, via, target, departure=...) needs a via, "
            "a target and a departure",
            "min_transfers": "min_transfers(source, target, departure=...) "
            "needs a target and a departure",
        }

    def test_batch_accepts_raw_pairs(self):
        assert as_request(BATCH, [(0, 1), (2, 3)]) == BATCH.request.from_pairs(
            [(0, 1), (2, 3)]
        )

    def test_the_table_imports_nothing_above_the_model(self):
        import ast

        source = (REPO_ROOT / "src/repro/service/shapes.py").read_text()
        imported = {
            node.module
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module.startswith("repro")
        }
        assert imported == {"repro.service.model"}


class TestDeclaredBounds:
    @pytest.mark.parametrize("shape, field", FIELD_CASES)
    def test_missing_field(self, shape, field):
        body = valid_body(shape)
        del body[field.name]
        if field.required:
            error = rejection(shape, body)
            assert (error.code, error.field) == ("missing_field", field.name)
            assert error.status == 400
        else:
            parsed, _ = protocol.open_request(shape, body, N)
            assert getattr(parsed, field.name) == field.default

    @pytest.mark.parametrize("shape, field", FIELD_CASES)
    @pytest.mark.parametrize("bad", ["3", 3.0, True, None, [3]])
    def test_invalid_type(self, shape, field, bad):
        error = rejection(shape, {**valid_body(shape), field.name: bad})
        assert (error.code, error.field) == ("invalid_type", field.name)

    @pytest.mark.parametrize("shape, field", FIELD_CASES)
    def test_out_of_range_at_both_ends(self, shape, field):
        hi = N if field.kind == "station" else field.hi
        edges = []
        if field.lo is not None:
            edges.append((field.lo - 1, field.lo))
        if hi is not None:
            edges.append((hi, hi - 1))
        assert edges, f"{shape.name}.{field.name} declares no bound at all"
        for outside, inside in edges:
            error = rejection(shape, {**valid_body(shape), field.name: outside})
            assert (error.code, error.field) == ("out_of_range", field.name)
            protocol.open_request(
                shape, {**valid_body(shape), field.name: inside}, N
            )

    @by_name
    def test_unknown_field(self, shape):
        error = rejection(shape, {**valid_body(shape), "bogus": 1})
        assert (error.code, error.field) == ("unknown_field", "bogus")

    @by_name
    def test_not_an_object_and_version_mismatch(self, shape):
        assert rejection(shape, [1, 2]).code == "invalid_request"
        error = rejection(shape, {**valid_body(shape), "v": 99})
        assert (error.code, error.field) == ("unsupported_version", "v")


@pytest.fixture(scope="module")
def twin_services(oahu_tiny):
    """Two independent, identically-configured services: equal answers
    with equal ``cache_hit`` flags for equal call sequences."""
    config = ServiceConfig(
        num_threads=2, use_distance_table=True, transfer_fraction=0.25
    )
    return TransitService(oahu_tiny, config), TransitService(oahu_tiny, config)


#: Test ids of the declared payloads: their names in the table module.
_PAYLOAD_IDS = {
    id(value): name
    for name, value in vars(shapes).items()
    if isinstance(value, shapes.Payload)
}
_PAYLOAD_IDS.update(
    {id(payload): f"ANSWERS[{name}]" for name, payload in ANSWERS.items()}
)


@pytest.fixture(scope="module")
def encoded_samples(twin_services):
    """One encoded instance of every declared payload, keyed by the
    declaration's ``id``: answers from real searches, the rest from
    the objects and values the server renders them from."""
    direct, _ = twin_services
    n = direct.timetable.num_stations
    rng = random.Random(19)
    samples = {}
    for shape in SHAPES:
        request = seeded_request(shape, rng, n, full=True)
        _, encode = protocol.open_request(shape, wire.render(shape, request), n)
        samples[id(ANSWERS[shape.name])] = encode(getattr(direct, shape.name)(request))
    journey = direct.journey(JourneyRequest(2, 9, 480))
    batch = direct.batch(
        BatchRequest(journeys=(JourneyRequest(0, 5),), profiles=(ProfileRequest(1),))
    )
    dataset = shapes.DATASET.fill(
        {"name": "oahu", "source": "memory", "generation": 0, **direct.describe()}
    )
    fleet = shapes.FLEET_SWAP.write(["w0"], [], 0.3)
    samples.update(
        {
            id(shapes.QUERY_STATS): shapes.QUERY_STATS.encode(journey.stats),
            id(shapes.LEG): shapes.LEG.encode(journey.legs[0]),
            id(shapes.BATCH_STATS): shapes.BATCH_STATS.encode(batch.stats),
            id(shapes.DATASET): dataset,
            id(shapes.DATASETS): shapes.DATASETS.write([dataset]),
            id(shapes.APPLY_REPLY): shapes.APPLY_REPLY.write("oahu", 1, 2, 0, 0.5),
            id(shapes.FLEET_SWAP): fleet,
            id(shapes.FLEET_APPLY_REPLY): shapes.FLEET_APPLY_REPLY.write(
                "oahu", 1, 2, 0, 0.5, fleet
            ),
        }
    )
    assert set(samples) == {id(p) for p in PAYLOADS}
    return samples


class TestAnswerRoundTrip:
    @by_name
    def test_encode_json_decode_equals_local_backend(self, shape, twin_services):
        direct, behind_backend = twin_services
        backend = LocalBackend(behind_backend)
        num_stations = direct.timetable.num_stations
        rng = random.Random(17)
        for full in (True, False):
            request = seeded_request(shape, rng, num_stations, full=full)
            parsed, encode = protocol.open_request(
                shape, wire.render(shape, request), num_stations
            )
            payload = encode(getattr(direct, shape.name)(parsed))
            assert payload["v"] == protocol.PROTOCOL_VERSION
            assert payload["kind"] == shape.name
            decoded = results.decode_answer(
                shape, orjson.loads(orjson.dumps(payload))
            )
            answer = getattr(backend, shape.name)(request)
            assert type(decoded) is type(answer)
            assert type(answer).__name__ == shape.answer
            assert scrubbed(decoded) == scrubbed(answer)

    @pytest.mark.parametrize(
        "declared", PAYLOADS, ids=lambda p: _PAYLOAD_IDS[id(p)]
    )
    def test_derived_decoders_are_strict(self, declared, encoded_samples):
        """Every declared field of every payload is required — a
        truncated answer, ``stats`` block, leg, dataset entry or swap
        reply is rejected, none defaulted — and the encoder writes
        exactly the declared keys in wire order."""
        payload = encoded_samples[id(declared)]
        names = [name for name, _ in declared.fields]
        assert list(payload) == ["v"] * declared.versioned + names
        assert payload.get("v", protocol.PROTOCOL_VERSION) == protocol.PROTOCOL_VERSION
        results.decode(declared, payload)
        for name in names:
            truncated = {k: v for k, v in payload.items() if k != name}
            with pytest.raises(KeyError, match=name):
                results.decode(declared, truncated)

    @by_name
    def test_foreign_kind_is_rejected(self, shape):
        with pytest.raises(ValueError, match="expected"):
            results.decode_answer(shape, {"v": 2, "kind": "something-else"})

    def test_a_seconds_field_is_the_same_bytes_from_numpy(self):
        """The wire codec refuses a ``numpy.float64``: a ``seconds``
        field renders one as the Python float of the same value."""
        for value in (0.5, 1e-05, 0.123456789, 1234.0000004):
            assert orjson.dumps(
                shapes.APPLY_REPLY.write("oahu", 1, 2, 0, np.float64(value))
            ) == orjson.dumps(shapes.APPLY_REPLY.write("oahu", 1, 2, 0, value))
            assert orjson.dumps(
                shapes.FLEET_SWAP.write(["w0"], [], np.float64(value))
            ) == orjson.dumps(shapes.FLEET_SWAP.write(["w0"], [], value))


@pytest.fixture(scope="module")
def served_twins(oahu_tiny):
    """A service with two search workers and its in-process twin."""
    config = ServiceConfig(
        num_threads=2, use_distance_table=True, transfer_fraction=0.25
    )
    served = TransitService(oahu_tiny, config)
    served.start_workers(2)
    yield TransitService(oahu_tiny, config), served
    served.stop_workers()


class TestServedDispatch:
    @by_name
    def test_concurrent_submits_are_the_blocking_answers(
        self, shape, served_twins
    ):
        """Three requests of the shape submitted from one event loop at
        once — each its own composition, its jobs in the search
        workers — are answered as the blocking method of a service
        without workers answers them: one composition per shape."""
        direct, served = served_twins
        n = direct.timetable.num_stations
        rng = random.Random(29)
        requests = [seeded_request(shape, rng, n, full=True) for _ in range(3)]

        async def scenario():
            return await asyncio.gather(
                *(served.submit(shape, request) for request in requests)
            )

        answers = asyncio.run(asyncio.wait_for(scenario(), timeout=30))
        for request, answer in zip(requests, answers):
            _, encode = protocol.open_request(
                shape, wire.render(shape, request), n
            )
            assert scrubbed_payload(encode(answer)) == scrubbed_payload(
                encode(getattr(direct, shape.name)(request))
            )


    def test_a_batch_of_table_pairs_takes_no_worker(
        self, served_twins, monkeypatch
    ):
        """Journeys between transfer stations (paper §4) and from a
        station to itself take no search: a batch of them is answered
        on the loop, as a single such journey is, with the answers of a
        service without workers."""
        direct, served = served_twins
        stations = [int(s) for s in direct.table.transfer_stations[:4]]
        pairs = [(a, b) for a in stations for b in stations]
        request = BatchRequest.from_pairs(pairs)

        def refuse(*args, **kwargs):
            raise AssertionError("a table pair was sent to a search worker")

        monkeypatch.setattr(ForkPool, "submit", refuse)
        answer = asyncio.run(
            asyncio.wait_for(served.submit(BATCH, request), timeout=30)
        )
        expected = direct.batch(request)
        assert [j.stats.classification for j in answer.journeys] == [
            "trivial" if a == b else "table" for a, b in pairs
        ]
        assert scrubbed(answer) == scrubbed(expected)


class TestRoutes:
    @by_name
    def test_http_edge_labels_the_declared_route(self, shape):
        assert (
            parse_path("POST", f"/v1/some-dataset/{shape.route}")[0]
            == f"POST /v1/{{name}}/{shape.route}"
        )

    def test_undeclared_route_is_unmatched(self):
        assert parse_path("POST", "/v1/x/teleport")[0] == "POST <unmatched>"

    def test_names_and_routes_are_unique(self):
        assert len({shape.name for shape in SHAPES}) == len(SHAPES)
        assert len({shape.route for shape in SHAPES}) == len(SHAPES)


class TestPublicNames:
    """The per-shape names other code imports keep resolving."""

    @by_name
    def test_per_shape_callables(self, shape):
        for module, name in (
            (protocol, f"parse_{shape.name}_request"),
            (protocol, f"encode_{shape.name}"),
            (wire, f"{shape.name}_body"),
            (results, f"decode_{shape.name}"),
            (results, shape.answer),
            (TransitService, shape.name),
            (TransitBackend, shape.name),
        ):
            assert callable(getattr(module, name)), f"{module}.{name}"

    def test_protocol_constants(self):
        assert protocol.PROTOCOL_VERSION == 2
        assert protocol.MAX_NUM_THREADS == 64
        assert protocol.MAX_MC_TRANSFERS == 16

    def test_profile_parser_still_returns_the_targets_restriction(self):
        request, targets = protocol.parse_profile_request(
            {"source": 1, "targets": [2, 3]}, N
        )
        assert (request, targets) == (PROFILE.request(1), (2, 3))


def _shape_matrix(doc: str) -> list[dict[str, str]]:
    """The rows of the first markdown table under a "Request shapes"
    heading, as ``{column header: cell}`` dicts."""
    text = (REPO_ROOT / "docs" / doc).read_text()
    section = text[re.search(r"^#+ Request shapes.*$", text, re.M).end():]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    header, _rule, *rows = (
        [cell.strip() for cell in line.strip("|").split("|")] for line in lines
    )
    return [dict(zip(header, row)) for row in rows[: len(SHAPES)]]


class TestDocsMatrices:
    @pytest.mark.parametrize("doc", ["SERVER.md", "API.md"])
    def test_request_shape_matrix_agrees_with_the_table(self, doc):
        rows = _shape_matrix(doc)
        assert len(rows) == len(SHAPES)
        for shape, row in zip(SHAPES, rows):
            assert row["shape"].strip("`") in (shape.name, shape.route)
            if "endpoint" in row:
                assert row["endpoint"] == f"`/v1/{{name}}/{shape.route}`"
