"""The wire bytes, pinned: every payload the server writes, as text.

``tests/fixtures/wire_golden.json`` holds the exact JSON text of every
shape's rendered request and its answer, ``/v1/datasets``, the
``/delays`` reply and one error per status, recorded from a live
server (``tests/fixtures/regen_wire_golden.py``, wall-clock fields
masked).  A refactor of the codecs must reproduce it byte for byte.
"""

from __future__ import annotations

import json

import pytest

from tests.fixtures import regen_wire_golden as golden

EXPECTED = json.loads(golden.FIXTURE.read_text())


@pytest.fixture(scope="module")
def recorded():
    return golden.record()


def test_the_same_exchanges_are_recorded(recorded):
    assert list(recorded) == list(EXPECTED)


@pytest.mark.parametrize("name", list(EXPECTED))
def test_exchange_is_byte_identical(name, recorded):
    assert recorded[name] == EXPECTED[name]
