"""The metric catalogs: the docs carry their rendering, and every
``/metrics`` document keeps its shape.

Each metrics document is declared once, as a catalog
(:mod:`repro.server.metrics`).  The table between the
``<!-- lint:metrics -->`` markers of a doc is
:func:`~repro.server.metrics.catalog_table` of its catalog, character
for character.  ``tests/fixtures/metrics_golden.json`` holds the key
paths and value types of a server's, a gateway's and a stream replay's
document after a fixed traffic script
(``tests/fixtures/regen_metrics_golden.py``); the documents must
reproduce it.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.fleet import GatewayMetrics
from repro.server import ServerMetrics
from repro.server.metrics import catalog_table
from repro.streams import ReplayMetrics
from tests.fixtures import regen_metrics_golden as golden

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Each doc and the catalog its table renders.
DOCS = {
    "docs/SERVER.md": ServerMetrics.CATALOG + ServerMetrics.SERVED,
    "docs/FLEET.md": GatewayMetrics.CATALOG,
    "docs/STREAMS.md": ReplayMetrics.CATALOG,
}

_REGION = re.compile(
    r"<!-- lint:metrics -->\n\n(.*?)\n\n<!-- /lint:metrics -->", re.S
)

EXPECTED = json.loads(golden.FIXTURE.read_text())


@pytest.mark.parametrize("doc", sorted(DOCS))
def test_docs_catalog_is_its_rendering(doc):
    regions = _REGION.findall((REPO_ROOT / doc).read_text())
    table = catalog_table(DOCS[doc])
    assert regions == [table], (
        f"{doc} must carry exactly one catalog region, reading:\n{table}"
    )


def test_no_metric_is_declared_twice():
    for catalog in DOCS.values():
        names = [metric.name for metric in catalog]
        assert len(set(names)) == len(names)


@pytest.fixture(scope="module")
def recorded():
    return golden.record()


def test_the_same_documents_are_recorded(recorded):
    assert list(recorded) == list(EXPECTED)


@pytest.mark.parametrize("name", list(EXPECTED))
def test_document_keeps_its_keys_and_types(name, recorded):
    assert recorded[name] == EXPECTED[name]
