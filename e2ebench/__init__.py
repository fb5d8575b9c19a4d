"""`e2ebench` — the repeatable end-to-end serving benchmark.

Starts `repro.cli serve` exactly as shipped, drives it over real TCP
with seeded, count-based request scripts and reports the end-to-end
and per-layer metrics named in ``BENCHMARK.json``.  See ``README.md``
in this directory; nothing under ``src/`` imports from here.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The benchmark's own directory and the checkout it measures.
BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"

# The program under test is not installed: the benchmark measures the
# checkout it sits in (and fails to import where there is none — it
# does not carry a copy of `repro`).
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))
