"""The standing guard: the repository itself lints clean.

This is a standing suite next to oracle-equivalence and client
parity — every true positive the rules found
(supervisor lock discipline) is pinned here, because the moment any of
them regresses, the corresponding rule fires and this test fails
tier-1.  The repository is parsed once for the whole module.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from tests.analysis.lint import GUARD_RE, RULES, lint, python_files

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def report():
    return lint(REPO_ROOT)


def test_repo_has_no_findings(report):
    findings, _ = report
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"repo lint regressed:\n{rendered}"


def test_all_three_rules_actually_ran():
    """Every subtree a rule walks exists and holds Python: a renamed
    or mistyped subtree would otherwise let its rule pass vacuously
    (the walker skips a missing subtree, for the fixture trees)."""
    assert set(RULES) == {"ASYNC-BLOCK", "LOCK-GUARD", "EXPORT-SANITY"}
    for rule, (_, subtrees) in RULES.items():
        for subtree in subtrees:
            assert any(python_files(REPO_ROOT, [subtree])), (
                f"{rule} walks {subtree}, which holds no .py file"
            )


def test_every_suppression_carries_a_justification(report):
    """`# lint: disable=RULE` without an ` — why` is a naked override;
    the convention requires the reason inline.  The one deliberate
    exception is the gateway's loop-confined read of its delay log."""
    _, suppressed = report
    assert [(f.path, f.rule) for f in suppressed] == [
        ("src/repro/fleet/gateway.py", "LOCK-GUARD")
    ]
    for finding in suppressed:
        lines = (REPO_ROOT / finding.path).read_text().splitlines()
        window = lines[max(finding.line - 2, 0): finding.line]
        assert any(
            "lint: disable=" in line and "—" in line for line in window
        ), f"suppression without justification at {finding.path}:{finding.line}"


def test_guard_annotations_are_pinned_per_file():
    """LOCK-GUARD checks only what is annotated: dropping one
    `# guarded-by:` silently disables its checks, so the number of
    annotations per file is pinned (adding one means raising it)."""
    counts = {}
    for path in python_files(REPO_ROOT, RULES["LOCK-GUARD"][1]):
        lines = (REPO_ROOT / path).read_text().splitlines()
        if n := sum(bool(GUARD_RE.search(line)) for line in lines):
            counts[path] = n
    assert counts == {
        "src/repro/service/cache.py": 3,
        "src/repro/server/metrics.py": 12,
        "src/repro/fleet/metrics.py": 11,
        "src/repro/fleet/supervisor.py": 1,
        "src/repro/fleet/gateway.py": 1,
        "src/repro/streams/metrics.py": 10,
    }
