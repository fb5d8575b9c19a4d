"""The standing guard: the repository itself lints clean.

This is the fourth standing suite next to oracle-equivalence, client
parity and the bench gate — every true positive PR 8 fixed (supervisor
lock discipline) is pinned here, because the moment any of them
regresses, the corresponding rule fires and this test fails tier-1.
(The metric catalogs cannot drift: each is declared once, and
``tests/test_metrics_catalog.py`` compares the docs with it.)
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.lint import Project, default_config, run_lint
from repro.analysis.lint.baseline import DEFAULT_BASELINE_NAME

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repo_has_no_findings():
    report = run_lint(Project(REPO_ROOT), default_config())
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.findings == [], f"repo lint regressed:\n{rendered}"


def test_all_three_rules_actually_ran():
    report = run_lint(Project(REPO_ROOT), default_config())
    assert set(report.rules_run) == {
        "ASYNC-BLOCK",
        "LOCK-GUARD",
        "EXPORT-SANITY",
    }


def test_committed_baseline_is_empty():
    """Policy (docs/ANALYSIS.md): debt is fixed or justified inline,
    never parked in the baseline."""
    baseline = json.loads((REPO_ROOT / DEFAULT_BASELINE_NAME).read_text())
    assert baseline == {"version": 1, "findings": []}


def test_every_suppression_carries_a_justification():
    """`# lint: disable=RULE` without an ` — why` is a naked override;
    the convention requires the reason inline."""
    report = run_lint(Project(REPO_ROOT), default_config())
    project = Project(REPO_ROOT)
    for finding in report.suppressed:
        lines = project.lines(finding.path)
        window = lines[max(finding.line - 2, 0): finding.line]
        assert any(
            "lint: disable=" in line and "—" in line for line in window
        ), f"suppression without justification at {finding.path}:{finding.line}"


def test_guard_annotations_are_seeded_where_the_issue_requires():
    """PR 8 seeds `# guarded-by:` across the concurrency-sensitive
    modules; losing an annotation silently disables its checks."""
    expected = {
        "src/repro/service/cache.py": "_lock",
        "src/repro/server/registry.py": "_swap_lock",
        "src/repro/server/metrics.py": "loop",
        "src/repro/fleet/metrics.py": "loop",
        "src/repro/fleet/supervisor.py": "_lock",
        "src/repro/fleet/gateway.py": "_swap_lock",
    }
    for relpath, lock in expected.items():
        text = (REPO_ROOT / relpath).read_text()
        assert f"# guarded-by: {lock}" in text, (
            f"{relpath} lost its '# guarded-by: {lock}' annotation"
        )
