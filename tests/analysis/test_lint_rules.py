"""Per-rule coverage over the fixture mini-repos.

``fixtures/violations/`` mirrors the real repo layout with exactly
one seeded violation per rule (two for the rules with two modes) —
every rule must fire.  ``fixtures/nearmiss/`` holds the adjacent
*sanctioned* patterns — nothing may fire (false-positive guard).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.lint import Project, default_config, run_lint

FIXTURES = Path(__file__).resolve().parent / "fixtures"
VIOLATIONS = FIXTURES / "violations"
NEARMISS = FIXTURES / "nearmiss"

ALL_RULES = {
    "ASYNC-BLOCK",
    "LOCK-GUARD",
    "EXPORT-SANITY",
}


def lint(root: Path, rules: list[str] | None = None):
    return run_lint(Project(root), default_config(), rules)


class TestViolationsFixture:
    @pytest.fixture(scope="class")
    def findings(self):
        return lint(VIOLATIONS).findings

    def test_every_rule_fires(self, findings):
        assert {f.rule for f in findings} == ALL_RULES

    def test_async_block_reports_the_reachability_chain(self, findings):
        [f] = [f for f in findings if f.rule == "ASYNC-BLOCK"]
        assert f.path == "src/repro/server/app.py"
        assert f.symbol == "handle->time.sleep@_refresh_cache"
        assert "via `_refresh_cache`" in f.message

    def test_lock_guard_fires_on_unlocked_access_and_deferred_capture(
        self, findings
    ):
        symbols = {f.symbol for f in findings if f.rule == "LOCK-GUARD"}
        assert symbols == {"_entries@size", "requests_total@defer"}

    def test_export_sanity_fires_on_unbound_export(self, findings):
        [f] = [f for f in findings if f.rule == "EXPORT-SANITY"]
        assert f.symbol == "missing_symbol:unbound"

    def test_findings_carry_file_and_line(self, findings):
        for f in findings:
            assert f.line >= 1
            assert (VIOLATIONS / f.path).is_file()

    def test_rule_selection_runs_only_that_rule(self):
        report = lint(VIOLATIONS, ["ASYNC-BLOCK"])
        assert report.rules_run == ["ASYNC-BLOCK"]
        assert {f.rule for f in report.findings} == {"ASYNC-BLOCK"}


class TestNearMissFixture:
    def test_no_rule_fires(self):
        report = lint(NEARMISS)
        assert report.findings == []

    @pytest.mark.parametrize("rule", sorted(ALL_RULES))
    def test_each_rule_individually_clean(self, rule):
        assert lint(NEARMISS, [rule]).findings == []


class TestExportSanityEdgeCases:
    def test_duplicate_and_uncovered(self, tmp_path):
        mod = tmp_path / "src" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            '__all__ = ["f", "f"]\n\n\ndef f():\n    pass\n\n\n'
            "def public_helper():\n    pass\n"
        )
        report = lint(tmp_path, ["EXPORT-SANITY"])
        assert {f.symbol for f in report.findings} == {
            "f:duplicate",
            "public_helper:uncovered",
        }

    def test_computed_all_is_skipped(self, tmp_path):
        mod = tmp_path / "src" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("names = ['f']\n__all__ = list(names)\n")
        assert lint(tmp_path, ["EXPORT-SANITY"]).findings == []

    def test_underscore_defs_need_no_export(self, tmp_path):
        mod = tmp_path / "src" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text('__all__ = ["f"]\n\n\ndef f():\n    pass\n\n\n'
                       "def _private():\n    pass\n")
        assert lint(tmp_path, ["EXPORT-SANITY"]).findings == []


class TestParseErrors:
    def test_unparsable_file_is_a_finding_not_a_crash(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "server" / "app.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n")
        report = lint(tmp_path)
        assert [f.rule for f in report.findings] == ["PARSE-ERROR"]
        assert report.findings[0].path == "src/repro/server/app.py"
