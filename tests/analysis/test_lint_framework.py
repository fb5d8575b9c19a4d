"""Framework behavior: suppressions, baselines, and the `repro lint`
CLI (exit codes, JSON output, baseline workflow)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.lint import (
    BaselineError,
    Finding,
    Project,
    default_config,
    load_baseline,
    run_lint,
    split_by_baseline,
    write_baseline,
)
from repro.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"
VIOLATIONS = FIXTURES / "violations"
NEARMISS = FIXTURES / "nearmiss"


def _write_async_violation(root: Path, *, suppress: str = "") -> Path:
    mod = root / "src" / "repro" / "server" / "app.py"
    mod.parent.mkdir(parents=True, exist_ok=True)
    body = "import time\n\n\nasync def handle():\n"
    if suppress:
        body += f"    {suppress}\n"
    body += "    time.sleep(0.1)\n"
    mod.write_text(body)
    return mod


class TestSuppressions:
    def test_inline_disable_on_preceding_line(self, tmp_path):
        _write_async_violation(
            tmp_path,
            suppress="# lint: disable=ASYNC-BLOCK — test justification",
        )
        report = run_lint(Project(tmp_path), default_config())
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["ASYNC-BLOCK"]

    def test_disable_of_a_different_rule_does_not_suppress(self, tmp_path):
        _write_async_violation(
            tmp_path, suppress="# lint: disable=LOCK-GUARD — wrong rule"
        )
        report = run_lint(Project(tmp_path), default_config())
        assert [f.rule for f in report.findings] == ["ASYNC-BLOCK"]

    def test_same_line_disable(self, tmp_path):
        mod = tmp_path / "src" / "repro" / "server" / "app.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            "import time\n\n\nasync def handle():\n"
            "    time.sleep(0.1)  # lint: disable=ASYNC-BLOCK — reason\n"
        )
        report = run_lint(Project(tmp_path), default_config())
        assert report.findings == []


class TestBaseline:
    def test_round_trip_accepts_current_findings(self, tmp_path):
        report = run_lint(Project(VIOLATIONS), default_config())
        assert report.findings
        path = tmp_path / "baseline.json"
        write_baseline(report.findings, path)
        accepted = load_baseline(path)
        new, baselined, stale = split_by_baseline(report.findings, accepted)
        assert new == []
        assert len(baselined) == len(report.findings)
        assert stale == set()

    def test_fingerprints_are_line_independent(self):
        a = Finding("p.py", 10, "RULE", "sym", "msg")
        b = Finding("p.py", 99, "RULE", "sym", "other msg")
        assert a.fingerprint() == b.fingerprint()

    def test_stale_entries_are_reported(self):
        new, baselined, stale = split_by_baseline([], {"RULE::gone.py::x"})
        assert stale == {"RULE::gone.py::x"}

    def test_invalid_baseline_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 99}')
        with pytest.raises(BaselineError):
            load_baseline(path)


class TestCli:
    def test_violations_exit_1(self):
        assert main(["lint", "--root", str(VIOLATIONS)]) == 1

    def test_nearmiss_exit_0(self):
        assert main(["lint", "--root", str(NEARMISS)]) == 0

    def test_json_format_lists_all_rules_fired(self, capsys):
        code = main(["lint", "--root", str(VIOLATIONS), "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in payload["findings"]} == {
            "ASYNC-BLOCK",
            "LOCK-GUARD",
            "EXPORT-SANITY",
        }
        for finding in payload["findings"]:
            assert finding["line"] >= 1
            assert finding["fingerprint"]

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "lint", "--root", str(VIOLATIONS),
                    "--baseline", str(baseline), "--write-baseline",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "lint", "--root", str(VIOLATIONS),
                    "--baseline", str(baseline),
                ]
            )
            == 0
        )

    def test_stale_baseline_entry_fails(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {"version": 1, "findings": ["RULE::gone.py::x"]}
            )
        )
        assert (
            main(
                ["lint", "--root", str(NEARMISS), "--baseline", str(baseline)]
            )
            == 1
        )

    def test_missing_explicit_baseline_is_an_error(self, tmp_path):
        assert (
            main(
                [
                    "lint", "--root", str(NEARMISS),
                    "--baseline", str(tmp_path / "absent.json"),
                ]
            )
            == 2
        )

    def test_unknown_rule_is_an_error(self):
        assert main(["lint", "--root", str(NEARMISS), "--rule", "NOPE"]) == 2

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("ASYNC-BLOCK", "LOCK-GUARD", "EXPORT-SANITY"):
            assert rule in out
