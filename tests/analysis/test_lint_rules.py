"""Per-rule coverage over the fixture mini-repos.

``fixtures/violations/`` mirrors the real repo layout with exactly
one seeded violation per rule (two for the rules with two modes) —
every rule must fire.  ``fixtures/nearmiss/`` holds the adjacent
*sanctioned* patterns — nothing may fire (false-positive guard).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from tests.analysis.lint import RULES, Finding, lint, python_files

FIXTURES = Path(__file__).resolve().parent / "fixtures"
VIOLATIONS = FIXTURES / "violations"
NEARMISS = FIXTURES / "nearmiss"

ALL_RULES = {
    "ASYNC-BLOCK",
    "LOCK-GUARD",
    "EXPORT-SANITY",
}


class TestViolationsFixture:
    @pytest.fixture(scope="class")
    def findings(self):
        return lint(VIOLATIONS)[0]

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

    @pytest.mark.parametrize("rule", sorted(ALL_RULES))
    def test_rule_selection_runs_only_that_rule(self, rule, findings):
        """Each rule's check, run alone over its own subtrees, yields
        exactly that rule's share of the full run."""
        check, subtrees = RULES[rule]
        alone = []
        for path in python_files(VIOLATIONS, subtrees):
            text = (VIOLATIONS / path).read_text(encoding="utf-8")
            alone += check(path, ast.parse(text), text.splitlines(), VIOLATIONS)
        assert {f.rule for f in alone} == {rule}
        assert sorted(alone) == [f for f in findings if f.rule == rule]

    def test_nothing_is_suppressed(self):
        assert lint(VIOLATIONS)[1] == []


class TestNearMissFixture:
    @pytest.fixture(scope="class")
    def findings(self):
        return lint(NEARMISS)[0]

    def test_no_rule_fires(self, findings):
        assert findings == []

    @pytest.mark.parametrize("rule", sorted(ALL_RULES))
    def test_each_rule_individually_clean(self, rule, findings):
        """Clean, and not because the rule saw nothing."""
        assert any(python_files(NEARMISS, RULES[rule][1]))
        assert [f for f in findings if f.rule == rule] == []


class TestExportSanityEdgeCases:
    def test_duplicate_and_uncovered(self, tmp_path):
        mod = tmp_path / "src" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            '__all__ = ["f", "f"]\n\n\ndef f():\n    pass\n\n\n'
            "def public_helper():\n    pass\n"
        )
        assert {f.symbol for f in lint(tmp_path)[0]} == {
            "f:duplicate",
            "public_helper:uncovered",
        }

    def test_computed_all_is_skipped(self, tmp_path):
        mod = tmp_path / "src" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("names = ['f']\n__all__ = list(names)\n")
        assert lint(tmp_path)[0] == []

    def test_underscore_defs_need_no_export(self, tmp_path):
        mod = tmp_path / "src" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text('__all__ = ["f"]\n\n\ndef f():\n    pass\n\n\n'
                       "def _private():\n    pass\n")
        assert lint(tmp_path)[0] == []


class TestParseErrors:
    def test_unparsable_file_fails_loudly(self, tmp_path):
        """A file that does not parse must not silently switch off the
        rules that would have read it."""
        bad = tmp_path / "src" / "repro" / "server" / "app.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n")
        with pytest.raises(SyntaxError) as error:
            lint(tmp_path)
        assert error.value.filename == "src/repro/server/app.py"


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
        findings, suppressed = lint(tmp_path)
        assert findings == []
        assert [f.rule for f in suppressed] == ["ASYNC-BLOCK"]

    def test_disable_of_a_different_rule_does_not_suppress(self, tmp_path):
        _write_async_violation(
            tmp_path, suppress="# lint: disable=LOCK-GUARD — wrong rule"
        )
        assert [f.rule for f in lint(tmp_path)[0]] == ["ASYNC-BLOCK"]

    def test_same_line_disable(self, tmp_path):
        mod = tmp_path / "src" / "repro" / "server" / "app.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            "import time\n\n\nasync def handle():\n"
            "    time.sleep(0.1)  # lint: disable=ASYNC-BLOCK — reason\n"
        )
        assert lint(tmp_path)[0] == []


def _write(root: Path, relpath: str, source: str) -> Path:
    mod = root / relpath
    mod.parent.mkdir(parents=True, exist_ok=True)
    mod.write_text(source)
    return mod


def _symbols(root: Path, rule: str) -> set[str]:
    return {f.symbol for f in lint(root)[0] if f.rule == rule}


SERVER_APP = "src/repro/server/app.py"
SERVICE_CACHE = "src/repro/service/cache.py"


class TestAsyncBlockEdgeCases:
    def test_from_import_alias_is_resolved(self, tmp_path):
        _write(
            tmp_path,
            SERVER_APP,
            "from time import sleep as nap\n\n\nasync def h():\n    nap(1)\n",
        )
        assert _symbols(tmp_path, "ASYNC-BLOCK") == {"h->time.sleep@h"}

    def test_module_alias_is_resolved(self, tmp_path):
        _write(
            tmp_path,
            SERVER_APP,
            "import subprocess as sp\n\n\nasync def h():\n"
            "    sp.run(['true'])\n",
        )
        assert _symbols(tmp_path, "ASYNC-BLOCK") == {"h->subprocess.run@h"}

    def test_transitive_helper_chain_names_the_blocking_helper(self, tmp_path):
        _write(
            tmp_path,
            SERVER_APP,
            "import time\n\n\ndef b():\n    time.sleep(1)\n\n\n"
            "def a():\n    b()\n\n\nasync def h():\n    a()\n",
        )
        [f] = lint(tmp_path)[0]
        assert f.symbol == "h->time.sleep@b"
        assert f.line == 5
        assert "via `b`" in f.message

    def test_self_method_call_is_followed(self, tmp_path):
        _write(
            tmp_path,
            SERVER_APP,
            "class App:\n"
            "    async def handle(self):\n        return self._load()\n\n"
            "    def _load(self):\n"
            "        with open('x') as f:\n            return f.read()\n",
        )
        assert _symbols(tmp_path, "ASYNC-BLOCK") == {"handle->open@_load"}

    def test_method_of_another_object_is_not_followed(self, tmp_path):
        _write(
            tmp_path,
            SERVER_APP,
            "def _load():\n    return open('x').read()\n\n\n"
            "async def handle(other):\n    return other._load()\n",
        )
        assert lint(tmp_path)[0] == []

    def test_blocking_call_outside_any_coroutine_is_clean(self, tmp_path):
        _write(
            tmp_path,
            SERVER_APP,
            "import time\n\n\ndef tick():\n    time.sleep(1)\n",
        )
        assert lint(tmp_path)[0] == []

    def test_subtrees_off_the_event_loop_are_not_walked(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/service/worker.py",
            "import time\n\n\nasync def h():\n    time.sleep(1)\n",
        )
        assert lint(tmp_path)[0] == []


_GUARDED_CLASS = (
    "from threading import Lock\n\n\n"
    "class Cache:\n"
    "    def __init__(self):\n"
    "        self._lock = Lock()\n"
    "        self._entries = {{}}{annotation}\n\n"
)


class TestLockGuardEdgeCases:
    def _cache(
        self, root: Path, methods: str, annotation: str = "  # guarded-by: _lock"
    ) -> None:
        source = _GUARDED_CLASS.format(annotation=annotation) + methods
        _write(root, SERVICE_CACHE, source)

    def test_receiver_must_match_the_held_lock(self, tmp_path):
        self._cache(
            tmp_path,
            "    def peek(self, other):\n"
            "        with other._lock:\n            return self._entries\n",
        )
        [f] = lint(tmp_path)[0]
        assert f.symbol == "_entries@peek"
        assert "`self._lock`" in f.message

    def test_async_with_counts_as_holding_the_lock(self, tmp_path):
        self._cache(
            tmp_path,
            "    async def get(self):\n"
            "        async with self._lock:\n            return self._entries\n",
        )
        assert lint(tmp_path)[0] == []

    def test_unannotated_attribute_is_not_checked(self, tmp_path):
        self._cache(
            tmp_path,
            "    def peek(self):\n        return self._entries\n",
            annotation="",
        )
        assert lint(tmp_path)[0] == []

    def test_loop_guard_allows_straight_line_access(self, tmp_path):
        self._cache(
            tmp_path,
            "    def put(self, key, value):\n        self._entries[key] = value\n",
            annotation="  # guarded-by: loop",
        )
        assert lint(tmp_path)[0] == []

    def test_loop_guard_flags_capture_in_nested_def(self, tmp_path):
        self._cache(
            tmp_path,
            "    def deferred(self):\n"
            "        def callback():\n            return self._entries\n"
            "        return callback\n",
            annotation="  # guarded-by: loop",
        )
        [f] = lint(tmp_path)[0]
        assert f.symbol == "_entries@callback"
        assert "loop-confined" in f.message


class TestExportSanityModes:
    def test_star_import_excuses_unbound_exports(self, tmp_path):
        _write(
            tmp_path,
            "src/mod.py",
            'from os.path import *\n\n__all__ = ["join"]\n',
        )
        assert lint(tmp_path)[0] == []

    def test_bindings_in_top_level_try_and_if_count(self, tmp_path):
        _write(
            tmp_path,
            "src/mod.py",
            'import sys\n\n__all__ = ["fast", "slow"]\n\n'
            "try:\n    import json as fast\nexcept ImportError:\n"
            "    fast = None\n\n"
            "if sys.version_info >= (3, 0):\n    slow = 1\nelse:\n"
            "    slow = 2\n",
        )
        assert lint(tmp_path)[0] == []

    def test_unbound_message_names_the_importable_module(self, tmp_path):
        _write(tmp_path, "src/repro/pkg/__init__.py", '__all__ = ["gone"]\n')
        [f] = lint(tmp_path)[0]
        assert f.symbol == "gone:unbound"
        assert "`from repro.pkg import *`" in f.message


class TestExportSanityLazyTables:
    """A package that re-exports on first use (``repro._lazy``) binds a
    name of its table only where the table's module binds it."""

    @staticmethod
    def _reexport(target: str) -> str:
        return (
            "from repro._lazy import lazy_exports\n\n"
            "__getattr__, __dir__ = lazy_exports(\n"
            f'    globals(), {{"{target}": ("thing",)}}\n)\n\n'
            '__all__ = ["thing"]\n'
        )

    def _package(self, root: Path, module: str) -> None:
        _write(root, "src/repro/pkg/__init__.py", self._reexport(f"repro.pkg.{module}"))
        _write(root, "src/repro/pkg/real.py", '__all__ = ["thing"]\n\nthing = 1\n')
        _write(root, "src/repro/pkg/other.py", '__all__ = ["other"]\n\nother = 2\n')

    def test_an_entry_its_module_binds_is_bound(self, tmp_path):
        self._package(tmp_path, "real")
        assert lint(tmp_path)[0] == []

    @pytest.mark.parametrize("module", ["other", "missing"])
    def test_an_entry_pointing_at_the_wrong_module_is_unbound(
        self, tmp_path, module
    ):
        self._package(tmp_path, module)
        [f] = lint(tmp_path)[0]
        assert (f.path, f.symbol) == ("src/repro/pkg/__init__.py", "thing:unbound")
        assert f"reads it from `repro.pkg.{module}`" in f.message

    def test_a_chain_of_tables_resolves_to_the_binding_module(self, tmp_path):
        self._package(tmp_path, "real")
        _write(tmp_path, "src/repro/__init__.py", self._reexport("repro.pkg"))
        assert lint(tmp_path)[0] == []


class TestSuppressionReach:
    def test_one_comment_may_disable_several_rules(self, tmp_path):
        _write_async_violation(
            tmp_path,
            suppress="# lint: disable=LOCK-GUARD, ASYNC-BLOCK — both",
        )
        findings, suppressed = lint(tmp_path)
        assert findings == []
        assert [f.rule for f in suppressed] == ["ASYNC-BLOCK"]

    def test_disable_two_lines_above_does_not_reach(self, tmp_path):
        _write(
            tmp_path,
            SERVER_APP,
            "import time\n\n\nasync def handle():\n"
            "    # lint: disable=ASYNC-BLOCK — too far away\n"
            "    x = 1\n    time.sleep(x)\n",
        )
        assert [f.rule for f in lint(tmp_path)[0]] == ["ASYNC-BLOCK"]


class TestFindings:
    def test_symbols_are_line_independent(self, tmp_path):
        """A symbol names what is in violation, not where: shifting the
        file moves the line and keeps the symbol."""
        mod = _write_async_violation(tmp_path)
        [before] = lint(tmp_path)[0]
        mod.write_text("\n\n" + mod.read_text())
        [after] = lint(tmp_path)[0]
        assert after.symbol == before.symbol
        assert after.line == before.line + 2

    def test_render(self):
        finding = Finding("src/a.py", 3, "LOCK-GUARD", "x@f", "message")
        assert finding.render() == "src/a.py:3: [LOCK-GUARD] message"

    def test_walker_is_sorted_relative_and_skips_missing_subtrees(self, tmp_path):
        for rel in ("src/b.py", "src/a/c.py", "src/a.txt"):
            _write(tmp_path, rel, "")
        assert list(python_files(tmp_path, ["src", "missing"])) == [
            "src/a/c.py",
            "src/b.py",
        ]
