"""Trajectory indexing: append order, idempotent consumption, and the
corrupt-file refusals that keep ``BENCH_*.json`` trustworthy."""

from __future__ import annotations

import json

import pytest

from repro.benchops import (
    TrajectoryError,
    append_record,
    emit_record,
    index_records,
    load_trajectory,
    trajectory_names,
    trajectory_path,
)


class TestAppend:
    def test_append_creates_then_extends(self, tmp_path, record_factory):
        first = record_factory(metrics={"run_ms": 10.0})
        second = record_factory(metrics={"run_ms": 11.0})
        path = append_record(tmp_path, first)
        assert path == trajectory_path(tmp_path, "demo_bench")
        append_record(tmp_path, second)
        history = load_trajectory(path)
        assert [r.metrics["run_ms"] for r in history] == [10.0, 11.0]

    def test_trajectory_names(self, tmp_path, record_factory):
        append_record(tmp_path, record_factory("bench_a"))
        append_record(tmp_path, record_factory("bench_b"))
        assert trajectory_names(tmp_path) == ["bench_a", "bench_b"]


class TestIndexer:
    def test_indexes_pending_records_oldest_first(
        self, tmp_path, record_factory
    ):
        records_dir = tmp_path / "records"
        emit_record(record_factory(metrics={"run_ms": 1.0}), records_dir)
        emit_record(record_factory(metrics={"run_ms": 2.0}), records_dir)
        summary = index_records(records_dir, tmp_path)
        assert len(summary.indexed) == 2
        assert summary.rejected == []
        history = load_trajectory(trajectory_path(tmp_path, "demo_bench"))
        assert [r.metrics["run_ms"] for r in history] == [1.0, 2.0]
        # Consumed: a second run indexes nothing (idempotent).
        assert list(records_dir.glob("*.json")) == []
        again = index_records(records_dir, tmp_path)
        assert again.indexed == [] and again.rejected == []

    def test_keep_leaves_pending_files(self, tmp_path, record_factory):
        records_dir = tmp_path / "records"
        emit_record(record_factory(), records_dir)
        index_records(records_dir, tmp_path, consume=False)
        assert len(list(records_dir.glob("*.json"))) == 1

    def test_invalid_record_rejected_and_left_in_place(
        self, tmp_path, record_factory
    ):
        records_dir = tmp_path / "records"
        good = emit_record(record_factory(metrics={"run_ms": 1.0}), records_dir)
        bad = records_dir / "zz-bad.json"
        raw = json.loads(good.read_text())
        raw["metrics"] = {}
        bad.write_text(json.dumps(raw))
        summary = index_records(records_dir, tmp_path)
        assert len(summary.indexed) == 1
        assert len(summary.rejected) == 1
        assert summary.rejected[0][0] == bad
        assert "metrics" in summary.rejected[0][1]
        assert bad.exists()  # rejected files are never consumed

    def test_unreadable_record_rejected(self, tmp_path):
        records_dir = tmp_path / "records"
        records_dir.mkdir()
        (records_dir / "junk.json").write_text("{not json")
        summary = index_records(records_dir, tmp_path)
        assert summary.indexed == []
        assert "unreadable" in summary.rejected[0][1]


class TestCorruptTrajectories:
    """A corrupt trajectory is reported and refused — never silently
    replaced, truncated, or extended."""

    def _trajectory(self, tmp_path, record_factory):
        append_record(tmp_path, record_factory())
        return trajectory_path(tmp_path, "demo_bench")

    def test_refuses_invalid_json(self, tmp_path, record_factory):
        path = self._trajectory(tmp_path, record_factory)
        path.write_text("{broken")
        with pytest.raises(TrajectoryError, match="not valid JSON"):
            load_trajectory(path)
        with pytest.raises(TrajectoryError):
            append_record(tmp_path, record_factory())

    def test_refuses_wrong_benchmark_name(self, tmp_path, record_factory):
        path = self._trajectory(tmp_path, record_factory)
        raw = json.loads(path.read_text())
        raw["benchmark"] = "someone_else"
        path.write_text(json.dumps(raw))
        with pytest.raises(TrajectoryError, match="filename"):
            load_trajectory(path)

    def test_refuses_corrupt_entry_with_index(self, tmp_path, record_factory):
        append_record(tmp_path, record_factory())
        path = self._trajectory(tmp_path, record_factory)
        raw = json.loads(path.read_text())
        raw["entries"][1]["metrics"]["run_ms"] = "fast"
        path.write_text(json.dumps(raw))
        with pytest.raises(TrajectoryError, match="entry 1"):
            load_trajectory(path)

    def test_refuses_wrong_schema_version(self, tmp_path, record_factory):
        path = self._trajectory(tmp_path, record_factory)
        raw = json.loads(path.read_text())
        raw["schema_version"] = 0
        path.write_text(json.dumps(raw))
        with pytest.raises(TrajectoryError, match="schema_version"):
            load_trajectory(path)

    def test_indexer_leaves_record_pending_on_corrupt_trajectory(
        self, tmp_path, record_factory
    ):
        path = self._trajectory(tmp_path, record_factory)
        path.write_text("[]")  # an object is required
        records_dir = tmp_path / "records"
        pending = emit_record(record_factory(), records_dir)
        summary = index_records(records_dir, tmp_path)
        assert summary.indexed == []
        assert len(summary.rejected) == 1
        assert pending.exists()
        assert path.read_text() == "[]"  # untouched


class TestBenchCLI:
    def test_index_then_show(self, tmp_path, record_factory, capsys):
        from repro.cli import main

        records_dir = tmp_path / "records"
        for _ in range(2):
            emit_record(record_factory(), records_dir)
        root = str(tmp_path)
        assert main(["bench", "index", "--records", str(records_dir), "--root", root]) == 0
        assert main(["bench", "show", "--root", root]) == 0
        assert "demo_bench: 2 entries" in capsys.readouterr().out

    def test_there_is_no_gate(self):
        """Wall times from two sessions do not compare, so no command
        judges a run against an earlier one."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["bench", "compare"])
        assert exc.value.code == 2

    def test_help_lists_only_index_and_show(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["bench", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "{index,show}" in out
        assert "compare" not in out

    def test_show_without_trajectories(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["bench", "show", "--root", str(tmp_path)]) == 0
        assert "no BENCH_*.json trajectories" in capsys.readouterr().out
