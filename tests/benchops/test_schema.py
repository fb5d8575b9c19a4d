"""BenchRecord schema: capture, round-trip, and validation rejects."""

from __future__ import annotations

import re
import subprocess

import pytest

from repro.benchops import (
    BenchRecord,
    RecordError,
    emit_record,
    validate_record,
)
from repro.benchops.machine import current_git_sha, git_tree_dirty
from repro.benchops.schema import MACHINE_KEYS, config_hash


def make_record() -> BenchRecord:
    return BenchRecord.capture(
        "demo_bench",
        scale="tiny",
        metrics={"run_ms": 12.5, "qps_qps": 80.0, "settled": 1234.0},
        config={"instance": "oahu", "n": 3},
    )


class TestCapture:
    def test_capture_stamps_provenance(self):
        record = make_record()
        assert record.scale == "tiny"
        for key in MACHINE_KEYS:
            assert key in record.machine
        assert record.machine["cpu_count"] >= 1
        assert record.created_unix > 0
        # The checked-out commit, or None in an exported source tree.
        assert record.git_sha == current_git_sha()
        assert record.dirty == git_tree_dirty()
        assert record.config_hash == config_hash(record.config)

    def test_git_sha_of_a_work_tree_is_its_head(self, tmp_path):
        git = [
            "git", "-C", str(tmp_path),
            "-c", "user.name=bench",
            "-c", "user.email=bench@example.invalid",
            "-c", "commit.gpgsign=false",
        ]
        subprocess.run([*git, "init", "-q"], check=True)
        (tmp_path / "tracked.txt").write_text("one\n")
        subprocess.run([*git, "add", "tracked.txt"], check=True)
        subprocess.run([*git, "commit", "-q", "-m", "init"], check=True)
        sha = current_git_sha(str(tmp_path))
        assert sha is not None and re.fullmatch(r"[0-9a-f]{40}", sha)
        assert git_tree_dirty(str(tmp_path)) is False
        # An edit to a tracked file, then a new file: both dirty.
        (tmp_path / "tracked.txt").write_text("two\n")
        assert git_tree_dirty(str(tmp_path)) is True
        subprocess.run([*git, "commit", "-q", "-am", "edit"], check=True)
        assert git_tree_dirty(str(tmp_path)) is False
        (tmp_path / "new.py").write_text("")
        assert git_tree_dirty(str(tmp_path)) is True
        assert current_git_sha(str(tmp_path)) != sha

    def test_git_sha_outside_a_work_tree_is_none(self, tmp_path, monkeypatch):
        # Keep git from finding a repository above the temporary directory.
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        assert current_git_sha(str(tmp_path)) is None
        assert git_tree_dirty(str(tmp_path)) is None

    def test_a_record_older_than_the_dirty_mark_reads_back_unchanged(self):
        raw = make_record().to_dict()
        raw.pop("dirty", None)
        record = validate_record(raw)
        assert record.dirty is None
        assert record.to_dict() == raw

    def test_rejects_a_dirty_mark_that_is_not_a_boolean(self):
        raw = make_record().to_dict()
        raw["dirty"] = "yes"
        with pytest.raises(RecordError, match="dirty"):
            validate_record(raw)

    def test_roundtrip_through_dict(self):
        record = make_record()
        again = validate_record(record.to_dict())
        assert again == record

    def test_metrics_coerced_to_float(self):
        record = BenchRecord.capture(
            "demo_bench", scale="tiny", metrics={"n_ms": 3}
        )
        assert record.metrics["n_ms"] == 3.0
        assert isinstance(record.metrics["n_ms"], float)


class TestValidation:
    def test_rejects_non_object(self):
        with pytest.raises(RecordError, match="expected an object"):
            validate_record([1, 2])

    def test_rejects_wrong_schema_version(self):
        raw = make_record().to_dict()
        raw["schema_version"] = 99
        with pytest.raises(RecordError, match="schema_version"):
            validate_record(raw)

    def test_rejects_bad_benchmark_name(self):
        raw = make_record().to_dict()
        raw["benchmark"] = "has spaces!"
        with pytest.raises(RecordError, match="benchmark"):
            validate_record(raw)

    def test_rejects_unknown_scale(self):
        raw = make_record().to_dict()
        raw["scale"] = "enormous"
        with pytest.raises(RecordError, match="scale"):
            validate_record(raw)

    def test_rejects_tampered_config(self):
        """config_hash pins config: editing one without the other is
        caught at validation (the hash keys baseline comparability)."""
        raw = make_record().to_dict()
        raw["config"]["n"] = 999
        with pytest.raises(RecordError, match="config_hash"):
            validate_record(raw)

    def test_rejects_empty_metrics(self):
        raw = make_record().to_dict()
        raw["metrics"] = {}
        with pytest.raises(RecordError, match="metrics"):
            validate_record(raw)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "12", True, None])
    def test_rejects_non_finite_or_non_numeric_metric(self, bad):
        raw = make_record().to_dict()
        raw["metrics"]["bad_ms"] = bad
        with pytest.raises(RecordError, match="bad_ms"):
            validate_record(raw)

    def test_rejects_missing_machine_key(self):
        raw = make_record().to_dict()
        del raw["machine"]["cpu_count"]
        with pytest.raises(RecordError, match="cpu_count"):
            validate_record(raw)


class TestEmit:
    def test_emit_writes_validatable_json(self, tmp_path):
        import json

        record = make_record()
        path = emit_record(record, tmp_path)
        assert path.parent == tmp_path
        assert validate_record(json.loads(path.read_text())) == record

    def test_emit_never_overwrites(self, tmp_path):
        record = make_record()
        first = emit_record(record, tmp_path)
        second = emit_record(record, tmp_path)
        assert first != second
        assert first.exists() and second.exists()
