"""Pinning regression tests for what LOCK-GUARD surfaced in PR 8.

LOCK-GUARD flagged two `WorkerSupervisor` methods touching
``_workers`` without the supervisor's lock, which a monitor thread
then shared.  The supervisor has neither any more: its state is
confined to the gateway's event loop (``# guarded-by: loop``), which
the lint rule checks.  These tests pin the behaviour the fix kept:
``log_tail`` reads a worker's log, and names only workers that exist.
"""

from __future__ import annotations

import pytest

from repro.fleet.supervisor import WorkerSupervisor


def _supervisor(tmp_path) -> WorkerSupervisor:
    return WorkerSupervisor(
        [str(tmp_path / "store")],
        num_workers=2,
        runtime_dir=tmp_path / "runtime",
        spawn_timeout=2.0,
    )


class TestSupervisorLogTail:
    def test_log_tail_reads_the_last_lines(self, tmp_path):
        sup = _supervisor(tmp_path)
        assert sup.log_tail("w0") == ""  # no log yet — still no crash
        (sup.runtime_dir / "w0.log").write_text("line1\nline2\nline3\n")
        assert sup.log_tail("w0", lines=2) == "line2\nline3"

    def test_log_tail_unknown_worker_raises(self, tmp_path):
        sup = _supervisor(tmp_path)
        with pytest.raises(KeyError):
            sup.log_tail("w99")


class TestSupervisorAwaitPorts:
    def test_await_ports_returns_once_every_port_file_is_written(
        self, tmp_path
    ):
        sup = _supervisor(tmp_path)
        # No process was spawned: the written port files are all it
        # waits for.
        for worker in sup._workers:
            worker.port_file.write_text("4242")
        sup._await_ports()
        assert [sup._read_port(w) for w in sup._workers] == [4242, 4242]

    def test_await_ports_names_the_workers_that_never_bound(self, tmp_path):
        sup = _supervisor(tmp_path)
        sup.spawn_timeout = 0.1
        sup._workers[0].port_file.write_text("4242")
        with pytest.raises(RuntimeError, match=r"worker\(s\) w1 did not bind"):
            sup._await_ports()
