"""Pinning regression tests for the true positives LOCK-GUARD
surfaced in PR 8.

LOCK-GUARD flagged two `WorkerSupervisor` methods touching
``_workers`` without ``_lock`` (``log_tail`` raced the monitor thread
during respawns; ``_await_ports`` snapshotted the list unlocked).
The lint rule pins the *pattern*; these tests pin the *behavior* —
the lock is genuinely acquired, and the methods still work.
"""

from __future__ import annotations

import threading

from repro.fleet.supervisor import WorkerSupervisor


class RecordingLock:
    """A real lock that counts acquisitions (context-manager use)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.acquisitions = 0

    def __enter__(self):
        self._lock.acquire()
        self.acquisitions += 1
        return self

    def __exit__(self, *exc) -> None:
        self._lock.release()

    def acquire(self, *a, **k):
        self.acquisitions += 1
        return self._lock.acquire(*a, **k)

    def release(self) -> None:
        self._lock.release()


def _supervisor(tmp_path, num_workers=2) -> WorkerSupervisor:
    return WorkerSupervisor(
        [str(tmp_path / "store")],
        num_workers=num_workers,
        runtime_dir=tmp_path / "runtime",
        spawn_timeout=2.0,
    )


class TestSupervisorLockDiscipline:
    def test_log_tail_takes_the_lock(self, tmp_path):
        sup = _supervisor(tmp_path)
        lock = RecordingLock()
        sup._lock = lock
        assert sup.log_tail("w0") == ""  # no log yet — still no crash
        assert lock.acquisitions == 1

    def test_log_tail_reads_outside_the_lock(self, tmp_path):
        """Tailing a (possibly large) log must not stall the monitor:
        the file read happens after the lock is released."""
        sup = _supervisor(tmp_path)
        (sup.runtime_dir / "w0.log").write_text("line1\nline2\nline3\n")
        lock = RecordingLock()
        sup._lock = lock
        tail = sup.log_tail("w0", lines=2)
        assert tail == "line2\nline3"
        # Lock free again: a second acquisition succeeds immediately.
        assert lock.acquire(blocking=False)
        lock.release()

    def test_log_tail_unknown_worker_raises(self, tmp_path):
        sup = _supervisor(tmp_path)
        try:
            sup.log_tail("w99")
        except KeyError:
            pass
        else:
            raise AssertionError("expected KeyError for unknown worker")

    def test_await_ports_snapshots_under_the_lock(self, tmp_path):
        sup = _supervisor(tmp_path)
        # Pre-write every port file so _await_ports returns immediately
        # (no processes were spawned).
        for worker in sup._workers:
            worker.port_file.write_text("4242")
        lock = RecordingLock()
        sup._lock = lock
        sup._await_ports()
        assert lock.acquisitions == 1

    def test_concurrent_log_tail_and_endpoints_do_not_race(self, tmp_path):
        """Both walk ``_workers`` under the lock now; hammering them
        from two threads must stay exception-free."""
        sup = _supervisor(tmp_path, num_workers=4)
        errors: list[BaseException] = []

        def hammer(fn):
            try:
                for _ in range(200):
                    fn()
            except BaseException as exc:  # noqa: BLE001 — test harness
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(lambda: sup.log_tail("w0"),)),
            threading.Thread(target=hammer, args=(sup.endpoints,)),
            threading.Thread(target=hammer, args=(sup.worker_pids,)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
