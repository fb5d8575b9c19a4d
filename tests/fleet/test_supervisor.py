"""WorkerSupervisor unit/integration tests: spawn, port discovery,
crash restart, fail-fast, teardown — no gateway involved."""

from __future__ import annotations

import signal
import threading
import time

import pytest

from repro.fleet import WorkerSupervisor
from tests.helpers import process_state


def _alive(pid: int) -> bool:
    """Running: a zombie answers ``os.kill(pid, 0)`` until the
    supervisor reaps it, on its next read of the fleet."""
    return process_state(pid) not in (None, "Z")


def _wait(predicate, timeout: float, message: str):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {message}")
        time.sleep(0.05)


@pytest.fixture()
def supervisor(fleet_store, tmp_path):
    sup = WorkerSupervisor(
        [fleet_store],
        2,
        runtime_dir=tmp_path / "rt",
        drain_grace=0.0,
        restart_backoff=0.1,
        stable_after=1.0,
    )
    sup.start()
    yield sup
    sup.stop()


class TestSpawn:
    def test_endpoints_and_port_files(self, supervisor):
        endpoints = supervisor.endpoints()
        assert sorted(endpoints) == ["w0", "w1"]
        ports = set()
        for name, url in endpoints.items():
            port = int(url.rsplit(":", 1)[1])
            ports.add(port)
            # The port file is the source of truth and must agree.
            on_disk = int(
                (supervisor.runtime_dir / f"{name}.port").read_text()
            )
            assert on_disk == port
        # Ephemeral binding: two workers can never collide.
        assert len(ports) == 2

    def test_fail_fast_on_bad_store(self, tmp_path):
        sup = WorkerSupervisor(
            [tmp_path / "no-such-store"], 1, runtime_dir=tmp_path / "rt"
        )
        with pytest.raises(RuntimeError, match="exited with code"):
            sup.start()
        sup.stop()  # idempotent even after a failed start


class TestCommand:
    @pytest.mark.parametrize(
        "kwargs, search_workers", [({"search_workers": 1}, "1"), ({}, "4")]
    )
    def test_search_workers_is_serves_search_worker_count(
        self, tmp_path, kwargs, search_workers
    ):
        """``search_workers=k`` launches ``serve --workers k`` (read off
        the command line; nothing is spawned)."""
        sup = WorkerSupervisor(
            [tmp_path / "store"], 2, runtime_dir=tmp_path / "rt", **kwargs
        )
        for worker in sup._workers:
            command = sup._command(worker)
            assert command[1:4] == ["-m", "repro.cli", "serve"]
            assert command.count("--workers") == 1
            flag = command.index("--workers")
            assert command[flag + 1] == search_workers


class TestRestart:
    def test_sigkill_respawns_under_same_name(self, supervisor):
        before = supervisor.endpoints()
        pid = supervisor.worker_pids()["w0"]
        supervisor.kill("w0", signal.SIGKILL)
        _wait(lambda: not _alive(pid), 10, "w0 to die")
        # The crashed worker drops out of endpoints() (its port file
        # is removed before respawn: the gateway must never route to
        # a stale address)...
        _wait(
            lambda: "w0" in supervisor.endpoints()
            and supervisor.worker_pids().get("w0") not in (None, pid),
            30,
            "w0 to respawn",
        )
        after = supervisor.endpoints()
        # ...and comes back under the same stable name.
        assert sorted(after) == sorted(before)
        assert supervisor.restarts_total == 1

    def test_repeated_crashes_keep_recovering(self, supervisor):
        for _ in range(2):
            pid = supervisor.worker_pids()["w1"]
            supervisor.kill("w1", signal.SIGKILL)
            _wait(
                lambda: supervisor.worker_pids().get("w1")
                not in (None, pid),
                30,
                "w1 to respawn",
            )
        assert supervisor.restarts_total >= 2


    def test_a_crash_is_respawned_after_its_backoff_which_doubles(
        self, fleet_store, tmp_path
    ):
        """The read that reaps a crashed worker schedules its respawn
        ``restart_backoff`` later, and no read respawns it earlier; a
        second crash before ``stable_after`` waits twice as long."""
        sup = WorkerSupervisor(
            [fleet_store],
            1,
            runtime_dir=tmp_path / "rt",
            drain_grace=0.0,
            restart_backoff=0.3,
            stable_after=30.0,
        )
        waited = []
        try:
            sup.start()
            for _ in range(2):
                pid = sup.worker_pids()["w0"]
                sup.kill("w0", signal.SIGKILL)
                _wait(lambda: not _alive(pid), 10, "w0 to die")
                reaped = time.monotonic()
                assert "w0" not in sup.worker_pids()
                _wait(
                    lambda: "w0" in sup.worker_pids(), 30, "w0 to respawn"
                )
                waited.append(time.monotonic() - reaped)
            assert sup.restarts_total == 2
        finally:
            sup.stop()
        assert waited[0] >= 0.3 and waited[1] >= 0.6, waited


class TestStop:
    def test_stop_terminates_all_workers(self, fleet_store, tmp_path):
        sup = WorkerSupervisor(
            [fleet_store], 2, runtime_dir=tmp_path / "rt", drain_grace=0.0
        )
        sup.start()
        pids = list(sup.worker_pids().values())
        assert len(pids) == 2
        sup.stop()
        _wait(
            lambda: not any(_alive(pid) for pid in pids),
            15,
            "workers to exit",
        )
        sup.stop()  # idempotent

    def test_nothing_respawns_after_stop(self, fleet_store, tmp_path):
        """A worker that crashed and was reaped is due to respawn when
        the fleet stops: no read of the fleet after ``stop()`` spawns
        it."""
        sup = WorkerSupervisor(
            [fleet_store],
            1,
            runtime_dir=tmp_path / "rt",
            drain_grace=0.0,
            restart_backoff=0.2,
        )
        try:
            sup.start()
            pid = sup.worker_pids()["w0"]
            sup.kill("w0", signal.SIGKILL)
            _wait(lambda: not _alive(pid), 10, "w0 to die")
            assert sup.worker_pids() == {}  # reaped, respawn scheduled
            sup.stop()
            time.sleep(0.4)
            assert sup.endpoints() == {}
            assert sup.worker_pids() == {}
            assert sup.restarts_total == 0
        finally:
            sup.stop()


class TestNoThread:
    def test_start_and_respawn_run_on_the_callers_thread(
        self, fleet_store, tmp_path
    ):
        """The supervisor starts no thread: spawning, reaping and the
        respawn after a crash happen in the reads of the fleet — on the
        gateway's loop when a gateway runs, here on the test's thread."""
        before = threading.enumerate()
        sup = WorkerSupervisor(
            [fleet_store],
            1,
            runtime_dir=tmp_path / "rt",
            drain_grace=0.0,
            restart_backoff=0.1,
        )
        try:
            sup.start()
            assert threading.enumerate() == before
            pid = sup.worker_pids()["w0"]
            sup.kill("w0", signal.SIGKILL)
            _wait(
                lambda: sup.worker_pids().get("w0") not in (None, pid),
                30,
                "w0 to respawn",
            )
            assert sup.restarts_total == 1
            assert threading.enumerate() == before
        finally:
            sup.stop()
