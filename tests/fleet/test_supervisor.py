"""WorkerSupervisor unit/integration tests: spawn, port discovery,
crash restart, fail-fast, teardown — no gateway involved."""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.fleet import WorkerSupervisor


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


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
        poll_interval=0.05,
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
