"""Worker process supervision for the serve fleet.

A :class:`WorkerSupervisor` spawns N ``repro-transit serve`` worker
*processes* over the same artifact-store directories and keeps them
alive; the gateway fails their queries over while one restarts and
catches a restarted one up before routing to it.  Each worker forks
``search_workers`` search processes of its own (its ``serve
--workers``), as one ``serve`` does; the fleet is for failover, and on
one box it did not beat one ``serve`` (``docs/FLEET.md``, "Scaling").
The supervisor is one monitor thread beside the gateway's event loop.

* **Port discovery is a file.**  Every worker binds an ephemeral port
  (``--port 0``), so N workers on one host never collide, and writes it
  to ``--port-file`` *atomically* (temp file + ``os.replace``) once
  bound: the file is absent or holds a whole, valid port.
* **Crash restarts are automatic and capped.**  The monitor thread
  respawns a worker that exited after a backoff that doubles per
  consecutive crash up to ``max_backoff`` and resets once it stays up
  ``stable_after`` seconds.
* **Names are stable, addresses are not.**  Workers are ``w0..wN-1``
  forever; each restart binds a fresh port, which the gateway treats
  as "down, then a new worker" — through delay-log catch-up.

Health is the gateway's job (:class:`~repro.fleet.gateway.FleetGateway`
polls ``/healthz``); the supervisor knows HTTP only as a port file.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Sequence

__all__ = ["WorkerSupervisor"]


class _Worker:
    """One supervised slot: a stable name, a changing process."""

    __slots__ = (
        "index",
        "name",
        "port_file",
        "log_path",
        "process",
        "log_handle",
        "spawned_at",
        "respawn_at",
        "backoff",
        "restarts",
        "last_exit_code",
        "port",
    )

    def __init__(self, index: int, runtime_dir: Path) -> None:
        self.index = index
        self.name = f"w{index}"
        self.port_file = runtime_dir / f"{self.name}.port"
        self.log_path = runtime_dir / f"{self.name}.log"
        self.process: subprocess.Popen | None = None
        self.log_handle = None
        self.spawned_at = 0.0
        #: Monotonic deadline for the pending respawn (None: running).
        self.respawn_at: float | None = None
        self.backoff = 0.0
        self.restarts = 0
        self.last_exit_code: int | None = None
        #: Bound port of the *current* incarnation (None until its
        #: port file appears).
        self.port: int | None = None


class WorkerSupervisor:
    """Spawn and babysit N ``serve`` worker processes (module doc)."""

    def __init__(
        self,
        stores: Sequence[str | Path],
        num_workers: int = 2,
        *,
        host: str = "127.0.0.1",
        runtime_dir: str | Path | None = None,
        search_workers: int = 4,
        max_inflight: int = 64,
        drain_grace: float = 0.2,
        restart_backoff: float = 0.25,
        backoff_multiplier: float = 2.0,
        max_backoff: float = 5.0,
        stable_after: float = 10.0,
        poll_interval: float = 0.1,
        spawn_timeout: float = 120.0,
        stop_timeout: float = 15.0,
        python: str | None = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if not stores:
            raise ValueError("at least one store directory is required")
        self.stores = [str(s) for s in stores]
        self.host = host
        self.search_workers = search_workers
        self.max_inflight = max_inflight
        self.drain_grace = drain_grace
        self.restart_backoff = restart_backoff
        self.backoff_multiplier = backoff_multiplier
        self.max_backoff = max_backoff
        self.stable_after = stable_after
        self.poll_interval = poll_interval
        self.spawn_timeout = spawn_timeout
        self.stop_timeout = stop_timeout
        self.python = python or sys.executable
        if runtime_dir is None:
            self._runtime_dir = Path(
                tempfile.mkdtemp(prefix="repro-fleet-")
            )
            self._owns_runtime_dir = True
        else:
            self._runtime_dir = Path(runtime_dir)
            self._runtime_dir.mkdir(parents=True, exist_ok=True)
            self._owns_runtime_dir = False
        self._workers = [  # guarded-by: _lock
            _Worker(i, self._runtime_dir) for i in range(num_workers)
        ]
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._monitor: threading.Thread | None = None
        self._started = False

    # -- lifecycle ------------------------------------------------------

    @property
    def runtime_dir(self) -> Path:
        """Where port files and worker logs live."""
        return self._runtime_dir

    def start(self) -> None:
        """Spawn every worker and wait until each has bound its port.

        Fails fast — with the dying worker's log tail — if any worker
        exits before binding (bad store, bad flags): a fleet must not
        come up partially."""
        if self._started:
            raise RuntimeError("supervisor already started")
        self._started = True
        with self._lock:
            for worker in self._workers:
                self._spawn(worker)
        self._await_ports()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="fleet-supervisor", daemon=True
        )
        self._monitor.start()

    def stop(self) -> None:
        """SIGTERM every worker (graceful drain), escalating to
        SIGKILL after ``stop_timeout``; idempotent."""
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=self.stop_timeout)
            self._monitor = None
        with self._lock:
            procs = [w.process for w in self._workers if w.process]
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
        deadline = time.monotonic() + self.stop_timeout
        for proc in procs:
            remaining = deadline - time.monotonic()
            try:
                proc.wait(timeout=max(remaining, 0.1))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        with self._lock:
            for worker in self._workers:
                worker.process = None
                if worker.log_handle is not None:
                    worker.log_handle.close()
                    worker.log_handle = None

    def __enter__(self) -> "WorkerSupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- gateway-facing surface ----------------------------------------

    def endpoints(self) -> dict[str, str]:
        """``name -> http://host:port`` for every worker that is alive
        *and* has bound its port.  This is the gateway's endpoint
        provider: a crashed worker drops out here (its port file is
        removed before respawn), a restarted one reappears under the
        same name at a new port."""
        live: dict[str, str] = {}
        with self._lock:
            for worker in self._workers:
                if worker.process is None or worker.process.poll() is not None:
                    continue
                if worker.port is None:
                    worker.port = self._read_port(worker)
                if worker.port is not None:
                    live[worker.name] = f"http://{self.host}:{worker.port}"
        return live

    def worker_pids(self) -> dict[str, int]:
        """``name -> pid`` of live workers (tests kill through this)."""
        with self._lock:
            return {
                w.name: w.process.pid
                for w in self._workers
                if w.process is not None and w.process.poll() is None
            }

    def kill(self, name: str, sig: int = signal.SIGKILL) -> None:
        """Send ``sig`` to one worker (failure injection in tests; the
        monitor then restarts it like any crash)."""
        with self._lock:
            for worker in self._workers:
                if worker.name == name and worker.process is not None:
                    worker.process.send_signal(sig)
                    return
        raise KeyError(f"no live worker named {name!r}")

    @property
    def restarts_total(self) -> int:
        with self._lock:
            return sum(w.restarts for w in self._workers)

    def log_tail(self, name: str, lines: int = 20) -> str:
        """The last ``lines`` of one worker's captured output."""
        with self._lock:
            worker = next(
                (w for w in self._workers if w.name == name), None
            )
        if worker is None:
            raise KeyError(f"no worker named {name!r}")
        # The file read happens outside the lock: log_path is immutable
        # per slot, and tailing a log must not stall the monitor loop.
        try:
            text = worker.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    # -- internals ------------------------------------------------------

    def _command(self, worker: _Worker) -> list[str]:
        cmd = [self.python, "-m", "repro.cli", "serve"]
        for store in self.stores:
            cmd += ["--store", store]
        cmd += [
            "--host", self.host,
            "--port", "0",
            "--port-file", str(worker.port_file),
            "--workers", str(self.search_workers),
            "--max-inflight", str(self.max_inflight),
            "--drain-grace-ms", str(self.drain_grace * 1000.0),
        ]
        return cmd

    def _spawn(self, worker: _Worker) -> None:
        """(Re)spawn one worker; caller holds the lock."""
        # A stale port file from the previous incarnation must never
        # be served to the gateway as the new address.
        try:
            worker.port_file.unlink()
        except FileNotFoundError:
            pass
        worker.port = None
        env = dict(os.environ)
        # The workers must import the same repro package the
        # supervisor runs, regardless of how it was put on the path.
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                f"{package_root}{os.pathsep}{existing}"
                if existing
                else package_root
            )
        if worker.log_handle is not None:
            worker.log_handle.close()
        worker.log_handle = open(worker.log_path, "ab")
        worker.process = subprocess.Popen(
            self._command(worker),
            stdout=worker.log_handle,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=str(self._runtime_dir),
        )
        worker.spawned_at = time.monotonic()
        worker.respawn_at = None
        if worker.backoff == 0.0:
            worker.backoff = self.restart_backoff

    def _read_port(self, worker: _Worker) -> int | None:
        try:
            text = worker.port_file.read_text()
        except OSError:
            return None
        try:
            return int(text.strip())
        except ValueError:
            return None  # impossible with atomic writes; stay paranoid

    def _await_ports(self) -> None:
        deadline = time.monotonic() + self.spawn_timeout
        with self._lock:
            pending = list(self._workers)
        while pending:
            still = []
            for worker in pending:
                if worker.process is not None and worker.process.poll() is not None:
                    code = worker.process.returncode
                    tail = self.log_tail(worker.name)
                    self.stop()
                    raise RuntimeError(
                        f"worker {worker.name} exited with code {code} "
                        f"before binding its port; last output:\n{tail}"
                    )
                if self._read_port(worker) is None:
                    still.append(worker)
            pending = still
            if pending:
                if time.monotonic() > deadline:
                    names = ", ".join(w.name for w in pending)
                    self.stop()
                    raise RuntimeError(
                        f"worker(s) {names} did not bind a port within "
                        f"{self.spawn_timeout:g}s"
                    )
                time.sleep(0.02)

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(self.poll_interval):
            now = time.monotonic()
            with self._lock:
                for worker in self._workers:
                    process = worker.process
                    if process is not None and process.poll() is not None:
                        # Crashed (or was killed). Schedule a respawn
                        # after the current backoff; a worker that had
                        # been stable restarts almost immediately.
                        worker.last_exit_code = process.returncode
                        if now - worker.spawned_at >= self.stable_after:
                            worker.backoff = self.restart_backoff
                        worker.respawn_at = now + worker.backoff
                        worker.backoff = min(
                            worker.backoff * self.backoff_multiplier,
                            self.max_backoff,
                        )
                        worker.process = None
                        worker.port = None
                        try:
                            worker.port_file.unlink()
                        except FileNotFoundError:
                            pass
                    elif (
                        worker.process is None
                        and worker.respawn_at is not None
                        and now >= worker.respawn_at
                    ):
                        worker.restarts += 1
                        self._spawn(worker)
