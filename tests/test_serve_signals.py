"""``serve`` and ``serve-fleet`` catch SIGINT/SIGTERM before they
publish anything: a supervisor that signals a server the moment its
port file appears — or a fleet while it is still spawning — gets a
drain and exit 0, never the default action's death, and a fleet leaves
no ``serve`` behind."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service import ServiceConfig, TransitService
from tests.helpers import children_of, process_state

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def store(tmp_path_factory, oahu_tiny):
    path = tmp_path_factory.mktemp("signals") / "oahu"
    TransitService(oahu_tiny, ServiceConfig()).save(path)
    return path


def _spawn(*args: str) -> subprocess.Popen:
    """``repro.cli`` with ``args``, in a session of its own."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )


def _when_it_appears(path: Path, proc: subprocess.Popen) -> None:
    """Return the moment ``path`` exists (polled every millisecond)."""
    deadline = time.monotonic() + 60
    while not path.exists():
        assert proc.poll() is None, proc.stdout.read()
        assert time.monotonic() < deadline, f"{path.name} never appeared"
        time.sleep(0.001)


def _running(pid: int) -> bool:
    return process_state(pid) not in (None, "Z")


SIGNALS = pytest.mark.parametrize(
    "sig", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"]
)


@SIGNALS
def test_serve_signalled_as_its_port_file_appears_drains(
    store, tmp_path, sig
):
    port_file = tmp_path / "serve.port"
    proc = _spawn(
        "serve", "--store", str(store), "--port", "0",
        "--port-file", str(port_file), "--workers", "1",
    )
    try:
        _when_it_appears(port_file, proc)
        proc.send_signal(sig)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 0, out
    assert out.splitlines()[-1] == "drained; served 0 request(s)", out


@SIGNALS
def test_serve_fleet_signalled_while_spawning_stops_its_workers(
    store, tmp_path, sig
):
    """The signal comes when the first worker has published its port:
    the supervisor may still be waiting for the second, and no gateway
    exists yet."""
    runtime = tmp_path / "rt"
    proc = _spawn(
        "serve-fleet", "--store", str(store), "--port", "0",
        "--workers", "2", "--search-workers", "1",
        "--runtime-dir", str(runtime),
    )
    workers: list[int] = []
    try:
        _when_it_appears(runtime / "w0.port", proc)
        workers = children_of(proc.pid)
        proc.send_signal(sig)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, out
        assert out.splitlines()[-1] == "fleet stopped", out
        assert len(workers) == 2
        assert [pid for pid in workers if _running(pid)] == []
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
