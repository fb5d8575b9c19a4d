"""The machine-speed control: what a shared box was doing meanwhile.

On a shared 2-core VM the same code runs up to 1.7x slower for minutes
at a time (a neighbour on the host), which no median inside a 10 s run
can remove.  The slowdown is a common factor, though: a fixed unit of
pure-Python work timed *during the same window* slows by the same
factor to within ~2 % (``README.md``, "Why times are normalised").  So
a run keeps this module running as child processes, one per core — one
~2 ms unit of work every ``PERIOD_S``, about 5 % of a core — and every
time the benchmark reports is restated *at reference machine speed*: a
window's **slowdown** is its mean unit time ÷ ``REFERENCE_UNIT_S``, and
every time measured in the window is divided by it (a rate multiplied).
The unit is CPU time, so waiting for a core does not count; it must
never change, or every number measured before the change is void.
"""

from __future__ import annotations

import heapq
import os
import subprocess
import sys
import time
from pathlib import Path

#: CPU seconds one unit takes on the reference machine (this repo's
#: 2-core CI box when its neighbours are quiet).
REFERENCE_UNIT_S = 0.0016
PERIOD_S = 0.04
_UNIT_STEPS = 2500


def unit() -> float:
    """One fixed unit of interpreter-bound work (heap, dict, integer
    arithmetic — the server's instruction mix); returns its CPU time."""
    heap: list = []
    seen: dict = {}
    x = 12345
    push, pop = heapq.heappush, heapq.heappop
    t0 = time.process_time()
    for i in range(_UNIT_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        push(heap, (x, i))
        seen[i & 1023] = x
        if i & 1:
            pop(heap)
    return time.process_time() - t0


class Control:
    """The sampler child processes — one pinned to each core, because
    the slowdown differs between the cores by up to a fifth at any one
    moment — and their logs.  ``perf_counter`` reads the system-wide
    monotonic clock, so the children's timestamps and the driver's
    windows share one time base."""

    def __init__(self, log_prefix: Path) -> None:
        self._log_prefix = log_prefix
        self._children: list[tuple[subprocess.Popen, Path]] = []

    def start(self) -> None:
        for core in sorted(os.sched_getaffinity(0)):
            log_path = self._log_prefix.with_suffix(f".core{core}.log")
            with open(log_path, "wb") as log:
                process = subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve()), str(core)],
                    stdout=log,
                )
            self._children.append((process, log_path))

    def stop(self) -> None:
        children, self._children = self._children, []
        for process, _ in children:
            process.terminate()
        for process, _ in children:
            process.wait()

    def slowdown(self, start: float, end: float) -> float:
        """Mean unit time over the window, all cores alike, ÷ the
        reference unit time.  The window opens two periods early, so
        that even one shorter than a period holds a sample."""
        samples = []
        for _, log_path in self._children:
            for line in log_path.read_text().splitlines():
                stamp, _, cpu = line.partition(" ")
                if cpu and start - 2 * PERIOD_S <= float(stamp) <= end:
                    samples.append(float(cpu))
        if not samples:
            raise RuntimeError(
                f"no control sample in a {end - start:.3f} s window"
            )
        return sum(samples) / len(samples) / REFERENCE_UNIT_S


def _sample_forever(core: int) -> None:
    os.sched_setaffinity(0, {core})
    while True:
        stamp = time.perf_counter()
        sys.stdout.write(f"{stamp} {unit()}\n")
        sys.stdout.flush()
        time.sleep(PERIOD_S)


if __name__ == "__main__":
    _sample_forever(int(sys.argv[1]))
