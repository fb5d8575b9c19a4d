"""Lazy priority queue on top of :mod:`heapq`.

``decrease-key`` is emulated by pushing a duplicate entry and skipping
stale ones at ``pop`` time.  Equal keys leave in insertion order (the
tie-break counter), which costs SPCS its self-pruning: on the heap
ablation's workload (``benchmarks/bench_ablation_heap.py``) this queue
settles about twice the connections of the addressable heaps and was
slower than the binary heap in every run, C-implemented ``heapq``
notwithstanding.
"""

from __future__ import annotations

import heapq
from typing import Hashable


class LazyHeap:
    """heapq-backed queue with lazy deletion; addressable-heap protocol."""

    __slots__ = ("_heap", "_best", "_counter", "pushes", "pops", "decrease_keys")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Hashable]] = []
        self._best: dict[Hashable, int] = {}
        self._counter = 0  # tie-break so items never compare
        self.pushes = 0
        self.pops = 0
        self.decrease_keys = 0

    def __len__(self) -> int:
        return len(self._best)

    def __bool__(self) -> bool:
        return bool(self._best)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._best

    def key_of(self, item: Hashable) -> int:
        return self._best[item]

    def push(self, item: Hashable, key: int) -> bool:
        current = self._best.get(item)
        if current is not None and key >= current:
            return False
        if current is None:
            self.pushes += 1
        else:
            self.decrease_keys += 1
        self._best[item] = key
        self._counter += 1
        heapq.heappush(self._heap, (key, self._counter, item))
        return True

    def pop(self) -> tuple[Hashable, int]:
        while self._heap:
            key, _tie, item = heapq.heappop(self._heap)
            if self._best.get(item) == key:
                del self._best[item]
                self.pops += 1
                return item, key
        raise IndexError("pop from empty heap")

    def peek(self) -> tuple[Hashable, int]:
        while self._heap:
            key, _tie, item = self._heap[0]
            if self._best.get(item) == key:
                return item, key
            heapq.heappop(self._heap)
        raise IndexError("peek at empty heap")

    def discard(self, item: Hashable) -> bool:
        # Stale heap entries are skipped lazily at pop time.
        return self._best.pop(item, None) is not None
