"""The reference searches' priority queues.

The paper's implementation runs SPCS on a binary heap;
:class:`AddressableHeap` is that heap, and the object-graph SPCS
(:mod:`repro.core.spcs`) and the whole-day multi-criteria reference
run on it.  :class:`LazyHeap` serves the label-correcting baseline and
the tests' layered time-query oracle.  The production loops run on
bucket queues of their own and build neither.

Both queues share one protocol over hashable item ids:

* ``push(item, key)`` — insert or decrease-key; a key increase is
  ignored.  Returns whether the queue changed;
* ``pop()`` — remove and return ``(item, key)`` with minimum key;
* ``__len__`` / ``__bool__`` — number of *live* items.
"""

from __future__ import annotations

import heapq
from typing import Hashable

__all__ = ["AddressableHeap", "LazyHeap"]


class AddressableHeap:
    """Binary min-heap keyed by integers with an item→position index.

    The position map gives O(log n) ``decrease-key`` via re-``push``.
    Matches the queue the paper's C++ implementation uses; its tie-break
    (the sift order below) decides the reference searches' settled
    counts, which Table 1 reports.
    """

    __slots__ = ("_keys", "_items", "_pos")

    def __init__(self) -> None:
        self._keys: list[int] = []
        self._items: list[Hashable] = []
        self._pos: dict[Hashable, int] = {}

    def __len__(self) -> int:
        return len(self._keys)

    def __bool__(self) -> bool:
        return bool(self._keys)

    def push(self, item: Hashable, key: int) -> bool:
        """Insert ``item`` or decrease its key.

        Returns True if the queue changed (new item, or key decreased);
        an attempted key *increase* is ignored and returns False, which
        is the semantics Dijkstra-style relaxation wants.
        """
        pos = self._pos.get(item)
        if pos is None:
            self._keys.append(key)
            self._items.append(item)
            self._pos[item] = len(self._keys) - 1
            self._sift_up(len(self._keys) - 1)
            return True
        if key < self._keys[pos]:
            self._keys[pos] = key
            self._sift_up(pos)
            return True
        return False

    def pop(self) -> tuple[Hashable, int]:
        """Remove and return the minimum ``(item, key)``."""
        if not self._keys:
            raise IndexError("pop from empty heap")
        item, key = self._items[0], self._keys[0]
        del self._pos[item]
        last_key, last_item = self._keys.pop(), self._items.pop()
        if self._keys:
            self._keys[0], self._items[0] = last_key, last_item
            self._pos[last_item] = 0
            self._sift_down(0)
        return item, key

    def _sift_up(self, pos: int) -> None:
        keys, items, index = self._keys, self._items, self._pos
        key, item = keys[pos], items[pos]
        while pos > 0:
            parent = (pos - 1) >> 1
            if keys[parent] <= key:
                break
            keys[pos], items[pos] = keys[parent], items[parent]
            index[items[pos]] = pos
            pos = parent
        keys[pos], items[pos] = key, item
        index[item] = pos

    def _sift_down(self, pos: int) -> None:
        keys, items, index = self._keys, self._items, self._pos
        n = len(keys)
        key, item = keys[pos], items[pos]
        while True:
            child = 2 * pos + 1
            if child >= n:
                break
            right = child + 1
            if right < n and keys[right] < keys[child]:
                child = right
            if keys[child] >= key:
                break
            keys[pos], items[pos] = keys[child], items[child]
            index[items[pos]] = pos
            pos = child
        keys[pos], items[pos] = key, item
        index[item] = pos


class LazyHeap:
    """:mod:`heapq`-backed queue with lazy deletion.

    ``decrease-key`` pushes a duplicate entry; stale ones are skipped at
    ``pop`` time.  Equal keys leave in insertion order (the tie-break
    counter).  That order costs SPCS its self-pruning, which is why
    SPCS does not run on it: on washington/small it settled 98 318
    connections per search against the binary heap's 46 353, and was
    slower in every run, C-implemented ``heapq`` notwithstanding.
    """

    __slots__ = ("_heap", "_best", "_counter")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Hashable]] = []
        self._best: dict[Hashable, int] = {}
        self._counter = 0  # tie-break so items never compare

    def __len__(self) -> int:
        return len(self._best)

    def __bool__(self) -> bool:
        return bool(self._best)

    def push(self, item: Hashable, key: int) -> bool:
        """Insert ``item`` or decrease its key; see :class:`AddressableHeap`."""
        current = self._best.get(item)
        if current is not None and key >= current:
            return False
        self._best[item] = key
        self._counter += 1
        heapq.heappush(self._heap, (key, self._counter, item))
        return True

    def pop(self) -> tuple[Hashable, int]:
        """Remove and return the minimum ``(item, key)``."""
        while self._heap:
            key, _tie, item = heapq.heappop(self._heap)
            if self._best.get(item) == key:
                del self._best[item]
                return item, key
        raise IndexError("pop from empty heap")
