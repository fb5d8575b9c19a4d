"""LRU cache over query answers (the serving-layer hot path).

Profile, journey and batch requests are small frozen dataclasses —
hashable by construction — so a repeated request can be answered from
memory without touching a kernel.  One :class:`LRUResultCache` belongs
to one :class:`~repro.service.facade.TransitService`; because a service
is immutable, every cached answer stays valid for the service's whole
lifetime.  Delay replanning returns a *new* service with an *empty*
cache (:meth:`TransitService.apply_delays`), which is exactly the
invalidation the dynamic scenario needs: answers computed before a
delay can never leak into the delayed service.

The facade answers a hit with a *shallow copy* of the stored entry
whose :class:`~repro.service.model.QueryStats` carry
``cache_hit=True`` — the heavy payloads (profiles, label matrices,
legs) are shared by reference and must be treated as read-only; the
stored entry itself is never mutated and keeps its original timings.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from threading import Lock
from typing import Hashable


@dataclass(frozen=True, slots=True)
class CacheStats:
    """Point-in-time accounting of one result cache."""

    hits: int
    misses: int
    size: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUResultCache:
    """Bounded least-recently-used result cache.

    ``maxsize=0`` disables caching entirely (every ``get`` misses,
    ``put`` is a no-op).  Thread-safe: a server reads and writes it on
    its event loop while the searches of a generation without search
    workers use it on other threads, and in-process callers may share
    one service between threads.
    """

    __slots__ = ("_maxsize", "_entries", "_lock", "_hits", "_misses")

    def __init__(self, maxsize: int) -> None:
        if maxsize < 0:
            raise ValueError(f"maxsize must be non-negative, got {maxsize}")
        self._maxsize = maxsize
        self._entries: OrderedDict[Hashable, object] = OrderedDict()  # guarded-by: _lock
        self._lock = Lock()
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock

    def get(self, key: Hashable):
        """The cached answer for ``key``, or ``None`` on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def peek(self, key: Hashable):
        """Like :meth:`get`, but a miss is not counted: for a caller
        that, on ``None``, hands the request to the path whose own
        :meth:`get` will count it."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
            return entry

    def put(self, key: Hashable, value) -> None:
        if self._maxsize == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        # Under the lock like every other reader: other threads mutate
        # _entries via put() eviction, and an OrderedDict mid-resize
        # must never be observed (CPython dict reads are not atomic
        # against concurrent structural mutation).
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                size=len(self._entries),
                maxsize=self._maxsize,
            )
