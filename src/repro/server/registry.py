"""Named, hot-swappable datasets behind the query server.

A :class:`DatasetRegistry` maps dataset names to
:class:`~repro.service.TransitService` instances.  Services are
immutable, so the registry's one mutation — :meth:`apply_delays`, the
delay hot swap — is a *pointer* swap: a replanned service is built off
the event loop (``TransitService.apply_delays`` re-derives only the
travel-time-dependent artifacts), then the entry's ``service``
reference is replaced in one assignment.

The drain guarantee follows from immutability: every in-flight request
pinned ``entry.service`` at admission time and keeps that (still fully
functional) old service alive until it answers, while requests
admitted after the swap see the new one — zero failed in-flight
requests, no locks on the query path
(``tests/server/test_server_e2e.py::TestHotSwap``).  Swaps against one
dataset are serialized by a per-entry :class:`asyncio.Lock`, so
concurrent delay posts compose (each builds on its predecessor's
timetable) instead of racing.

Registries warm-start from :mod:`repro.store` directories
(:meth:`DatasetRegistry.from_stores` — the ``repro serve`` path) or
wrap in-memory services (:meth:`DatasetRegistry.from_services` —
tests, examples, embedding).
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path
from typing import Awaitable, Callable, Iterable, Mapping, Sequence

from repro.service.facade import TransitService
from repro.service.shapes import DATASET
from repro.timetable.delays import Delay


class RegistryError(KeyError):
    """An unknown dataset name (the server answers 404)."""

    def __init__(self, name: str, known: Sequence[str]) -> None:
        super().__init__(name)
        self.name = name
        self.known = list(known)

    def __str__(self) -> str:
        return (
            f"unknown dataset {self.name!r} "
            f"(serving: {', '.join(self.known) or 'none'})"
        )


class DatasetEntry:
    """One named dataset: the current service plus swap accounting.

    ``service`` is replaced atomically by delay swaps; readers must
    take one local reference per request and use only that (the
    generation they read stays internally consistent).  ``generation``
    counts the delay batches applied, and changes together with
    ``service``."""

    __slots__ = (
        "name",
        "service",
        "generation",
        "source",
        "last_swap_seconds",
        "_swap_lock",
    )

    def __init__(
        self, name: str, service: TransitService, *, source: str = "memory"
    ) -> None:
        self.name = name
        self.service = service
        self.generation = 0
        self.source = source
        self.last_swap_seconds = 0.0
        self._swap_lock = asyncio.Lock()

    def describe(self) -> dict:
        """The ``/v1/datasets`` entry (:data:`~repro.service.shapes.
        DATASET`): the serving side's three fields, then
        :meth:`TransitService.describe`."""
        return DATASET.fill(
            {
                "name": self.name,
                "source": self.source,
                "generation": self.generation,
                **self.service.describe(),
            }
        )


class DatasetRegistry:
    """Name → :class:`DatasetEntry` with atomic delay hot swaps."""

    def __init__(self) -> None:
        self._entries: dict[str, DatasetEntry] = {}

    # -- construction ---------------------------------------------------

    def add(
        self, name: str, service: TransitService, *, source: str = "memory"
    ) -> DatasetEntry:
        if name in self._entries:
            raise ValueError(f"dataset {name!r} is already registered")
        if not name or "/" in name:
            raise ValueError(f"invalid dataset name {name!r}")
        entry = DatasetEntry(name, service, source=source)
        self._entries[name] = entry
        return entry

    @classmethod
    def from_stores(
        cls, stores: Iterable[str | Path]
    ) -> "DatasetRegistry":
        """Warm-load one dataset per artifact store directory.

        Dataset names are the stores' directory basenames (two stores
        sharing a basename are rejected — rename one directory).
        :class:`repro.store.StoreError` propagates on a missing or
        corrupt store: a server must not come up half-loaded.
        """
        registry = cls()
        for store in stores:
            path = Path(store)
            name = path.name or path.resolve().name
            if name in registry._entries:
                raise ValueError(
                    f"two stores share the dataset name {name!r}; "
                    f"store directories must have unique basenames"
                )
            registry.add(
                name, TransitService.load(path), source=str(path)
            )
        return registry

    @classmethod
    def from_services(
        cls, services: Mapping[str, TransitService]
    ) -> "DatasetRegistry":
        """Wrap already-built in-memory services (tests, embedding)."""
        registry = cls()
        for name, service in services.items():
            registry.add(name, service)
        return registry

    # -- access ---------------------------------------------------------

    def get(self, name: str) -> DatasetEntry:
        entry = self._entries.get(name)
        if entry is None:
            raise RegistryError(name, self.names())
        return entry

    def names(self) -> list[str]:
        return sorted(self._entries)

    def entries(self) -> list[DatasetEntry]:
        return [self._entries[name] for name in self.names()]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    # -- the hot swap ---------------------------------------------------

    async def apply_delays(
        self,
        name: str,
        delays: Sequence[Delay],
        *,
        slack_per_leg: int = 0,
        advance: int = 1,
        run: Callable[[Callable[[], TransitService]], Awaitable[TransitService]]
        | None = None,
    ) -> DatasetEntry:
        """Replan ``name`` under ``delays`` and swap the new service in.

        ``run`` executes the (CPU-heavy) replan; the server passes
        ``asyncio.to_thread`` so the event loop never blocks, while
        ``None`` runs inline (synchronous callers, tests).  The swap itself is one reference
        assignment — in-flight queries keep the service they pinned at
        admission and drain against it.  ``ValueError`` from
        ``apply_delays`` (unknown train, ``from_stop`` past the run)
        propagates for the caller to map to a client error.

        ``advance`` is the number of logical batches this request
        represents: 1 normally, more for a coalesced fleet catch-up
        post, so the entry's generation stays in lockstep with the
        gateway's committed-batch count (``docs/FLEET.md``).
        """
        entry = self.get(name)
        async with entry._swap_lock:
            old = entry.service
            build = lambda: old.apply_delays(  # noqa: E731
                delays, slack_per_leg=slack_per_leg
            )
            t0 = time.perf_counter()
            new = await run(build) if run is not None else build()
            entry.last_swap_seconds = time.perf_counter() - t0
            # The atomic swap: requests admitted from here on resolve
            # entry.service to the replanned instance.  The generation
            # moves with it, no await between: a reader that takes both
            # with no await between has its service's generation.
            entry.service = new
            entry.generation += advance
        return entry
