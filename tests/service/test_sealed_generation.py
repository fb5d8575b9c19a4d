"""Sealed means sealed: answering queries writes nothing a generation owns.

A service generation — timetable, routes, graph, pack and its two
kernel mirrors, distance table, engine — is built in one step (cold
prepare, store load, or delay swap; a load leaves the timetable,
the routes and the graph, a prepare or a swap the graph, to whoever
asks first, which no query does) and read-only from then on (``docs/KERNEL.md``,
"What a generation owns").  This module enforces it for the flat
kernel: every object of a generation gets its ``__setattr__`` trapped
and its ``dict`` / ``list`` attributes replaced by recording subclasses
(numpy buffers are made read-only), then the six shapes of ``SHAPES``
run single-threaded and from four threads.
The writes that may show up are the two of :data:`ALLOWED`; a delay
swap off a sealed generation may add only the lazy fills of
:data:`LOCKED`, each under the dataset's lock.
"""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest

from repro.graph.td_arrays import packed_arrays
from repro.service import ServiceConfig, TransitService
from repro.service.cache import LRUResultCache
from repro.synthetic.instances import make_instance
from repro.timetable.delays import Delay

from tests.helpers import ask_every_shape

#: Everything a query may write: a table pair's per-minute row (built
#: on first use — a row per pair of the whole table costs more memory
#: than the table) and the service's own locked result cache.
ALLOWED = {
    "DistanceTable._rows.__setitem__",
    "LRUResultCache",
}
#: What a delay swap may fill in on a loaded generation it swaps from —
#: the timetable (dropping its builder) and the routes — each noted
#: with ``@locked`` when written under ``PreparedDataset._hydrating``.
LOCKED = {
    "PreparedDataset._timetable@locked",
    "PreparedDataset._hydrate_timetable@locked",
    "PreparedDataset._routes@locked",
}

_MUTATORS = {
    list: (
        "__setitem__", "__delitem__", "__iadd__", "__imul__", "append",
        "extend", "insert", "pop", "remove", "sort", "reverse", "clear",
    ),
    dict: (
        "__setitem__", "__delitem__", "__ior__", "update", "setdefault",
        "pop", "popitem", "clear",
    ),
}


def _recording(kind, label, writes):
    """A subclass of ``kind`` whose mutators note ``label`` first."""

    def recorder(name):
        def method(self, *args, **kwargs):
            writes.append(f"{label}.{name}")
            return getattr(kind, name)(self, *args, **kwargs)

        return method

    return type(
        f"Recording{kind.__name__.title()}",
        (kind,),
        {name: recorder(name) for name in _MUTATORS[kind]},
    )


def _attributes(obj):
    return vars(obj) if hasattr(obj, "__dict__") else type(obj).__slots__


def seal(service, monkeypatch) -> list[str]:
    """Trap every write to ``service``'s generation; returns the list
    the traps append ``"Class.attribute"`` to (``list.append`` is
    atomic, so four threads may share it)."""
    prepared = service.prepared
    table = prepared.table
    # A generation's missing timetable or graph is sealed by its
    # absence: building either is a write to ``prepared``.
    generation = [
        prepared,
        *(getattr(prepared, name) for name in sorted(prepared.hydrated)),
        prepared.arrays,
        service._engine,
        service,
    ]
    if table is not None:
        generation.append(table)
    writes: list[str] = []

    # Item assignment: containers become recording copies, buffers
    # read-only (a write to one raises ValueError inside the query).
    for obj in generation:
        for name in _attributes(obj):
            value = getattr(obj, name)
            if type(value) in _MUTATORS:
                label = f"{type(obj).__name__}.{name}"
                guarded = _recording(type(value), label, writes)(value)
                object.__setattr__(obj, name, guarded)
            elif isinstance(value, np.ndarray):
                value.flags.writeable = False

    # Attribute assignment, on these instances only.
    sealed = {id(obj) for obj in (*generation, service._result_cache)}

    def trap(cls):
        def __setattr__(self, name, value):
            if id(self) in sealed:
                label = (
                    cls.__name__
                    if cls is LRUResultCache
                    else f"{cls.__name__}.{name}"
                )
                if self is prepared and prepared._hydrating._is_owned():
                    label += "@locked"
                writes.append(label)
            object.__setattr__(self, name, value)

        return __setattr__

    for cls in {type(obj) for obj in generation} | {LRUResultCache}:
        monkeypatch.setattr(cls, "__setattr__", trap(cls))
    return writes


def _cold(timetable, config, tmp_path):
    return TransitService(timetable, config)


def _loaded(timetable, config, tmp_path):
    TransitService(timetable, config).save(tmp_path / "store")
    return TransitService.load(tmp_path / "store")


def _swapped(timetable, config, tmp_path):
    return TransitService(timetable, config).apply_delays(
        [Delay(train=0, minutes=25)]
    )


def _generation(provenance, with_table, tmp_path):
    config = ServiceConfig(
        num_threads=2,
        use_distance_table=with_table,
        transfer_fraction=0.3,
    )
    # A timetable of this test's own: sealing replaces its lists.
    return provenance(make_instance("oahu", scale="tiny"), config, tmp_path)


@pytest.mark.parametrize(
    "provenance", (_cold, _loaded, _swapped), ids=lambda fn: fn.__name__[1:]
)
@pytest.mark.parametrize("with_table", (False, True), ids=["plain", "table"])
def test_queries_write_nothing_a_generation_owns(
    provenance, with_table, tmp_path, monkeypatch
):
    service = _generation(provenance, with_table, tmp_path)
    assert service.prepared.hydrated == (
        frozenset() if provenance is _loaded else {"timetable"}
    )

    num_stations = service.prepared.counts.stations
    rng = random.Random(22)
    one, *four = (rng.sample(range(num_stations), 3) for _ in range(5))
    writes = seal(service, monkeypatch)

    ask_every_shape(service, *one)
    assert set(writes) <= ALLOWED, sorted(set(writes) - ALLOWED)
    assert "LRUResultCache" in writes  # the traps are live

    errors: list[BaseException] = []
    barrier = threading.Barrier(len(four))

    def client(stations):
        try:
            barrier.wait(timeout=30)
            ask_every_shape(service, *stations)
        except BaseException as exc:  # re-raised on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(s,)) for s in four]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    assert set(writes) <= ALLOWED, sorted(set(writes) - ALLOWED)
    if with_table:
        assert "DistanceTable._rows.__setitem__" in writes
    assert packed_arrays(service.prepared.graph) is service.prepared.arrays


@pytest.mark.parametrize(
    "provenance", (_cold, _loaded, _swapped), ids=lambda fn: fn.__name__[1:]
)
def test_a_swap_fills_in_only_under_the_lock(provenance, tmp_path, monkeypatch):
    """A delay swap off a sealed generation writes nothing of it but
    what a loaded one lacks — its timetable and its routes — and those
    only under the dataset's lock; it never builds the graph."""
    service = _generation(provenance, True, tmp_path)
    hydrated = service.prepared.hydrated
    writes = seal(service, monkeypatch)
    swapped = service.apply_delays([Delay(train=3, minutes=10)])
    assert set(writes) == (LOCKED if provenance is _loaded else set())
    assert service.prepared.hydrated == hydrated | {"timetable"}
    assert swapped.prepared.routes is service.prepared.routes


def test_the_traps_see_a_lazy_fill(tmp_path, monkeypatch):
    """What the test above would report had a query reached the
    timetable's lazy index: a loaded generation never built it, so the
    first ``outgoing_connections`` is an attribute write, and a write
    through a generation's dict is an item write."""
    service = _generation(_loaded, False, tmp_path)
    service.prepared.graph  # built, so that it is sealed too
    writes = seal(service, monkeypatch)
    service.timetable.outgoing_connections(0)
    service.graph.conn_start_node[(0, 0)] = 0
    assert writes == [
        "Timetable._conn_by_dep_station",
        "TDGraph.conn_start_node.__setitem__",
    ]
    with pytest.raises(ValueError, match="read-only"):
        service.prepared.arrays.conn_dep[0] = 0
