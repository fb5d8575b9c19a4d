"""The tests' reference service: the served facade over the object-graph
searches, the oracle side of the parity suites."""

from __future__ import annotations

from repro.core.parallel import timed_subset_search
from repro.query.table_query import StationToStationEngine
from repro.service import TransitService

from tests.oracles.mc_time_query import mc_time_query


class ReferenceService(TransitService):
    """A :class:`TransitService` that searches with the reference
    kernel — the object-graph SPCS (§3) with its §4 settle hook, and
    the object-graph fixed-departure search — the oracle side of the
    parity suites.

    Only the three search points are its own: the journey engine, one
    subset of a profile (:meth:`_search_subset`) and the fixed-departure
    search (:meth:`_mc_search`).  Everything built on them — the
    partition and merge of a profile, legs, Pareto fronts, ``via``
    chaining, the result cache, search workers — is the facade's own
    code on both sides of every comparison, and :meth:`beside` shares a
    served service's very :class:`~repro.service.PreparedDataset`."""

    def __init__(self, timetable, config=None, *, prepared=None) -> None:
        super().__init__(timetable, config, prepared=prepared)
        prepared = self.prepared
        self._engine = StationToStationEngine(
            prepared.graph,
            prepared.table,
            num_threads=1,
            kernel="python",
            station_graph=prepared.station_graph,
        )

    @classmethod
    def beside(cls, service: TransitService) -> "ReferenceService":
        """The oracle over ``service``'s own prepared artifacts."""
        return cls(service.timetable, service.config, prepared=service.prepared)

    def _search_subset(self, source, subset):
        return timed_subset_search(self.prepared.graph, None, source, subset)

    def _mc_search(self, source, departure, max_transfers):
        return mc_time_query(
            self.prepared.graph, source, departure, max_transfers=max_transfers
        )


#: The service that searches with each of
#: :data:`repro.core.parallel.KERNELS`, for suites parametrized over them.
SERVICE_OF_KERNEL = {"python": ReferenceService, "flat": TransitService}
