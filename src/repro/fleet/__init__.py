"""The serve fleet: N ``serve`` processes behind one gateway.

One :class:`~repro.server.app.TransitServer` already runs its searches
in search worker processes forked from each dataset generation, so one
``serve`` uses the cores of its box; in the committed record
(``BENCH_fleet_scaling.json``) a fleet on the same box did not beat
it.  The fleet is for what one process tree cannot give: a ``serve``
that dies is retried on a peer, a restarted one is caught up before
it is routed to, and a delay batch reaches every worker while no
client reads an older generation after a newer one
(``docs/FLEET.md``):

* :mod:`repro.fleet.supervisor` — spawn N ``repro-transit serve``
  worker processes over the same artifact stores (the store's
  ``.npy`` buffers are memory-mapped read-only, so the page cache can
  share them), discover their ephemeral ports through
  atomically-written port files, and auto-restart crashes with capped
  backoff;
* :mod:`repro.fleet.gateway` — an asyncio front process speaking the
  same wire protocol, load-balancing per dataset over the healthy
  workers at the dataset's newest generation, health-checking
  ``/healthz``, posting each delay batch to every worker, ejecting
  failed workers and readmitting restarted ones after delay-log
  catch-up, failing queries over to a peer when a worker dies
  mid-request, and aggregating fleet-wide ``/metrics``;
* :mod:`repro.fleet.catchup` — the delay log coalesced into a bounded
  replay for a rejoining worker;
* :mod:`repro.fleet.metrics` — the gateway's routing counters.

Entry point: ``repro-transit serve-fleet --store DIR --workers N``.
Clients connect to the gateway exactly as to a single server —
``repro.client.connect("http://gateway:port")`` — with bitwise
identical answers (the gateway forwards worker responses verbatim).
See ``docs/FLEET.md`` for topology, failure modes, and generation
routing.
"""

from repro.fleet.gateway import FleetGateway, WorkerState
from repro.fleet.metrics import GatewayMetrics
from repro.fleet.supervisor import WorkerSupervisor

__all__ = [
    "FleetGateway",
    "GatewayMetrics",
    "WorkerState",
    "WorkerSupervisor",
]
