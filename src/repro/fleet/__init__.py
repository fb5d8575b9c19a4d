"""The serve fleet: N ``serve`` processes behind one gateway.

One ``serve`` already uses the cores of its box (its searches run in
search worker processes), and in the committed record
(``BENCH_fleet_scaling.json``) a fleet on the same box did not beat
it.  The fleet is for what one process tree cannot give: a ``serve``
that dies is retried on a peer, a restarted one is caught up before
it is routed to, and a delay batch reaches every worker while no
client reads an older generation after a newer one:

* :mod:`repro.fleet.supervisor` — spawns the worker processes over
  the same stores, finds their ports and restarts crashes;
* :mod:`repro.fleet.gateway` — the asyncio front process: same wire
  protocol, answers forwarded verbatim, health checks, failover,
  catch-up, generation-routed delay swaps, fleet ``/metrics``;
* :mod:`repro.fleet.catchup` — the delay log coalesced into a bounded
  replay for a rejoining worker;
* :mod:`repro.fleet.metrics` — the gateway's routing counters.

Entry point: ``repro-transit serve-fleet --store DIR --workers N``;
``docs/FLEET.md`` walks through it.
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
