"""Coalescing the per-dataset delay log for worker catch-up replay.

The gateway records every committed delay batch (``gateway.py``) so a
worker (re)joining the fleet can be brought to the current generation
by replaying what it missed.  Naively that is one ``apply`` POST per
missed batch — O(committed batches) sequential replans per restart,
which after a long stream dwarfs the worker's own warm start.

:func:`coalesce_delay_log` collapses a missed-log suffix into a
*bounded* replay plan.  The key fact is the delay composition rule
(``repro.timetable.delays`` module docstring): with ``slack_per_leg ==
0`` lateness is purely additive — applying batch *A* then batch *B*
shifts every departure by ``late_A(leg) + late_B(leg)``, exactly what
the single merged batch (per ``(train, from_stop)`` minutes summed)
produces, bit for bit including periodic wrap-around.  Slack breaks
that: the per-leg recovery ``late = max(0, late - slack)`` clamps the
*carried* lateness between batches, so a slack-bearing batch is a
sequencing barrier and must replay on its own.

The plan is therefore: maximal consecutive runs of slack-free entries
merge into one ``apply`` body (size bounded by the timetable — at most
one item per ``(train, from_stop)`` pair — regardless of stream
length); slack-bearing entries pass through unchanged.  Each planned
body carries ``generations``, the number of logged batches it stands
for, so the worker's generation counter advances in lockstep with the
gateway's committed-batch count (``repro.server.protocol`` rejects it
anywhere but ``apply``).

Pinned by ``tests/fleet/test_catchup_coalescing.py``: plan shape,
bitwise parity with sequential replay, and the long-stream rejoin
end-to-end (a worker rejoining after ~25 committed batches).
"""

from __future__ import annotations

from orjson import loads


def coalesce_delay_log(entries: list[bytes]) -> list[tuple[dict, int]]:
    """Collapse a delay-log suffix into a bounded replay plan.

    ``entries`` are the gateway's logged replay bodies (JSON bytes,
    oldest first; no ``mode`` key).  Returns ``(body, represented)``
    pairs to POST in order: ``body`` is an ``apply``-shaped wire object
    (without ``mode``) and ``represented`` how many log entries it
    stands for.  ``sum(represented) == len(entries)`` always.
    """
    plan: list[tuple[dict, int]] = []
    run: list[dict] = []

    def flush() -> None:
        if not run:
            return
        if len(run) == 1:
            plan.append((run[0], 1))
        else:
            merged: dict[tuple[int, int], int] = {}
            for body in run:
                for item in body["delays"]:
                    key = (item["train"], item.get("from_stop", 0))
                    merged[key] = merged.get(key, 0) + item["minutes"]
            items = []
            for (train, from_stop), minutes in sorted(merged.items()):
                item: dict = {"train": train, "minutes": minutes}
                if from_stop:
                    item["from_stop"] = from_stop
                items.append(item)
            plan.append(({"delays": items, "generations": len(run)}, len(run)))
        run.clear()

    for raw in entries:
        body = loads(raw)
        if body.get("slack_per_leg", 0):
            # Slack clamps carried lateness between batches: a
            # sequencing barrier — replay this entry on its own.
            flush()
            plan.append((body, 1))
        else:
            run.append(body)
    flush()
    return plan
