"""Delay injection — the fully dynamic scenario (paper §5.1).

The paper notes that because SPCS needs *no preprocessing*, it "can
directly be used in a fully dynamic scenario as discussed in [20]"
(Müller-Hannemann, Schnee, Frede: on-trip timetable information under
delays).  This module provides that scenario: apply primary delays to
trains and obtain an updated timetable on which any query runs
unchanged.

Semantics:

* a **primary delay** hits one train at one of its stops: every
  departure/arrival from that stop onward shifts by the delay;
* optional **slack recovery**: each subsequent leg may catch up
  ``slack`` minutes (padding in real schedules), shrinking the delay
  downstream;
* delayed trains keep their route (same station sequence), so the graph
  topology is unchanged — only route-edge travel-time functions differ,
  which is why no preprocessing has to be repeated;
* a delayed train may overtake or be overtaken by its siblings: the
  resulting leg can violate FIFO, which the search stack handles (the
  edge evaluation takes the lower envelope; see
  ``tests/core/test_robustness.py``).

Composition rule (pinned by ``tests/timetable/test_delays.py``):

* **Within one batch**, the order of the ``delays`` list never
  matters: each leg sums the minutes of every delay anchored at it
  (addition commutes), and only then applies slack downstream.  Two
  delays on the *same train* — even at the same stop — are additive.
* **Across batches**, lateness resets per call: applying batch A then
  batch B to the result equals one combined batch **iff no batch
  carries slack** (``slack_per_leg == 0``), because slack's
  ``max(0, late - slack)`` clamp is non-linear in the accumulated
  lateness.  Slack-free batches therefore coalesce exactly —
  bitwise — which is what lets the fleet gateway collapse a replay
  log into one bounded catch-up post
  (:func:`repro.fleet.catchup.coalesce_delay_log`); a slack-bearing
  batch is a sequencing barrier and must be replayed in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.timetable.types import Timetable


@dataclass(frozen=True, slots=True)
class Delay:
    """A primary delay: ``train`` is late by ``minutes`` starting at its
    ``from_stop``-th departure (0 = the train's first departure)."""

    train: int
    minutes: int
    from_stop: int = 0

    def __post_init__(self) -> None:
        if self.minutes < 0:
            raise ValueError(f"delay must be non-negative, got {self.minutes}")
        if self.from_stop < 0:
            raise ValueError(f"from_stop must be non-negative, got {self.from_stop}")


def apply_delays(
    timetable: Timetable,
    delays: list[Delay] | tuple[Delay, ...],
    *,
    slack_per_leg: int = 0,
) -> Timetable:
    """Return a new timetable with the given primary delays applied.

    ``slack_per_leg`` minutes of the remaining delay are recovered on
    every leg after the delayed stop (never below zero).  Every delay
    is validated against its train's run: ``from_stop`` must name one
    of the train's actual departures (a delay at or past the last leg
    would silently change nothing).  The input timetable is not
    modified.  Connections keep their travel order;
    departures are re-normalized into ``Π``, wrap-aware (a heavily
    delayed night train simply wraps into the next period, as in
    reality).  A delayed train may depart
    twice at one time point of ``Π`` — slack recovery after a ride as
    long as the slack, without dwell, puts the next departure on the
    previous one's minute — but a
    delay that makes it depart *one station* twice at one time point
    raises ``ValueError`` naming the train, the station and the time
    point: the graph finds a connection's route node by its (train,
    station, departure), :attr:`~repro.graph.td_model.TDGraph.conn_start_node`.

    The cost follows the batch, not the timetable: the delayed trains'
    connections are found in the train column
    (:meth:`~repro.timetable.types.Timetable.connection_columns`) and
    only they are walked, in list order.  The result is its columns
    (:meth:`~repro.timetable.types.Timetable.with_connections`), and
    no row object is built: ``dep_time`` and ``arr_time`` are copies
    with the re-timed rows overwritten, the other three are the
    input's own, which delays never change; the trains are the
    input's, undecoded while they are.
    """
    if slack_per_leg < 0:
        raise ValueError(f"slack must be non-negative, got {slack_per_leg}")
    train, dep_station, arr_station, dep, arr = timetable.connection_columns()
    run_length = np.bincount(train, minlength=timetable.num_trains)
    for delay in delays:
        if not (0 <= delay.train < timetable.num_trains):
            raise ValueError(f"unknown train {delay.train}")
        # A train with k legs departs at stops 0..k-1; a from_stop at or
        # past the last departure would silently delay nothing.
        legs = int(run_length[delay.train])
        if delay.from_stop >= legs:
            where = f"stops 0..{legs - 1}" if legs else "no connections"
            raise ValueError(
                f"from_stop {delay.from_stop} out of range for train "
                f"{delay.train} ({where})"
            )

    pending: dict[int, list[Delay]] = {}
    for delay in delays:
        pending.setdefault(delay.train, []).append(delay)

    # The delayed trains' connections, in list (travel) order: no other
    # connection changes.
    rows = np.flatnonzero(np.isin(train, list(pending)))
    # Track, per train, the index of the connection being emitted and the
    # current accumulated lateness.
    progress: dict[int, int] = {}
    lateness: dict[int, int] = {}
    departures: set[tuple[int, int, int]] = set()
    new_dep = dep.copy()
    new_arr = arr.copy()
    for i, z, s_dep, t_dep, t_arr in zip(
        rows.tolist(),
        train[rows].tolist(),
        dep_station[rows].tolist(),
        dep[rows].tolist(),
        arr[rows].tolist(),
    ):
        stop_index = progress.get(z, 0)
        progress[z] = stop_index + 1

        # Recover slack on carried lateness first (a leg can only catch
        # up delay it already has), then add delays starting here.
        late = lateness.get(z, 0)
        if late > 0 and slack_per_leg:
            late = max(0, late - slack_per_leg)
        for delay in pending[z]:
            if delay.from_stop == stop_index:
                late += delay.minutes
        lateness[z] = late

        if late:
            duration = t_arr - t_dep
            t_dep = (t_dep + late) % timetable.period
            t_arr = t_dep + duration
            new_dep[i] = t_dep
            new_arr[i] = t_arr
        key = (z, s_dep, t_dep)
        if key in departures:
            raise ValueError(
                f"train {z} would depart station {s_dep} twice at {t_dep}"
            )
        departures.add(key)

    return timetable.with_connections(
        (train, dep_station, arr_station, new_dep, new_arr),
        name=f"{timetable.name}+delays",
    )


def train_lateness_profile(
    timetable: Timetable, delayed: Timetable, train: int
) -> list[int]:
    """Per-leg lateness of ``train`` between two timetables (minutes).

    Useful diagnostics for tests and the example: entry ``k`` is the
    departure shift of the train's ``k``-th leg (wrap-aware).
    """
    before = [c for c in timetable.connections if c.train == train]
    after = [c for c in delayed.connections if c.train == train]
    if len(before) != len(after):
        raise ValueError("timetables disagree on the train's run length")
    period = timetable.period
    return [
        (a.dep_time - b.dep_time) % period for a, b in zip(after, before)
    ]
