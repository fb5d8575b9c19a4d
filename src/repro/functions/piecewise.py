"""Edge travel-time functions (paper §2, Fig. 2).

Each time-dependent route edge carries the elementary connections of its
leg as a :class:`TravelTimeFunction`: parallel sorted arrays of
departure time points (in ``Π``) and durations.  Evaluating the function
at an absolute time ``t`` yields the earliest possible arrival
``t + f(t)`` over all connections, respecting periodicity.

Evaluation walks connection points cyclically from the first departure
not before ``t mod π`` and stops as soon as the waiting time alone can
no longer beat the best total found — this is correct even when a later
train overtakes an earlier one (non-FIFO legs), and costs O(1) amortized
on FIFO schedules.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterable, Sequence

import numpy as np

from repro.timetable.periodic import DAY_MINUTES

#: Arrival label for "unreachable"; see :mod:`repro.timetable.periodic`.
INF_TIME = 2**62

#: ``array`` typecodes from the narrowest up, each with the bound its
#: values stay below; numpy reads the same codes as the same types.
_ROW_TYPECODES = (("B", 1 << 8), ("H", 1 << 16), ("I", 1 << 32), ("q", 1 << 63))


def narrow_row(values: np.ndarray, top: int) -> array:
    """``values`` (non-negative, the largest ``top``) as an ``array`` of
    the narrowest typecode that holds them: a per-minute row indexed in
    a search loop, one Python int per read."""
    code = next(code for code, bound in _ROW_TYPECODES if top < bound)
    return array(code, values.astype(code).tobytes())


class TravelTimeFunction:
    """A periodic piecewise-linear travel-time function.

    Parameters
    ----------
    deps:
        Departure time points, each in ``[0, period)``, non-decreasing.
    durs:
        Positive durations, parallel to ``deps``.
    period:
        Periodicity ``π``.
    """

    __slots__ = ("deps", "durs", "period", "_deps_arr", "_durs_arr", "_fifo_sorted")

    def __init__(
        self,
        deps: Sequence[int],
        durs: Sequence[int],
        period: int = DAY_MINUTES,
    ) -> None:
        if len(deps) != len(durs):
            raise ValueError(
                f"deps and durs must be parallel, got {len(deps)} vs {len(durs)}"
            )
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        deps = list(deps)
        durs = list(durs)
        for i, (tau, w) in enumerate(zip(deps, durs)):
            if not (0 <= tau < period):
                raise ValueError(f"departure {tau} outside [0, {period})")
            if w <= 0:
                raise ValueError(f"duration must be positive, got {w}")
            if i and tau < deps[i - 1]:
                raise ValueError("departures must be non-decreasing")
        self.deps = deps
        self.durs = durs
        self.period = period
        self._deps_arr: np.ndarray | None = None
        self._durs_arr: np.ndarray | None = None
        self._fifo_sorted: bool | None = None

    @classmethod
    def from_connections(
        cls, connections: Iterable, period: int = DAY_MINUTES
    ) -> "TravelTimeFunction":
        """Build from elementary connections of one route leg (paper §2):
        one connection point ``(τ_dep(c), Δ(τ_dep(c), τ_arr(c)))`` each.
        """
        pairs = sorted((c.dep_time, c.duration) for c in connections)
        return cls([p[0] for p in pairs], [p[1] for p in pairs], period)

    def __len__(self) -> int:
        return len(self.deps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TravelTimeFunction({len(self.deps)} points, period={self.period})"
        )

    def arrival(self, t: int) -> int:
        """Earliest absolute arrival when entering the edge at absolute
        time ``t``; ``INF_TIME`` if the function has no connection points.
        """
        deps = self.deps
        n = len(deps)
        if n == 0:
            return INF_TIME
        period = self.period
        durs = self.durs
        tau = t % period
        start = bisect_left(deps, tau)
        best = INF_TIME
        # First pass: departures at or after tau today.
        for k in range(start, n):
            wait = deps[k] - tau
            if wait >= best:
                break
            total = wait + durs[k]
            if total < best:
                best = total
        else:
            # Second pass: wrap to tomorrow's departures.
            for k in range(0, start):
                wait = period + deps[k] - tau
                if wait >= best:
                    break
                total = wait + durs[k]
                if total < best:
                    best = total
        return t + best if best < INF_TIME else INF_TIME

    def travel_time(self, t: int) -> int:
        """``f(t)``: waiting plus riding time when entering at ``t``."""
        arrival = self.arrival(t)
        return arrival - t if arrival < INF_TIME else INF_TIME

    def arrival_batch(self, times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`arrival` for an int64 array of absolute times.

        Entries equal to ``INF_TIME`` (or larger) propagate unchanged.
        Used by the label-correcting baseline, which relaxes whole
        per-connection label vectors at once.

        For non-FIFO legs the vectorized form falls back to the scalar
        scan per element (rare; synthetic legs are FIFO).
        """
        n = len(self.deps)
        out = np.full(times.shape, INF_TIME, dtype=np.int64)
        if n == 0:
            return out
        finite = times < INF_TIME
        if not finite.any():
            return out
        if self._deps_arr is None:
            self._deps_arr = np.asarray(self.deps, dtype=np.int64)
            self._durs_arr = np.asarray(self.durs, dtype=np.int64)
        if not self._is_fifo_sorted():
            result = out.copy()
            finite_idx = np.nonzero(finite)[0]
            for i in finite_idx:
                result[i] = self.arrival(int(times[i]))
            return result
        t = times[finite]
        tau = t % self.period
        idx = np.searchsorted(self._deps_arr, tau, side="left")
        wrapped = idx == n
        idx_mod = np.where(wrapped, 0, idx)
        wait = self._deps_arr[idx_mod] - tau + np.where(wrapped, self.period, 0)
        out[finite] = t + wait + self._durs_arr[idx_mod]
        return out

    def _is_fifo_sorted(self) -> bool:
        """True iff taking the next departure is always optimal, i.e.
        arrivals ``dep + dur`` are non-decreasing and the last wrapped
        arrival does not overtake the first.  Cached after first call."""
        if self._fifo_sorted is not None:
            return self._fifo_sorted
        self._fifo_sorted = self._compute_fifo_sorted()
        return self._fifo_sorted

    def _compute_fifo_sorted(self) -> bool:
        deps, durs = self.deps, self.durs
        arrs = [d + w for d, w in zip(deps, durs)]
        for earlier, later in zip(arrs, arrs[1:]):
            if later < earlier:
                return False
        # Wrap check: tomorrow's first departure vs today's last arrival.
        if arrs and arrs[-1] > deps[0] + self.period + durs[0]:
            return False
        return True

    def is_fifo(self) -> bool:
        """Check the FIFO property of the *schedule* (paper §2): no
        connection overtakes an earlier one on this leg, i.e. arrivals
        are non-decreasing in departure order (cyclically).

        Note the evaluated lower envelope always satisfies the
        functional inequality ``f(τ1) ≤ Δ(τ1, τ2) + f(τ2)`` — one can
        always wait — so the meaningful FIFO check is on the connection
        points, not on evaluations.
        """
        return self._is_fifo_sorted()

    def min_duration(self) -> int:
        """Lower bound on the travel time over all departures.

        Used as the scalar weight of station-graph edges during
        contraction-based transfer-station selection.
        """
        return min(self.durs) if self.durs else INF_TIME

    def connection_points(self) -> list[tuple[int, int]]:
        """The connection-point set ``P(f)`` as (τ, w) pairs."""
        return list(zip(self.deps, self.durs))
