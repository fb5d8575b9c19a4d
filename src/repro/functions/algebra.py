"""Profile functions ``dist(S, T, ·)`` and their algebra.

A :class:`Profile` is the answer to a profile query toward one target:
for every relevant departure time from the source, the earliest arrival
at the target.  It is stored as parallel vectors of departure anchors
(time points of ``conn(S)``, non-decreasing) and absolute arrivals, in
*reduced* (FIFO) form.

The class supports evaluation (earliest arrival when departing at or
after ``τ``), travel-time lookup, pointwise minimum (used when merging
per-thread results), and dominance tests used throughout the test
suite.  Evaluation reads one lazily built per-minute row
(:meth:`Profile.row`, :func:`minute_row`), the form the flat kernel
indexes for the distance table's pairs too.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence

import numpy as np

from repro.functions.piecewise import INF_TIME, narrow_row
from repro.functions.reduction import reduce_connection_points
from repro.timetable.periodic import DAY_MINUTES


class Profile:
    """A reduced travel-time profile toward a single target station.

    Pickles as its points alone (``__getstate__``): the row is a cache,
    rebuilt where it is next read, never shipped.
    """

    __slots__ = ("deps", "arrs", "period", "_row")

    def __init__(
        self,
        deps: Sequence[int] | np.ndarray,
        arrs: Sequence[int] | np.ndarray,
        period: int = DAY_MINUTES,
    ) -> None:
        deps_arr = np.asarray(deps, dtype=np.int64)
        arrs_arr = np.asarray(arrs, dtype=np.int64)
        if deps_arr.shape != arrs_arr.shape or deps_arr.ndim != 1:
            raise ValueError(
                f"deps/arrs must be parallel 1-D vectors, got "
                f"{deps_arr.shape} vs {arrs_arr.shape}"
            )
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if deps_arr.size:
            if (np.diff(deps_arr) < 0).any():
                raise ValueError("departure anchors must be non-decreasing")
            if deps_arr[0] < 0:
                raise ValueError("departure anchors must not be negative")
            if (arrs_arr < deps_arr).any():
                raise ValueError("arrival before departure in profile")
        self.deps = deps_arr
        self.arrs = arrs_arr
        self.period = period
        self._row: array | None = None

    def __getstate__(self) -> tuple[np.ndarray, np.ndarray, int]:
        return self.deps, self.arrs, self.period

    def __setstate__(self, state: tuple[np.ndarray, np.ndarray, int]) -> None:
        self.deps, self.arrs, self.period = state
        self._row = None

    @classmethod
    def of_points(
        cls, deps: np.ndarray, arrs: np.ndarray, period: int
    ) -> "Profile":
        """A profile over int64 points already known to be a reduced
        profile's — a distance table's slice, checked when the table
        was built or loaded — taken as they are, unchecked."""
        profile = cls.__new__(cls)
        profile.deps, profile.arrs, profile.period = deps, arrs, period
        profile._row = None
        return profile

    @classmethod
    def from_raw(
        cls,
        deps: Sequence[int] | np.ndarray,
        arrs: Sequence[int] | np.ndarray,
        period: int = DAY_MINUTES,
    ) -> "Profile":
        """Build from a raw (unreduced) label vector: applies connection
        reduction first (paper §3.1)."""
        reduced_deps, reduced_arrs = reduce_connection_points(deps, arrs)
        return cls(reduced_deps, reduced_arrs, period)

    def __len__(self) -> int:
        return int(self.deps.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Profile):
            return NotImplemented
        return (
            self.period == other.period
            and self.deps.shape == other.deps.shape
            and bool((self.deps == other.deps).all())
            and bool((self.arrs == other.arrs).all())
        )

    def __hash__(self) -> int:  # pragma: no cover - profiles are not dict keys
        return hash((self.period, self.deps.tobytes(), self.arrs.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Profile({len(self)} points, period={self.period})"

    def is_empty(self) -> bool:
        """True when the target is unreachable for every departure."""
        return self.deps.size == 0

    def row(self) -> array:
        """The profile per minute of the period: entry ``τ`` is
        :meth:`earliest_arrival` at ``τ`` for τ in ``[0, period)`` — the
        earliest arrival relative to τ's day — and the row is empty
        when the profile is.  An ``array`` of the narrowest typecode
        that holds it, so an evaluation is ``day + row[τ]``: one index
        where a search loop would otherwise bisect the anchors.

        Built on first use, in one numpy pass (:func:`minute_row`),
        and published in **one** store: other threads may evaluate the
        same profile and must never see half a row.  It costs O(period)
        — a weekly period's row is seven times a daily one's — which is
        why it is lazy.  The distance table builds the same rows per
        pair (:meth:`DistanceTable.row
        <repro.query.distance_table.DistanceTable.row>`), which the flat
        kernel (:mod:`repro.core.spcs_kernel`) indexes inline, exactly
        as :meth:`earliest_arrival` does.
        """
        row = self._row
        if row is None:
            row = minute_row(self.deps, self.arrs, self.period)
            self._row = row
        return row

    def earliest_arrival(self, tau: int) -> int:
        """Earliest absolute arrival when departing at or after time
        point ``tau`` (reduced mod period).  ``INF_TIME`` if empty.

        Evaluation follows the paper's representation semantics:
        ``f(τ) = Δ(τ, τ_f) + w_f`` for the point *minimizing* the cyclic
        wait-plus-ride total.  With reduced (strictly increasing)
        arrivals only two candidates can win: the next anchor of the
        current day and the first anchor of the next day (a very slow
        same-day connection may lose to waiting past midnight).  The
        returned arrival is expressed relative to ``tau``'s day.
        """
        row = self.row()
        if not row:
            return INF_TIME
        tau_mod = tau % self.period
        return tau - tau_mod + row[tau_mod]

    def travel_time(self, tau: int) -> int:
        """``dist(S, T, τ)``: waiting plus riding time departing at ``τ``."""
        arrival = self.earliest_arrival(tau)
        return arrival - tau if arrival < INF_TIME else INF_TIME

    def connection_points(self) -> list[tuple[int, int]]:
        """``P(dist(S,T,·))`` as (departure anchor, duration) pairs of
        Python ints (``tolist`` first: iterating the arrays would box
        one numpy scalar per element)."""
        return [
            (d, a - d) for d, a in zip(self.deps.tolist(), self.arrs.tolist())
        ]

    def minimum(self, other: "Profile") -> "Profile":
        """Pointwise minimum of two reduced profiles.

        Concatenates the anchor sets, keeps per-anchor best arrivals and
        re-reduces.  Used by tests and by the distance-table builder when
        combining partial results.
        """
        if self.period != other.period:
            raise ValueError("cannot merge profiles with different periods")
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        deps = np.concatenate([self.deps, other.deps])
        arrs = np.concatenate([self.arrs, other.arrs])
        order = np.lexsort((arrs, deps))
        return Profile.from_raw(deps[order], arrs[order], self.period)

    def dominates(self, other: "Profile") -> bool:
        """True iff this profile is at least as good as ``other`` at every
        departure time (checked at both profiles' anchors)."""
        if self.period != other.period:
            raise ValueError("cannot compare profiles with different periods")
        anchors = sorted({*self.deps.tolist(), *other.deps.tolist()})
        for tau in anchors:
            for probe in (tau - 1, tau):
                if self.earliest_arrival(probe % self.period) > other.earliest_arrival(
                    probe % self.period
                ):
                    return False
        return True

    def is_fifo(self) -> bool:
        """Reduced profiles are FIFO by construction; verify explicitly."""
        if self.arrs.size <= 1:
            return True
        return bool((np.diff(self.arrs) > 0).all())


def minute_row(deps: np.ndarray, arrs: np.ndarray, period: int) -> array:
    """:meth:`Profile.row` of the points ``(deps, arrs)`` (any integer
    dtype: a distance table's narrow slices too): per minute τ,
    the arrival of the first anchor at or after τ unless the first
    anchor of the next day arrives sooner (or there is none today).
    The first anchor at or after τ is the count of anchors before τ."""
    if not deps.size:
        return array("B")
    tomorrow = period + int(arrs[0])
    before = np.bincount(deps, minlength=period)[:period]
    first = before.cumsum() - before
    values = np.minimum(np.append(arrs, tomorrow), tomorrow)[first]
    return narrow_row(values, int(values.max()))


def merge_profiles(profiles: Iterable[Profile]) -> Profile:
    """Pointwise minimum over any number of profiles."""
    result: Profile | None = None
    for profile in profiles:
        result = profile if result is None else result.minimum(profile)
    if result is None:
        raise ValueError("merge_profiles requires at least one profile")
    return result
