"""Daily departure patterns.

Real feeds are not uniform over the day: rush hours multiply the
frequency and operations pause at night.  The paper leans on this
twice — the equal time-slots partition is unbalanced *because* of it
(§3.2), and self-pruning works *because* consecutive departures chase
each other.  The generator reproduces both effects.
"""

from __future__ import annotations

from dataclasses import dataclass
import random


@dataclass(frozen=True, slots=True)
class SchedulePattern:
    """A day's service pattern for one route direction.

    ``base_headway`` applies during normal service; during the rush
    windows the headway divides by ``rush_factor``; no departures occur
    inside the night break.
    """

    base_headway: int = 20
    rush_factor: int = 3
    rush_windows: tuple[tuple[int, int], ...] = ((7 * 60, 9 * 60), (16 * 60, 19 * 60))
    service_start: int = 5 * 60
    service_end: int = 25 * 60  # 01:00 next day, wraps into the night
    jitter: int = 2

    def __post_init__(self) -> None:
        if self.base_headway < 1:
            raise ValueError(f"headway must be ≥ 1, got {self.base_headway}")
        if self.rush_factor < 1:
            raise ValueError(f"rush factor must be ≥ 1, got {self.rush_factor}")
        if not (0 <= self.service_start < self.service_end):
            raise ValueError(
                f"invalid service window [{self.service_start}, {self.service_end})"
            )

    def headway_at(self, tau: int) -> int:
        """Headway in effect at absolute minute ``tau`` (same day)."""
        minute = tau % 1440
        for lo, hi in self.rush_windows:
            if lo <= minute < hi:
                return max(1, self.base_headway // self.rush_factor)
        return self.base_headway


def daily_departures(
    pattern: SchedulePattern,
    rng: random.Random,
    *,
    offset: int = 0,
    period: int = 1440,
) -> list[int]:
    """Generate one day of departure minutes (time points in ``Π``).

    Walks the service window applying the local headway, adds bounded
    jitter, and reduces mod ``period``.  The result is deduplicated and
    sorted; the night break appears as a gap.
    """
    deps: set[int] = set()
    t = pattern.service_start + offset % max(1, pattern.base_headway)
    while t < pattern.service_end:
        jitter = rng.randint(-pattern.jitter, pattern.jitter) if pattern.jitter else 0
        deps.add((t + jitter) % period)
        t += pattern.headway_at(t)
    return sorted(deps)
