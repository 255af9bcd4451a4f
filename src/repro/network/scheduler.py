"""Demand-aware traffic scheduling.

One of the Section 5 implications: "bandwidth allocation and scheduling
algorithms should exploit the regularity of human activity to prioritize
peak-hour service and shift non-urgent traffic to off-peak periods".  This
module implements exactly that primitive: given a diurnal demand series split
into urgent and deferrable components and a supply (capacity) series, shift
the deferrable traffic forward in time to minimise the peak load.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = ["ScheduleResult", "PeakShiftScheduler"]


@dataclass(frozen=True, eq=False)
class ScheduleResult:
    """Outcome of a peak-shifting schedule.

    Instances compare by identity: array fields have no single truth value.

    Attributes
    ----------
    served:
        Traffic served in each slot (urgent + deferred actually transmitted).
    deferred:
        Amount of deferrable traffic that was moved out of each original slot.
    dropped:
        Deferrable traffic that could not be served within the horizon.
    peak_before, peak_after:
        Peak slot load before and after shifting.
    """

    served: np.ndarray
    deferred: np.ndarray
    dropped: float
    peak_before: float
    peak_after: float

    @property
    def peak_reduction_percent(self) -> float:
        """Percent reduction of the peak load achieved by shifting."""
        if self.peak_before == 0:
            return 0.0
        return 100.0 * (1.0 - self.peak_after / self.peak_before)


@dataclass
class PeakShiftScheduler:
    """Shifts deferrable traffic to later, less-loaded slots.

    Attributes
    ----------
    max_delay_slots:
        How many slots a deferrable unit of traffic may be postponed: a
        non-negative integer (0 serves deferrable traffic only in its own
        slot).
    """

    max_delay_slots: int = 6

    def __post_init__(self) -> None:
        delay = self.max_delay_slots
        if isinstance(delay, bool) or not isinstance(delay, numbers.Integral):
            raise ValueError(f"max_delay_slots must be an integer, got {delay!r}")
        if delay < 0:
            raise ValueError(f"max_delay_slots must be non-negative, got {delay!r}")
        self.max_delay_slots = int(delay)

    def schedule(
        self,
        urgent: np.ndarray,
        deferrable: np.ndarray,
        capacity: np.ndarray,
    ) -> ScheduleResult:
        """Schedule one cyclic day of traffic.

        All inputs are non-empty 1-D per-slot arrays of equal length, finite
        and non-negative (the series is treated as cyclic, matching the
        diurnal cycle).  Urgent traffic is always served in its own slot (it
        may exceed capacity -- that excess is what constellation sizing must
        provision for); deferrable traffic is packed into the earliest
        following slot with spare capacity, up to ``max_delay_slots`` later,
        and dropped otherwise.
        """
        urgent = _slot_series("urgent", urgent)
        deferrable = _slot_series("deferrable", deferrable)
        capacity = _slot_series("capacity", capacity)
        if not (urgent.shape == deferrable.shape == capacity.shape):
            raise ValueError(
                "urgent, deferrable and capacity must have the same shape, got "
                f"{urgent.shape}, {deferrable.shape} and {capacity.shape}"
            )

        slots = urgent.size
        served = urgent.copy()
        deferred = np.zeros(slots)
        dropped = 0.0

        for slot in range(slots):
            pending = deferrable[slot]
            if pending == 0.0:
                continue
            for delay in range(self.max_delay_slots + 1):
                target = (slot + delay) % slots
                headroom = max(0.0, capacity[target] - served[target])
                transmit = min(pending, headroom)
                if transmit > 0:
                    served[target] += transmit
                    pending -= transmit
                    if delay > 0:
                        deferred[slot] += transmit
                if pending <= 1e-12:
                    break
            dropped += pending

        total_before = urgent + deferrable
        return ScheduleResult(
            served=served,
            deferred=deferred,
            dropped=float(dropped),
            peak_before=float(total_before.max()),
            peak_after=float(served.max()),
        )


def _slot_series(name: str, values: np.ndarray) -> np.ndarray:
    """Return ``values`` as a float array, or raise naming ``name``.

    A per-slot series must be a non-empty 1-D array of finite, non-negative
    values.
    """
    series = np.asarray(values, dtype=float)
    if series.ndim != 1 or series.size == 0:
        raise ValueError(
            f"{name} must be a non-empty 1-D array, got shape {series.shape}"
        )
    bad = ~np.isfinite(series) | (series < 0)
    if bad.any():
        index = int(np.argmax(bad))
        raise ValueError(
            f"{name}[{index}] must be finite and non-negative, "
            f"got {float(series[index])!r}"
        )
    return series
