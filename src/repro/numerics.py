"""Exact float64 sums over arrays that are never built whole.

numpy sums a contiguous float64 array pairwise: a run of more than 128
values is split at ``n // 2`` rounded down to a multiple of 8, each half is
summed the same way, and the two partial sums are added.  The split points
depend only on the run's length, so the sum of a long array is the sum of
its halves' sums, recursively.  :func:`_pairwise_sum` walks that recursion
over a *virtual* array, asking for its values one short run at a time, and
returns the float ``np.add.reduce`` would return for the whole array, while
holding at most ``_PAIRWISE_CHUNK`` of its values at once.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__: list[str] = []

#: Longest run of the virtual array handed to numpy whole.  Larger than
#: numpy's own 128-value unrolled block, so numpy applies the same recursion
#: inside each run, and small enough (32 KiB) to stay in cache.
_PAIRWISE_CHUNK = 4096


def _pairwise_sum(values_at: Callable[[int, int], np.ndarray], size: int) -> float:
    """Return ``np.add.reduce`` of a virtual float64 array of ``size`` values.

    ``values_at(lo, hi)`` returns values ``[lo, hi)`` of the array as a
    one-dimensional contiguous float64 array; it is called on consecutive
    runs of at most ``_PAIRWISE_CHUNK`` values, in order.  The result is the
    same float as summing the whole array, bit for bit.
    """

    def run_sum(lo: int, count: int):
        if count <= _PAIRWISE_CHUNK:
            return np.add.reduce(values_at(lo, lo + count))
        half = count // 2
        half -= half % 8
        return run_sum(lo, half) + run_sum(lo + half, count - half)

    return float(run_sum(0, size))
