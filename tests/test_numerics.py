"""The run-by-run pairwise sum against numpy's sum of the whole array."""

from __future__ import annotations

import numpy as np
import pytest

from repro.numerics import _PAIRWISE_CHUNK, _pairwise_sum


def _values(size: int, seed: int) -> np.ndarray:
    """Mixed signs and magnitudes, so any change of summation order shows."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(size) * 10.0 ** rng.integers(-8, 9, size)


def _run_by_run(values: np.ndarray) -> tuple[float, list[tuple[int, int]]]:
    runs: list[tuple[int, int]] = []

    def values_at(lo: int, hi: int) -> np.ndarray:
        runs.append((lo, hi))
        return values[lo:hi]

    return _pairwise_sum(values_at, values.size), runs


def _same_float(left: float, right: float) -> bool:
    return np.float64(left).tobytes() == np.float64(right).tobytes()


@pytest.mark.parametrize(
    "size",
    [*range(1, 10), 127, 128, 129, _PAIRWISE_CHUNK - 1, _PAIRWISE_CHUNK, _PAIRWISE_CHUNK + 1],
)
def test_equals_numpy_sum_at_block_edges(size):
    values = _values(size, size)
    assert _same_float(_run_by_run(values)[0], np.add.reduce(values))


@pytest.mark.parametrize("seed", range(5))
def test_equals_numpy_sum_at_random_sizes_up_to_two_million(seed):
    size = int(np.random.default_rng(seed).integers(_PAIRWISE_CHUNK, 2_000_001))
    values = _values(size, seed)
    assert _same_float(_run_by_run(values)[0], np.add.reduce(values))


def test_runs_tile_the_array_in_order_and_stay_short():
    values = _values(100_003, 3)
    _, runs = _run_by_run(values)
    assert runs[0][0] == 0 and runs[-1][1] == values.size
    assert all(previous[1] == run[0] for previous, run in zip(runs, runs[1:]))
    assert max(hi - lo for lo, hi in runs) <= _PAIRWISE_CHUNK


def test_empty_array_sums_to_zero():
    assert _run_by_run(np.empty(0))[0] == 0.0
