"""Flow selection by flat entry codes, against the array selection it replaced.

``TrafficMatrix.entry_codes`` reads the non-zero off-diagonal entries in
one flat pass, and ``plan_flows`` cuts on demand before it decodes station
ids and orders the kept candidates by ``-demand`` and one pair key.  The
oracles in ``flow_oracles`` decode every entry through a 2-D mask and sort
on three keys; the two must agree bit for bit (arrays, dtypes and the
plan's boundary) on matrices built to stress every branch: ties at the
budget cut, zero entries, a non-zero diagonal, station subsets in any
order, names the matrix lacks, and budgets from none to every entry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.demand.traffic_matrix import City, TrafficMatrix
from repro.network.flows import plan_flows

from flow_oracles import mask_entry_arrays, three_key_selection


def _matrix(rng: np.random.Generator, size: int) -> TrafficMatrix:
    """A random matrix with repeated values, zeros and a non-zero diagonal."""
    cities = tuple(City(f"C{i:02d}", 0.0, 0.0, 1.0) for i in range(size))
    # Few distinct values, so many entries tie, at the budget cut too.
    demands = rng.integers(0, 6, size=(size, size)).astype(float) * 0.25
    demands[rng.random((size, size)) < 0.3] = rng.lognormal(size=1)[0]
    np.fill_diagonal(demands, rng.uniform(1.0, 9.0, size))
    return TrafficMatrix(cities=cities, demands=demands)


def _name_sets(rng: np.random.Generator, matrix: TrafficMatrix) -> list:
    own = tuple(city.name for city in matrix.cities)
    subset = tuple(rng.permutation(own)[: max(2, len(own) // 2)].tolist())
    shuffled = tuple(rng.permutation(own).tolist())
    # Absent names interleaved with the matrix's own order: no gather, but
    # ids that are not positions.
    padded = tuple(name for city in own for name in (city, f"Z{city}"))
    return [None, own, subset, shuffled, padded, ("Atlantis",), ()]


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_entry_arrays_match_the_mask_export(seed):
    rng = np.random.default_rng(seed)
    matrix = _matrix(rng, int(rng.integers(2, 14)))
    for names in _name_sets(rng, matrix):
        got = matrix.entry_arrays(names)
        want = mask_entry_arrays(matrix, names)
        assert [column.dtype for column in got] == [np.int64, np.int64, np.float64]
        for column, (left, right) in enumerate(zip(got, want)):
            assert _same(left, right), (names, column)


@pytest.mark.parametrize("seed", range(6))
def test_plans_match_the_three_key_selection(seed):
    rng = np.random.default_rng(100 + seed)
    matrix = _matrix(rng, int(rng.integers(2, 14)))
    for names in _name_sets(rng, matrix):
        names = names if names is not None else tuple(c.name for c in matrix.cities)
        entries = mask_entry_arrays(matrix, names)[2].size
        budgets = {None, 0, 1, entries // 3, max(entries - 1, 0), entries, entries + 5}
        for budget in sorted(budgets, key=lambda b: -1 if b is None else b):
            for multiplier in (1.0, 0.3, 3.0):
                plan = plan_flows(matrix, names, budget, multiplier)
                table, boundary = three_key_selection(matrix, names, budget, multiplier)
                assert plan.boundary == boundary, (names, budget, multiplier)
                assert plan.table == table  # the station names
                for column in ("src", "dst", "demand"):
                    assert _same(
                        getattr(plan.table, column), getattr(table, column)
                    ), (names, budget, multiplier, column)


def test_ties_at_the_cut_are_decided_by_name():
    cities = tuple(City(name, 0.0, 0.0, 1.0) for name in ("b", "c", "a"))
    demands = np.full((3, 3), 2.0)
    demands[0, 1] = 5.0  # b -> c leads; the other five tie
    matrix = TrafficMatrix(cities=cities, demands=demands)
    names = ("b", "c", "a")
    plan = plan_flows(matrix, names, 3)
    pairs = [(names[s], names[d]) for s, d in zip(plan.table.src, plan.table.dst)]
    assert pairs == [("b", "c"), ("a", "b"), ("a", "c")]
    assert plan.boundary is None  # the cut fell inside the tie


@pytest.mark.parametrize("budget", [-3, -1, 2.5, 3.0, True, False, "5"])
def test_plan_flows_rejects_a_bad_budget(budget):
    cities = tuple(City(f"C{i}", 0.0, 0.0, 1.0) for i in range(4))
    matrix = TrafficMatrix(cities=cities, demands=np.ones((4, 4)))
    with pytest.raises(ValueError, match="flows_per_step"):
        plan_flows(matrix, tuple(c.name for c in cities), budget)


def test_plan_flows_accepts_numpy_budgets():
    cities = tuple(City(f"C{i}", 0.0, 0.0, 1.0) for i in range(4))
    matrix = TrafficMatrix(cities=cities, demands=np.ones((4, 4)))
    names = tuple(c.name for c in cities)
    assert plan_flows(matrix, names, np.int64(5)).table.flow_count == 5
    assert plan_flows(matrix, names, 0).table.flow_count == 0


def test_plan_flows_rejects_repeated_names():
    cities = tuple(City(name, 0.0, 0.0, 1.0) for name in ("x", "y"))
    matrix = TrafficMatrix(cities=cities, demands=np.array([[4.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError, match="'x' is repeated"):
        plan_flows(matrix, ("y", "x", "x"), None)
