"""The walk-time in-link scan equals the eager tree facts of the search.

:meth:`~repro.network.backends.GatewayRouteTables.paths` checks certificate
(b) and finds each hop's in-link only on the (table, node) pairs its walks
reach, in one scan of their CSR rows (``backends._in_links``), which
:meth:`~repro.network.backends.RouteTables.paths` shares.  These tests
record every scan the walks make and hold it to the eager oracle
:func:`flow_oracles._tight_in_links`, which computes both facts for every
pair of the search: the near-tie flag on every walked pair, and the
in-link's edge row wherever the node is not near-tied.
"""

from __future__ import annotations

import numpy as np
import pytest

from flow_oracles import _tight_in_links
from repro.network import backends
from repro.network.backends import GatewayRouteTables
from repro.network.faults import FaultSpec
from repro.network.simulation import Scenario
from repro.orbits.time import epoch_range
from test_gateway_routing import (
    _arrays,
    _every_pair,
    _spread_cities,
    _station_rows,
    _stations,
    _tiny_simulator,
    _walker,
)


@pytest.fixture()
def scans(monkeypatch) -> list[tuple]:
    """Every ``_in_links`` call while the test runs, with a copy of its result
    (the caller may update the arrays it gets)."""
    recorded: list[tuple] = []
    scan = backends._in_links

    def recording_scan(arrays, distances, predecessors, walked, lead):
        entries, ties = scan(arrays, distances, predecessors, walked, lead)
        result = (
            [entry.copy() for entry in entries],
            None if ties is None else [tie.copy() for tie in ties],
        )
        recorded.append((arrays, distances, predecessors, walked, lead, result))
        return entries, ties

    monkeypatch.setattr(backends, "_in_links", recording_scan)
    return recorded


def _assert_scans_match(scans: list[tuple]) -> tuple[int, int]:
    """Compare every recorded scan with the oracle.

    Returns how many walked pairs the gateway scans found near-tied, and
    how many untied in-link entries were compared.

    Every entry found is the link from the node's predecessor.  A scan
    without ``lead`` (station-sourced tables) counts no ties; its entries
    are compared with the oracle's at a zero lead.
    """
    tied = untied = 0
    for arrays, distances, predecessors, walked, lead, (entries, ties) in scans:
        in_entry, near_tie = _tight_in_links(arrays, distances, predecessors, lead or 0.0)
        assert (ties is None) == (lead is None)
        for k, (at, entry) in enumerate(zip(walked, entries, strict=True)):
            before = predecessors.ravel()[at]
            entered = before >= 0
            assert np.array_equal(arrays.indices[entry[entered]], before[entered])
            tie = near_tie.ravel()[at]
            if ties is not None:
                assert np.array_equal(ties[k], tie)
                tied += int(tie.sum())
            inner = ~tie & entered
            assert np.array_equal(
                arrays.edge_rows[entry[inner]],
                arrays.edge_rows[in_entry.ravel()[at][inner]],
            )
            untied += int(inner.sum())
    return tied, untied


def _assert_gateway_lead(scans: list[tuple], tables: GatewayRouteTables) -> None:
    """The gateway scan judges near ties on the heaviest gateway link."""
    padded = tables.gateway_links < 0
    lead = float(tables.gateway_weights[~padded].max(initial=0.0))
    gateway_scans = [scan for scan in scans if scan[1] is tables.distances]
    assert len(gateway_scans) == 1
    assert gateway_scans[0][4] == lead


WEIGHTS = ["integer", "uniform", "tenths", "zeros"]


@pytest.mark.parametrize("weights", WEIGHTS)
def test_random_tie_graphs(weights, scans):
    """Random cores with stations hung off shared gateways; integer and
    rounded weights make exact ties, so both outcomes of the check occur,
    and zero weights tie gateways with their neighbours."""
    rng = np.random.default_rng(WEIGHTS.index(weights))
    seen = np.zeros(2, dtype=int)
    for _ in range(30):
        satellites, stations = int(rng.integers(5, 40)), int(rng.integers(10, 60))
        n = satellites + stations
        links = {
            (min(u, v), max(u, v))
            for u, v in rng.integers(0, satellites, (2 * satellites, 2))
            if u != v
        }
        for station in range(satellites, n):
            for gateway in rng.choice(6, size=int(rng.integers(0, 3)), replace=False):
                links.add((int(gateway), station))
        u, v = rng.integers(satellites, n, 2)
        if u != v:
            links.add((min(u, v), max(u, v)))
        a, b = (np.array(column, dtype=np.intp) for column in zip(*sorted(links)))
        w = {
            "integer": lambda: rng.integers(1, 4, a.size).astype(float),
            "uniform": lambda: rng.uniform(0.1, 10.0, a.size),
            "tenths": lambda: np.round(rng.uniform(0.1, 3.0, a.size), 1),
            "zeros": lambda: rng.integers(0, 3, a.size).astype(float),
        }[weights]()
        labels = tuple(range(satellites)) + tuple(f"gs:{i}" for i in range(stations))
        arrays = _arrays(labels, a, b, w)
        sources = np.arange(satellites, n)
        sources[rng.random(stations) < 0.1] = -1
        tables = GatewayRouteTables.solve(arrays, sources)
        scans.clear()
        tables.paths(*_every_pair(sources, np.arange(n)))
        _assert_gateway_lead(scans, tables)
        seen += _assert_scans_match(scans)
    tied, untied = seen
    assert untied > 0
    assert weights == "uniform" or tied > 0


def test_near_ties_are_judged_with_the_gateway_link(scans):
    """Near ties are judged on the whole sum from the source station.

    Behind a 1,000 ms gateway link, two routes into node 3 differ by 1e-11
    ms and gateway 2's in-link from node 3 costs 2e-10 ms: both are within
    ``CERTIFICATE_MARGIN`` of the path sums the source sees, though not of
    the distances inside the gateway's search, so the query is solved
    exactly.
    """
    labels = ("gs:S", "gs:T", 2, 3, 4)
    edges = ((0, 2, 1000.0), (2, 3, 1e-10), (2, 4, 0.5e-10), (4, 3, 0.6e-10), (3, 1, 1.0))
    tables = GatewayRouteTables.solve(_arrays(labels, *zip(*edges)), [0])
    paths = tables.paths(np.array([0]), np.array([1]))
    assert paths.exact_sources == 1
    assert paths.links.tolist() == [0, 1, 4]  # edges S-2, 2-3 and 3-T: S, 2, 3, T
    (scan,) = [scan for scan in scans if scan[1] is tables.distances]
    walked, (_, ties) = scan[3], scan[5]
    flags = {int(at): bool(tie) for w, t in zip(walked, ties) for at, tie in zip(w, t)}
    # Gateway 2 is table 0, so a flat index is the node row.
    assert flags == {2: True, 3: True, 1: False}
    assert _assert_scans_match(scans)[0] == 2


def test_full_size_spread_snapshot(epoch, scans):
    """335 stations one per site over a 360-satellite shell, every pair."""
    stations = _stations(_spread_cities(335, seed=3, per_site=1))
    sequence = _walker(epoch, 360, 18).snapshot_sequence(
        epoch_range(epoch, 3600.0, 3600.0), stations
    )
    edge_list = sequence.edge_list(0)
    rows = _station_rows(edge_list.node_index)
    tables = GatewayRouteTables.solve(edge_list.arrays(), rows)
    tables.paths(*_every_pair(rows, rows))
    _assert_gateway_lead(scans, tables)
    tied, untied = _assert_scans_match(scans)
    assert untied > 10_000


def test_steered_re_solve(epoch, scans, monkeypatch):
    """The scans of a faulted, steered sweep, steered re-walks included."""
    solved: list[GatewayRouteTables] = []
    solve = GatewayRouteTables.solve.__func__

    def recording_solve(cls, arrays, source_rows):
        solved.append(solve(cls, arrays, source_rows))
        return solved[-1]

    monkeypatch.setattr(GatewayRouteTables, "solve", classmethod(recording_solve))
    faults = (
        FaultSpec("plane_outage", {"count": 1, "seed": 5}),
        FaultSpec("link_degradation", {"factor": 0.0, "fraction": 0.1, "seed": 6}),
    )
    steps, minute = 4, 1.0 / 60.0
    _tiny_simulator(epoch).run_scenarios(
        [Scenario(name="steered", faults=faults, steering="congestion-aware")],
        epoch,
        steps * minute,
        step_hours=minute,
    )
    # One base solve per step; the rest are steered re-solves.  Each is walked.
    assert len(solved) > steps
    walked = {id(scan[1]) for scan in scans}
    assert all(id(tables.distances) in walked for tables in solved)
    tied, untied = _assert_scans_match(scans)
    assert untied > 0
