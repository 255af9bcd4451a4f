"""Gateway route tables equal station-sourced Dijkstra bit for bit.

:class:`~repro.network.backends.GatewayRouteTables` searches from the
satellites the stations link to and walks a query on its best gateway's
tree only under a uniqueness certificate; every other source is solved by
:class:`~repro.network.backends.RouteTables`.  These tests hold its
``paths`` to the station-sourced tables with ``np.array_equal`` -- offsets,
hop edge rows and latency, no tolerance -- over every station pair.
"""

from __future__ import annotations

import numpy as np
import pytest

from flow_oracles import path_links, rows_from_links
from repro.coverage.walker import WalkerDelta
from repro.demand.traffic_matrix import City, GravityTrafficModel
from repro.network.backends import (
    EdgeArrays,
    GatewayRouteTables,
    NodeIndex,
    RouteTables,
    SnapshotEdgeList,
)
from repro.network.faults import FaultSpec
from repro.network.ground_station import GroundStation
from repro.network.simulation import NetworkSimulator, Scenario
from repro.network.topology import ConstellationTopology
from repro.orbits.time import epoch_range


def _assert_same_paths(
    arrays: EdgeArrays, source_rows, dest_rows, edge_list: SnapshotEdgeList | None = None
) -> GatewayRouteTables:
    """Compare both tables on every (source row, destination row) pair.

    Also rebuilds every walked path's node rows from its source and hop
    links in ``edge_list`` (by default the edge list the arrays' entries
    describe, :func:`_edge_list_of`): each path must end at its
    destination, and each hop's edge row must be ``link_rows`` of its
    node-row pair.
    """
    group_of, dests = _every_pair(source_rows, dest_rows)
    gateway = GatewayRouteTables.solve(arrays, source_rows)
    got = gateway.paths(group_of, dests)
    want = RouteTables.solve(arrays, source_rows).paths(group_of, dests)
    for name in ("offsets", "links", "latency_ms"):
        assert getattr(got, name).dtype.kind == getattr(want, name).dtype.kind, name
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    if edge_list is None:
        edge_list = _edge_list_of(arrays)
    sources = np.asarray(source_rows, dtype=np.intp)[group_of]
    offsets, rows = rows_from_links(
        edge_list, sources, got.offsets, got.links, got.latency_ms
    )
    reached = np.isfinite(got.latency_ms)
    assert np.array_equal(rows[offsets[1:][reached] - 1], dests[reached])
    assert np.all(got.links >= 0)
    assert np.array_equal(path_links(edge_list, offsets, rows)[1], got.links)
    return gateway


def _edge_list_of(arrays: EdgeArrays) -> SnapshotEdgeList:
    """The links the arrays' entries describe, numbered by ``edge_rows``."""
    heads = np.repeat(np.arange(arrays.node_count), np.diff(arrays.indptr))
    a = np.zeros(arrays.indices.size // 2, dtype=np.intp)
    b = np.zeros_like(a)
    a[arrays.edge_rows], b[arrays.edge_rows] = heads, arrays.indices
    ones = np.ones(a.size)
    return SnapshotEdgeList(arrays.node_index.labels, a, b, ones, ones, ones)


def _exact_sources(tables: GatewayRouteTables, group_of, dest_rows) -> int:
    """How many sources ``tables.paths`` solves exactly for these queries.

    A walk solves its fallback sources in one call, and makes none when
    nothing falls back; it reports the count itself.
    """
    solved: list[int] = []
    solve = RouteTables.solve.__func__

    def recording_solve(cls, arrays, source_rows):
        solved.append(len(source_rows))
        return solve(cls, arrays, source_rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RouteTables, "solve", classmethod(recording_solve))
        paths = tables.paths(np.asarray(group_of), np.asarray(dest_rows))
    assert len(solved) <= 1 and all(solved)
    assert paths.exact_sources == sum(solved)
    return sum(solved)


def _every_pair(source_rows, dest_rows) -> tuple[np.ndarray, np.ndarray]:
    """``(group_of, dest_rows)`` of every (source, destination) query."""
    source_rows = np.asarray(source_rows, dtype=np.intp)
    dest_rows = np.asarray(dest_rows, dtype=np.intp)
    group_of = np.repeat(np.arange(source_rows.size), dest_rows.size)
    return group_of, np.tile(dest_rows, source_rows.size)


def _arrays(labels: tuple, a, b, delay_ms) -> EdgeArrays:
    """The CSR routing view of undirected links ``a[i] - b[i]``."""
    a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
    delay_ms = np.asarray(delay_ms, dtype=float)
    ones = np.ones(a.size)
    return SnapshotEdgeList(labels, a, b, ones, delay_ms, ones).arrays()


def _station_rows(node_index: NodeIndex) -> np.ndarray:
    return np.array(
        [row for row, label in enumerate(node_index.labels) if str(label).startswith("gs:")]
    )


def _spread_cities(count: int, seed: int, per_site: int = 1) -> tuple[City, ...]:
    """Stations over +/-55 degrees latitude, ``per_site`` around each site.

    Sites spread on a golden-angle spiral; the stations of one site lie
    within half a degree of it, so they see (and share) the same
    satellites, as metro areas with several ground stations do.
    """
    rng = np.random.default_rng(seed)
    sites = -(-count // per_site)
    index = np.arange(sites)
    latitudes = np.degrees(
        np.arcsin(np.sin(np.radians(55.0)) * (2.0 * (index + 0.5) / sites - 1.0))
    )
    longitudes = np.degrees(index * np.pi * (3.0 - np.sqrt(5.0))) % 360.0 - 180.0
    site = np.arange(count) % sites
    jitter = rng.uniform(-0.5, 0.5, size=(2, count)) * (per_site > 1)
    weights = rng.uniform(1.0, 20.0, size=count)
    return tuple(
        City(
            f"C{i:03d}",
            float(latitudes[site[i]] + jitter[0, i]),
            float(longitudes[site[i]] + jitter[1, i]),
            float(weights[i]),
        )
        for i in range(count)
    )


def _walker(epoch, satellites: int, planes: int) -> ConstellationTopology:
    walker = WalkerDelta(
        altitude_km=560.0,
        inclination_deg=65.0,
        total_satellites=satellites,
        planes=planes,
        phasing=1,
    )
    elements = walker.satellite_elements()
    per_plane = walker.satellites_per_plane
    return ConstellationTopology(
        planes=[elements[i * per_plane : (i + 1) * per_plane] for i in range(planes)],
        epoch=epoch,
    )


def _stations(cities) -> list[GroundStation]:
    return [GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in cities]


def _tiny_simulator(epoch) -> NetworkSimulator:
    """180 satellites and 40 stations at 5 sites, loaded enough to steer."""
    cities = _spread_cities(40, seed=11, per_site=8)
    return NetworkSimulator(
        topology=_walker(epoch, 180, 9),
        ground_stations=_stations(cities),
        traffic_model=GravityTrafficModel(cities=cities, total_demand=4000.0),
        flows_per_step=300,
    )


class TestHandBuiltGraph:
    """Exact ties, order-sensitive sums and the unreachable corners."""

    # Rows 0-6 are stations and 7-16 satellites.
    LABELS = ("gs:A", "gs:B", "gs:C", "gs:D", "gs:E", "gs:F", "gs:H") + tuple(
        range(7, 17)
    )
    EDGES = (
        # A reaches B through gateway 7 or 8 at exactly equal cost.
        (0, 7, 1.0), (0, 8, 1.0), (7, 9, 2.0), (8, 9, 2.0), (9, 1, 1.0),
        # D's one gateway 10 reaches E over an equal-weight 4-cycle.
        (3, 10, 1.0), (10, 11, 1.0), (10, 12, 1.0), (11, 13, 1.0), (12, 13, 1.0),
        (13, 4, 1.0),
        # A -> F is unique, and its sum depends on the order of addition:
        # (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3).
        (0, 14, 0.1), (14, 15, 0.2), (15, 5, 0.3),
        # H hangs off an island no other station reaches.
        (6, 16, 1.0),
    )
    # C (row 2) has no links at all.
    STATIONS = np.arange(7)

    @pytest.fixture()
    def arrays(self) -> EdgeArrays:
        return _arrays(self.LABELS, *zip(*self.EDGES))

    def test_every_pair_matches(self, arrays):
        # Row -1 is a source absent from the snapshot; destination -1 too.
        rows = np.append(self.STATIONS, -1)
        tables = _assert_same_paths(arrays, rows, rows)
        assert tables.gateway_rows.tolist() == [7, 8, 9, 10, 13, 14, 15, 16]
        # Every source whose paths meet either tie solves exactly: all but
        # C (no links) and H (on its island).
        assert _exact_sources(tables, *_every_pair(rows, rows)) == self.STATIONS.size - 2

    def test_ties_take_the_exact_fallback(self, arrays):
        tables = GatewayRouteTables.solve(arrays, self.STATIONS)
        # A -> F, and the unreachable and absent queries, need no fallback.
        queries = (np.array([0, 0, 2, 2, 0, 6, 0]), np.array([5, 6, 0, 2, -1, 0, 0]))
        assert _exact_sources(tables, *queries) == 0
        # A -> B ties between two gateways (certificate (a)); D -> E ties
        # inside gateway 10's search (certificate (b)).
        for source, dest in ((0, 1), (3, 4)):
            assert _exact_sources(tables, [source], [dest]) == 1
            got = tables.paths(np.array([source]), np.array([dest]))
            want = RouteTables.solve(arrays, [source]).paths(np.array([0]), np.array([dest]))
            assert np.array_equal(got.offsets, want.offsets)
            assert np.array_equal(got.links, want.links)
            assert np.array_equal(got.latency_ms, want.latency_ms)

    def test_latency_is_the_in_order_hop_sum(self, arrays):
        tables = GatewayRouteTables.solve(arrays, self.STATIONS)
        offsets, links, latency, _ = tables.paths(np.array([0]), np.array([5]))
        # EDGES rows 11-13: A-14, 14-15, 15-F.
        assert offsets.tolist() == [0, 3]
        assert links.tolist() == [11, 12, 13]
        _, rows = rows_from_links(_edge_list_of(arrays), [0], offsets, links, latency)
        assert rows.tolist() == [0, 14, 15, 5]
        assert latency[0] == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
        assert _exact_sources(tables, [0], [5]) == 0

    @pytest.mark.parametrize("kind", [RouteTables, GatewayRouteTables])
    def test_zero_hop_and_unreachable_segments_are_empty(self, arrays, kind):
        """A zero-hop query reads latency 0 and is reachable; an
        unreachable one reads ``inf``.  Both have empty segments between
        walked ones."""
        tables = kind.solve(arrays, self.STATIONS)
        # A -> F, A -> A (zero hops), A -> H (H's island), C -> C (C has no
        # links, still zero hops), A -> F.
        paths = tables.paths(np.array([0, 0, 0, 2, 0]), np.array([5, 0, 6, 2, 5]))
        assert np.diff(paths.offsets).tolist() == [3, 0, 0, 0, 3]
        assert paths.links.tolist() == [11, 12, 13, 11, 12, 13]
        assert paths.latency_ms[[1, 3]].tolist() == [0.0, 0.0]
        assert np.isfinite(paths.latency_ms[[0, 1, 3, 4]]).all()
        assert np.isinf(paths.latency_ms[2])

    def test_fallback_segments_are_spliced_between_walked_ones(self, arrays):
        """A -> B ties and is solved exactly; the certified A -> F walks
        around it keep their places in the hop buffer."""
        tables = GatewayRouteTables.solve(arrays, self.STATIONS)
        dests = np.array([5, 1, 5, 1])
        got = tables.paths(np.zeros(4, dtype=np.intp), dests)
        assert got.exact_sources == 1
        want = RouteTables.solve(arrays, [0]).paths(np.zeros(4, dtype=np.intp), dests)
        assert np.diff(got.offsets).tolist() == [3, 3, 3, 3]
        assert got.links[:3].tolist() == got.links[6:9].tolist() == [11, 12, 13]
        # EDGES rows 0-4: A-7, A-8, 7-9, 8-9, 9-B; either tied gateway.
        assert got.links[3:6].tolist() in ([0, 2, 4], [1, 3, 4])
        assert np.array_equal(got.links[3:6], got.links[9:])
        for name in ("offsets", "links", "latency_ms"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_sources_without_links_match(self, arrays):
        # C has no gateway and absent sources have none, so nothing is
        # searched and only the zero-hop query reaches anything.
        tables = _assert_same_paths(arrays, [2, -1], self.STATIONS)
        assert tables.gateway_rows.size == 0


@pytest.mark.parametrize("weights", ["integer", "uniform", "tenths"])
def test_random_graphs_match(weights):
    """Random cores with stations hung off shared gateways, some linked to
    each other; integer and rounded weights make exact ties common."""
    rng = np.random.default_rng(["integer", "uniform", "tenths"].index(weights))
    searched = 0
    for _ in range(40):
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
        }[weights]()
        labels = tuple(range(satellites)) + tuple(f"gs:{i}" for i in range(stations))
        arrays = _arrays(labels, a, b, w)
        sources = np.arange(satellites, n)
        sources[rng.random(stations) < 0.1] = -1
        tables = _assert_same_paths(arrays, sources, np.arange(n))
        searched += tables.gateway_rows.size > 0
    assert searched > 20


class TestFullSizeSnapshots:
    """A 360-satellite shell with 335 stations, every station pair."""

    def _snapshots(self, epoch, per_site: int):
        stations = _stations(_spread_cities(335, seed=3, per_site=per_site))
        epochs = epoch_range(epoch, 14 * 3600.0, 7 * 3600.0)
        sequence = _walker(epoch, 360, 18).snapshot_sequence(epochs, stations)
        return [sequence.edge_list(step) for step in range(len(epochs))]

    def test_two_snapshots_match(self, epoch):
        snapshots = self._snapshots(epoch, per_site=8)
        assert len(snapshots) == 2
        for edge_list in snapshots:
            rows = _station_rows(edge_list.node_index)
            tables = _assert_same_paths(edge_list.arrays(), rows, rows, edge_list)
            # Stations at one site share gateways.
            assert 0 < tables.gateway_rows.size < rows.size // 2
            assert 0 < _exact_sources(tables, *_every_pair(rows, rows)) < rows.size

    def test_unshared_gateways_match(self, epoch):
        edge_list = self._snapshots(epoch, per_site=1)[0]
        rows = _station_rows(edge_list.node_index)
        tables = _assert_same_paths(edge_list.arrays(), rows, rows, edge_list)
        # Stations spread one per site share few gateways.
        assert tables.gateway_rows.size > rows.size // 2


class TestSweepSnapshots:
    """Every table a faulted, steered sweep solves matches on every pair."""

    def test_every_solve_of_the_sweep_matches(self, epoch, monkeypatch):
        solves: list[tuple[EdgeArrays, np.ndarray]] = []
        solve = GatewayRouteTables.solve.__func__

        def recording_solve(cls, arrays, source_rows):
            solves.append((arrays, np.array(source_rows)))
            return solve(cls, arrays, source_rows)

        monkeypatch.setattr(GatewayRouteTables, "solve", classmethod(recording_solve))
        faults = (
            FaultSpec("plane_outage", {"count": 1, "seed": 5}),
            FaultSpec("link_degradation", {"factor": 0.0, "fraction": 0.1, "seed": 6}),
        )
        policies = ("static", "congestion-aware", "utilisation-weighted", "load-spreading")
        # Minute steps keep loaded links in view, so steering engages.
        steps, minute = 4, 1.0 / 60.0
        _tiny_simulator(epoch).run_scenarios(
            [Scenario(name=policy, faults=faults, steering=policy) for policy in policies],
            epoch,
            steps * minute,
            step_hours=minute,
        )
        monkeypatch.undo()
        # One base solve per step, plus the steered scenarios' re-solves.
        assert len(solves) > steps
        assert any(np.any(rows < 0) for _, rows in solves)
        for arrays, source_rows in solves:
            rows = _station_rows(arrays.node_index)
            _assert_same_paths(arrays, source_rows, rows)
            _assert_same_paths(arrays, rows, rows)


def test_routing_counters(epoch, monkeypatch):
    """A sole scenario is credited its plan's walk on every step's base
    tables: the plan's sources, the gateways those tables searched, and at
    most that many sources solved exactly."""
    solved: list[GatewayRouteTables] = []
    solve = GatewayRouteTables.solve.__func__

    def recording_solve(cls, arrays, source_rows):
        solved.append(solve(cls, arrays, source_rows))
        return solved[-1]

    monkeypatch.setattr(GatewayRouteTables, "solve", classmethod(recording_solve))
    result = _tiny_simulator(epoch).run_scenarios(
        [Scenario(name="solo")], epoch, duration_hours=3.0, instrument=True
    )["solo"]
    counters = result.metrics.counters
    assert len(solved) == len(result.steps)
    assert counters["route_gateways"] == sum(tables.gateway_rows.size for tables in solved)
    assert 0 < counters["route_gateways"] < counters["route_sources"]
    assert 0 <= counters["route_fallbacks"] <= counters["route_sources"]
    assert counters["flows_rerouted"] == 0
