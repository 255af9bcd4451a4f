"""Tests of csgraph routing against a networkx oracle and the CSR snapshot exports."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from flow_oracles import (
    edge_list_from_graph,
    graph_from_edge_list,
    graph_stream,
    networkx_routes_from,
)
from repro.coverage.walker import WalkerDelta
from repro.network.backends import EdgeArrays, NodeIndex, SnapshotEdgeList
from repro.network.ground_station import GroundStation
from repro.network.routing import RouteResult, SnapshotRouter, TimeAwareRouter
from repro.network.topology import ConstellationTopology
from repro.orbits.time import Epoch, epoch_range


def _walker(epoch, satellites, planes, altitude_km=560.0, inclination_deg=65.0):
    wd = WalkerDelta(
        altitude_km=altitude_km,
        inclination_deg=inclination_deg,
        total_satellites=satellites,
        planes=planes,
        phasing=1,
    )
    elements = wd.satellite_elements()
    per_plane = wd.satellites_per_plane
    return ConstellationTopology(
        planes=[elements[i * per_plane : (i + 1) * per_plane] for i in range(wd.planes)],
        epoch=epoch,
    )


def _assert_tables_equivalent(reference, candidate, graph):
    """Two routing tables must agree on reachability and optimal latency.

    Shortest paths need not be unique (a symmetric intra-plane ring ties
    exactly), so instead of demanding identical node sequences the candidate
    path must be *valid* (every hop is a graph edge) and *optimal* (its
    summed delay equals the reference latency).
    """
    assert set(reference) == set(candidate)
    for destination in reference:
        expected = reference[destination]
        actual = candidate[destination]
        assert actual.reachable == expected.reachable
        assert actual.latency_ms == pytest.approx(expected.latency_ms, abs=1e-9)
        assert actual.hop_count == len(actual.path) - 1
        assert actual.path[0] == expected.path[0]
        assert actual.path[-1] == destination
        walked = 0.0
        for a, b in zip(actual.path, actual.path[1:]):
            assert graph.has_edge(a, b), (a, b)
            walked += graph.edges[a, b]["delay_ms"]
        assert walked == pytest.approx(expected.latency_ms, abs=1e-9)


class TestBackendEquivalenceOnRandomSnapshots:
    """Property-style check: csgraph routing reproduces the networkx oracle's
    routing tables across randomised constellations, epochs and station
    sets -- including isolated stations (unreachable pairs)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_tables_match_across_random_snapshots(self, seed):
        rng = np.random.default_rng(seed)
        epoch = Epoch.from_calendar(2025, 3, 20, 12, 0, 0.0).add_seconds(
            float(rng.uniform(0.0, 86400.0))
        )
        planes = int(rng.integers(4, 9))
        satellites = planes * int(rng.integers(8, 16))
        topology = _walker(
            epoch,
            satellites,
            planes,
            altitude_km=float(rng.uniform(500.0, 1200.0)),
            inclination_deg=float(rng.uniform(40.0, 90.0)),
        )
        stations = [
            GroundStation("A", float(rng.uniform(-60, 60)), float(rng.uniform(-180, 180))),
            GroundStation("B", float(rng.uniform(-60, 60)), float(rng.uniform(-180, 180))),
            # A near-vertical elevation mask keeps this station isolated in
            # most snapshots: the unreachable-pair half of the property.
            GroundStation(
                "isolated",
                float(rng.uniform(-60, 60)),
                float(rng.uniform(-180, 180)),
                min_elevation_deg=89.9,
            ),
        ]
        epochs = epoch_range(epoch, 1800.0, 900.0)
        sequence = topology.snapshot_sequence(epochs, stations)
        sources = ["gs:A", "gs:B", "gs:isolated", 0, satellites // 2]
        saw_unreachable_station = False
        for step, graph in enumerate(graph_stream(sequence)):
            candidate = SnapshotRouter(sequence.edge_arrays(step))
            cs_tables = candidate.routes_from_many(sources)
            for source in sources:
                nx_table = networkx_routes_from(graph, source)
                _assert_tables_equivalent(nx_table, cs_tables[source], graph)
            if "gs:A" not in cs_tables["gs:isolated"]:
                saw_unreachable_station = True
                unreachable = candidate.route("gs:isolated", "gs:A")
                assert unreachable == RouteResult.unreachable()
        assert saw_unreachable_station

    def test_station_pair_routes_match(self, epoch):
        topology = _walker(epoch, 120, 8)
        stations = [
            GroundStation("London", 51.5, -0.1),
            GroundStation("Tokyo", 35.7, 139.7),
        ]
        epochs = epoch_range(epoch, 3600.0, 1200.0)
        sequence = topology.snapshot_sequence(epochs, stations)
        for step, graph in enumerate(graph_stream(sequence)):
            reference = networkx_routes_from(graph, "gs:London").get(
                "gs:Tokyo", RouteResult.unreachable()
            )
            candidate = SnapshotRouter(
                sequence.edge_arrays(step)
            ).route_between_stations(*stations)
            assert candidate.reachable == reference.reachable
            if reference.reachable:
                assert candidate.latency_ms == pytest.approx(
                    reference.latency_ms, abs=1e-9
                )
                assert candidate.path[0] == reference.path[0]
                assert candidate.path[-1] == reference.path[-1]
                assert all(
                    graph.has_edge(a, b)
                    for a, b in zip(candidate.path, candidate.path[1:])
                )


class TestBackendEquivalenceOnHandBuiltGraphs:
    """Edge cases the orbital fixtures cannot force deterministically."""

    def _line_graph(self):
        graph = nx.Graph()
        graph.add_nodes_from(["gs:src", 0, 1, 2, "gs:dst", "gs:island"])
        graph.add_edge("gs:src", 0, delay_ms=1.0, capacity_gbps=10.0)
        graph.add_edge(0, 1, delay_ms=2.0, capacity_gbps=10.0)
        graph.add_edge(1, 2, delay_ms=3.0, capacity_gbps=10.0)
        graph.add_edge(2, "gs:dst", delay_ms=4.0, capacity_gbps=10.0)
        return graph

    @staticmethod
    def _router(graph):
        """A router over the CSR arrays of a hand-built graph."""
        return SnapshotRouter(edge_list_from_graph(graph).arrays())

    def test_line_graph_routing(self):
        router = self._router(self._line_graph())
        result = router.route("gs:src", "gs:dst")
        assert result.reachable
        assert result.path == ("gs:src", 0, 1, 2, "gs:dst")
        assert result.latency_ms == pytest.approx(10.0)
        assert result.hop_count == 4

    def test_disconnected_and_unknown_nodes(self):
        router = self._router(self._line_graph())
        assert router.route("gs:src", "gs:island") == RouteResult.unreachable()
        assert router.route("gs:nowhere", "gs:dst") == RouteResult.unreachable()
        assert router.routes_from("gs:nowhere") == {}
        table = router.routes_from("gs:island")
        assert set(table) == {"gs:island"}
        assert table["gs:island"].latency_ms == 0.0
        assert table["gs:island"].path == ("gs:island",)

    def test_zero_weight_and_zero_capacity_edges_are_still_links(self):
        """Degenerate links (zero delay, zero capacity) must stay routable:
        capacity never affects path selection, and an explicit zero weight is
        an edge, not a hole in the sparse matrix."""
        graph = nx.Graph()
        graph.add_edge("gs:src", 0, delay_ms=0.0, capacity_gbps=0.0)
        graph.add_edge(0, "gs:dst", delay_ms=5.0, capacity_gbps=10.0)
        router = self._router(graph)
        result = router.route("gs:src", "gs:dst")
        assert result.reachable
        assert result.path == ("gs:src", 0, "gs:dst")
        assert result.latency_ms == pytest.approx(5.0)

    def test_lazy_table_matches_dict_semantics(self):
        graph = self._line_graph()
        nx_table = networkx_routes_from(graph, "gs:src")
        cs_table = self._router(graph).routes_from("gs:src")
        assert len(cs_table) == len(nx_table)
        assert set(cs_table) == set(nx_table)
        assert cs_table.get("gs:island") is None
        with pytest.raises(KeyError):
            cs_table["gs:island"]
        _assert_tables_equivalent(nx_table, cs_table, graph)

    @pytest.mark.parametrize(
        "attributes",
        [{}, {"delay_ms": float("nan")}, {"delay_ms": -1.0}],
        ids=["missing", "nan", "negative"],
    )
    def test_bad_edge_weights_rejected_naming_the_edge(self, attributes):
        """A hand-built graph is one outside input to the csgraph search: a
        missing (read as NaN) weight would read as "unreachable" and a
        negative one never returns, so the router rejects all three up
        front."""
        graph = self._line_graph()
        del graph.edges[1, 2]["delay_ms"]
        graph.edges[1, 2].update(attributes)
        with pytest.raises(ValueError, match=r"edge \(1, 2\) has delay_ms="):
            self._router(graph)

    @pytest.mark.parametrize(
        "weight", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "negative"]
    )
    def test_bad_array_weights_rejected_at_construction(self, weight):
        """Arrays handed straight to the router are checked too: a NaN
        weight would silently report the destination unreachable and a
        negative one would make ``route`` spin forever."""
        edge_list = SnapshotEdgeList(
            labels=("gs:src", 0, 1, "gs:dst"),
            a=np.array([0, 1, 2], dtype=np.intp),
            b=np.array([1, 2, 3], dtype=np.intp),
            distance_km=np.ones(3),
            delay_ms=np.array([1.0, weight, 1.0]),
            capacity_gbps=np.ones(3),
        )
        with pytest.raises(
            ValueError, match=rf"edge \(0, 1\) has delay_ms={weight!r}; every edge"
        ):
            SnapshotRouter(arrays=edge_list.arrays())


class TestEdgeArrays:
    def test_csr_export_matches_graph(self, epoch):
        topology = _walker(epoch, 60, 5)
        stations = [GroundStation("London", 51.5, -0.1)]
        sequence = topology.snapshot_sequence([epoch], stations)
        graph = next(graph_stream(sequence))
        arrays = sequence.edge_arrays(0)
        assert isinstance(arrays, EdgeArrays)
        indptr, indices, weights, node_index, edge_rows = arrays  # tuple protocol
        assert isinstance(node_index, NodeIndex)
        assert len(indptr) == arrays.node_count + 1
        assert indptr[0] == 0 and indptr[-1] == len(indices) == len(weights)
        # Every entry maps back to the edge-list row of its own link.
        edge_list = sequence.edge_list(0)
        heads = np.repeat(np.arange(arrays.node_count), np.diff(indptr))
        assert np.array_equal(edge_rows, edge_list.link_rows(heads, indices))
        assert np.array_equal(weights, edge_list.delay_ms[edge_rows])
        assert set(node_index.labels) == set(graph.nodes)
        adjacency = {
            (node_index.label_of(row), node_index.label_of(int(indices[pos]))): float(
                weights[pos]
            )
            for row in range(arrays.node_count)
            for pos in range(int(indptr[row]), int(indptr[row + 1]))
        }
        # Symmetric: both directions of every graph edge, nothing else.
        assert len(adjacency) == 2 * graph.number_of_edges()
        for a, b, data in graph.edges(data=True):
            assert adjacency[(a, b)] == pytest.approx(data["delay_ms"])
            assert adjacency[(b, a)] == pytest.approx(data["delay_ms"])

    def test_edge_list_is_picklable_and_round_trips(self, epoch):
        import pickle

        topology = _walker(epoch, 60, 5)
        stations = [GroundStation("London", 51.5, -0.1)]
        sequence = topology.snapshot_sequence([epoch], stations)
        edge_list = sequence.edge_list(0)
        clone = pickle.loads(pickle.dumps(edge_list))
        assert clone.labels == edge_list.labels
        assert np.array_equal(clone.a, edge_list.a)
        assert np.array_equal(clone.delay_ms, edge_list.delay_ms)
        graph = next(graph_stream(sequence))
        rebuilt = graph_from_edge_list(clone)
        assert set(rebuilt.nodes) == set(graph.nodes)
        assert set(map(frozenset, rebuilt.edges)) == set(map(frozenset, graph.edges))
        for a, b, data in graph.edges(data=True):
            assert rebuilt.edges[a, b] == data

    def test_graph_export_matches_graph(self):
        graph = nx.Graph()
        graph.add_nodes_from(["gs:x", 0, 1, 9])
        graph.add_edge("gs:x", 0, delay_ms=1.5)
        graph.add_edge(0, 1, delay_ms=2.5)
        arrays = edge_list_from_graph(graph).arrays()
        assert arrays.node_index.labels == ("gs:x", 0, 1, 9)
        row = arrays.node_index.index_of
        neighbours = {
            label: {
                arrays.node_index.label_of(int(arrays.indices[position])): float(
                    arrays.weights[position]
                )
                for position in range(
                    int(arrays.indptr[row(label)]), int(arrays.indptr[row(label) + 1])
                )
            }
            for label in graph.nodes
        }
        assert neighbours == {
            label: {other: data["delay_ms"] for other, data in graph[label].items()}
            for label in graph.nodes
        }
        assert neighbours[9] == {}

    def test_router_requires_some_snapshot_view(self):
        with pytest.raises(TypeError, match="arrays"):
            SnapshotRouter()


class TestTimeAwareRouterBackends:
    def test_route_over_time_matches_across_backends(self, epoch):
        topology = _walker(epoch, 80, 5)
        stations = [
            GroundStation("London", 51.5, -0.1),
            GroundStation("New York", 40.7, -74.0),
        ]
        router = TimeAwareRouter(
            topology=topology, ground_stations=stations, step_s=600.0
        )
        results = router.route_over_time(
            stations[0], stations[1], epoch, duration_s=3000.0
        )
        epochs = epoch_range(epoch, 3000.0, 600.0)
        graphs = graph_stream(topology.snapshot_sequence(epochs, stations))
        assert len(results) == len(epochs)
        for (epoch_a, cs_result), epoch_b, graph in zip(results, epochs, graphs):
            nx_result = networkx_routes_from(graph, "gs:London").get(
                "gs:New York", RouteResult.unreachable()
            )
            assert epoch_a == epoch_b
            assert cs_result.reachable == nx_result.reachable
            if nx_result.reachable:
                assert cs_result.latency_ms == pytest.approx(
                    nx_result.latency_ms, abs=1e-9
                )
                assert cs_result.path[0] == nx_result.path[0]
                assert cs_result.path[-1] == nx_result.path[-1]
