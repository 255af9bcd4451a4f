"""Tests of sharded multi-shell topologies."""

from __future__ import annotations

import numpy as np
import pytest

from flow_oracles import graph_stream, snapshot_graph
from repro.coverage.walker import WalkerDelta
from repro.demand.traffic_matrix import City, GravityTrafficModel
from repro.network.ground_station import GroundStation
from repro.network.simulation import NetworkSimulator, Scenario
from repro.network.topology import ConstellationTopology, MultiShellTopology
from repro.orbits.time import epoch_range


def _walker_shell(epoch, altitude_km: float, total: int, planes: int) -> ConstellationTopology:
    wd = WalkerDelta(
        altitude_km=altitude_km,
        inclination_deg=65.0,
        total_satellites=total,
        planes=planes,
        phasing=1,
    )
    elements = wd.satellite_elements()
    per_plane = wd.satellites_per_plane
    return ConstellationTopology(
        planes=[elements[i * per_plane : (i + 1) * per_plane] for i in range(wd.planes)],
        epoch=epoch,
    )


@pytest.fixture(scope="module")
def shells(epoch) -> list[ConstellationTopology]:
    return [
        _walker_shell(epoch, 550.0, 60, 5),
        _walker_shell(epoch, 1100.0, 40, 4),
    ]


@pytest.fixture(scope="module")
def multi(shells) -> MultiShellTopology:
    return MultiShellTopology(shells=shells)


class TestMultiShellStructure:
    def test_validation(self):
        with pytest.raises(ValueError):
            MultiShellTopology(shells=[])

    def test_counts_and_global_ids(self, multi, shells):
        assert multi.shell_count == 2
        assert multi.satellite_count == 100
        node_ids = [node.node_id for node in multi.nodes]
        assert node_ids == list(range(100))

    def test_positions_concatenate_per_shard(self, multi, shells, epoch):
        epochs = epoch_range(epoch, 1200.0, 600.0)
        positions = multi.positions_ecef_over(epochs)
        assert positions.shape == (2, 100, 3)
        first = shells[0].positions_ecef_over(epochs)
        second = shells[1].positions_ecef_over(epochs)
        assert np.array_equal(positions[:, :60, :], first)
        assert np.array_equal(positions[:, 60:, :], second)

    def test_single_shell_composition_matches_the_shell(self, shells, epoch):
        alone = MultiShellTopology(shells=[shells[0]])
        graph = snapshot_graph(alone)
        reference = snapshot_graph(shells[0])
        assert set(graph.nodes) == set(reference.nodes)
        assert set(map(frozenset, graph.edges)) == set(map(frozenset, reference.edges))
        for a, b, data in reference.edges(data=True):
            assert graph.edges[a, b] == data
        assert all(graph.nodes[n]["shell"] == 0 for n in graph.nodes)


class TestMultiShellGraphs:
    def test_snapshot_contains_both_shells_and_inter_shell_links(self, multi):
        graph = snapshot_graph(multi)
        shells_present = {graph.nodes[n]["shell"] for n in graph.nodes}
        assert shells_present == {0, 1}
        inter = [
            (a, b)
            for a, b in graph.edges
            if graph.nodes[a]["shell"] != graph.nodes[b]["shell"]
        ]
        assert inter, "expected nearest-feasible-neighbour links between shells"
        for a, b in inter:
            assert graph.edges[a, b]["distance_km"] <= multi.isl_config.max_range_km

    def test_sequence_equivalence(self, multi, epoch):
        stations = [GroundStation("London", 51.5, -0.1), GroundStation("Tokyo", 35.7, 139.7)]
        epochs = epoch_range(epoch, 3600.0, 900.0)
        sequence = multi.snapshot_sequence(epochs, stations)
        for at, graph in zip(epochs, graph_stream(sequence)):
            reference = snapshot_graph(multi, at, stations)
            assert set(graph.nodes) == set(reference.nodes)
            assert set(map(frozenset, graph.edges)) == set(map(frozenset, reference.edges))

    @pytest.mark.parametrize("k", [0, -1, 2.5, 2.0, True, "2", None])
    def test_validation_of_inter_shell_k(self, shells, k):
        # Before, 2.5 and True constructed and then failed with a TypeError
        # inside snapshot_sequence.
        with pytest.raises(ValueError, match="inter_shell_k"):
            MultiShellTopology(shells=shells, inter_shell_k=k)

    def test_numpy_integer_k_is_accepted(self, shells):
        topology = MultiShellTopology(shells=shells, inter_shell_k=np.int64(2))
        assert topology.inter_shell_k == 2 and type(topology.inter_shell_k) is int

    def test_k_nearest_with_k1_matches_default_nearest(self, shells, multi):
        """Regression: the default stitching is one nearest link per
        satellite per direction, exactly ``inter_shell_k=1``."""
        k1 = MultiShellTopology(shells=shells, inter_shell_k=1)
        graph = snapshot_graph(k1)
        reference = snapshot_graph(multi)
        assert set(graph.nodes) == set(reference.nodes)
        assert set(map(frozenset, graph.edges)) == set(map(frozenset, reference.edges))
        for a, b, data in reference.edges(data=True):
            assert graph.edges[a, b] == data

    def test_k_nearest_adds_redundant_inter_shell_links(self, shells, multi):
        k2 = MultiShellTopology(shells=shells, inter_shell_k=2)
        graph = snapshot_graph(k2)
        reference = snapshot_graph(multi)

        def split(g):
            inter, intra = set(), set()
            for a, b in g.edges:
                target = inter if g.nodes[a]["shell"] != g.nodes[b]["shell"] else intra
                target.add(frozenset((a, b)))
            return inter, intra

        inter_k2, intra_k2 = split(graph)
        inter_k1, intra_k1 = split(reference)
        assert intra_k2 == intra_k1, "intra-shell +Grid must be unaffected"
        assert inter_k1 <= inter_k2, "k-nearest must keep every nearest link"
        assert len(inter_k2) > len(inter_k1), "k=2 must add redundant links"
        for key in inter_k2:
            a, b = tuple(key)
            assert graph.edges[a, b]["distance_km"] <= k2.isl_config.max_range_km

    def test_k_nearest_links_are_the_nearest_feasible_neighbours(self, shells):
        from repro.network.isl import isl_feasible

        k2 = MultiShellTopology(shells=shells, inter_shell_k=2)
        graph = snapshot_graph(k2)
        positions = k2.positions_ecef_km()
        lower_count = shells[0].satellite_count
        upper = positions[lower_count:]
        for sat in range(lower_count):
            distances = np.linalg.norm(upper - positions[sat], axis=1)
            for local in np.argsort(distances)[:2]:
                neighbour = lower_count + int(local)
                if isl_feasible(
                    positions[sat], positions[neighbour], k2.isl_config
                ):
                    assert graph.has_edge(sat, neighbour), (
                        f"satellite {sat} is missing a link to near neighbour "
                        f"{neighbour} of the upper shell"
                    )

    def test_simulates_through_the_same_engine(self, multi, epoch):
        cities = (
            City("London", 51.5, -0.1, 9.6),
            City("New York", 40.7, -74.0, 20.0),
            City("Tokyo", 35.7, 139.7, 37.0),
        )
        simulator = NetworkSimulator(
            topology=multi,
            ground_stations=[
                GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in cities
            ],
            traffic_model=GravityTrafficModel(cities=cities, total_demand=30.0),
            flows_per_step=6,
        )
        sweep = simulator.run_scenarios(
            [Scenario(name="base"), Scenario(name="heavy", demand_multiplier=2.0)],
            epoch,
            duration_hours=2.0,
        )
        assert len(sweep["base"].steps) == 2
        assert sweep["base"].mean_delivery_ratio() > 0.0
        reference = simulator.run(epoch, duration_hours=2.0)
        assert sweep["base"].steps == reference.steps
