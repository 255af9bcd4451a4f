"""Tests of the cached snapshot-sequence engine."""

from __future__ import annotations

import math

import numpy as np
import pytest

from flow_oracles import graph_stream, snapshot_graph
from repro.coverage.walker import WalkerDelta
from repro.network.ground_station import GroundStation
from repro.network.isl import isl_feasible
from repro.network.topology import ConstellationTopology, SnapshotSequence
from repro.orbits.elements import OrbitalElements
from repro.orbits.time import epoch_range


@pytest.fixture(scope="module")
def walker_topology(epoch) -> ConstellationTopology:
    wd = WalkerDelta(
        altitude_km=560.0, inclination_deg=65.0, total_satellites=120, planes=8, phasing=1
    )
    elements = wd.satellite_elements()
    per_plane = wd.satellites_per_plane
    planes = [elements[i * per_plane : (i + 1) * per_plane] for i in range(wd.planes)]
    return ConstellationTopology(planes=planes, epoch=epoch)


@pytest.fixture(scope="module")
def stations() -> list[GroundStation]:
    return [
        GroundStation("London", 51.5, -0.1),
        GroundStation("New York", 40.7, -74.0),
        GroundStation("Tokyo", 35.7, 139.7),
    ]


def _edge_list(topology, stations=None, at=None):
    """The topology's links at one epoch (default: its reference epoch)."""
    return topology.snapshot_sequence([at or topology.epoch], stations).edge_list(0)


def _has_link(edges, a, b) -> bool:
    return bool(edges.link_rows([a], [b])[0] >= 0)


def _assert_graphs_identical(graph, reference):
    assert set(graph.nodes) == set(reference.nodes)
    assert set(map(frozenset, graph.edges)) == set(map(frozenset, reference.edges))
    for a, b, data in reference.edges(data=True):
        assert graph.edges[a, b] == data


class TestSnapshotSequenceEquivalence:
    def test_incremental_graphs_match_fresh_builds_over_multiple_orbits(
        self, walker_topology, stations, epoch
    ):
        # ~1.6 orbits at 4-minute steps: link sets churn many times, so the
        # oracle stream's incremental diff is exercised through adds,
        # removals and attribute refreshes.
        epochs = epoch_range(epoch, 2.0 * 5760.0, 240.0)
        sequence = walker_topology.snapshot_sequence(epochs, stations)
        for at, graph in zip(epochs, graph_stream(sequence)):
            _assert_graphs_identical(graph, snapshot_graph(walker_topology, at, stations))

    def test_edge_sets_actually_change_between_steps(
        self, walker_topology, stations, epoch
    ):
        epochs = epoch_range(epoch, 2.0 * 5760.0, 240.0)
        edge_sets = [
            frozenset(edges.link_codes.tolist())
            for edges in walker_topology.snapshot_sequence(epochs, stations).edge_lists()
        ]
        assert len(set(edge_sets)) > 1


class TestSnapshotSequenceSemantics:
    def test_station_subset_streams(self, walker_topology, stations, epoch):
        epochs = epoch_range(epoch, 1200.0, 600.0)
        sequence = walker_topology.snapshot_sequence(epochs, stations)
        subset = ["London", "Tokyo"]
        for step, at in enumerate(epochs):
            edges = sequence.edge_list(step, subset)
            reference = _edge_list(
                walker_topology, [s for s in stations if s.name in subset], at
            )
            assert edges.labels == reference.labels
            assert set(edges.link_codes.tolist()) == set(reference.link_codes.tolist())
        with pytest.raises(ValueError):
            sequence.edge_list(0, ["Atlantis"])

    def test_validation(self, walker_topology, stations):
        with pytest.raises(ValueError):
            SnapshotSequence(walker_topology, [])
        with pytest.raises(ValueError):
            SnapshotSequence(
                walker_topology,
                [walker_topology.epoch],
                [GroundStation("X", 0.0, 0.0), GroundStation("X", 1.0, 1.0)],
            )

    def test_len_and_accessors(self, walker_topology, stations, epoch):
        epochs = epoch_range(epoch, 1800.0, 600.0)
        sequence = walker_topology.snapshot_sequence(epochs, stations)
        assert len(sequence) == 3
        assert sequence.topology is walker_topology
        assert sequence.epochs == epochs
        assert [s.name for s in sequence.ground_stations] == [s.name for s in stations]
        assert len(sequence.edge_lists()) == 3

    def test_derived_views_route_through_edge_list(
        self, walker_topology, stations, epoch
    ):
        epochs = epoch_range(epoch, 1200.0, 600.0)
        sequence = walker_topology.snapshot_sequence(epochs, stations)
        subset = ["Tokyo", "London"]
        listed = sequence.edge_lists(subset)
        assert len(listed) == len(epochs)
        for step, edges in enumerate(listed):
            reference = sequence.edge_list(step, subset)
            assert edges.labels == reference.labels
            assert np.array_equal(edges.link_codes, reference.link_codes)
            assert np.array_equal(edges.capacity_gbps, reference.capacity_gbps)
            arrays = sequence.edge_arrays(step, subset)
            expected = reference.arrays()
            assert arrays.node_index.labels == expected.node_index.labels
            assert np.array_equal(arrays.indptr, expected.indptr)
            assert np.array_equal(arrays.indices, expected.indices)
            assert np.array_equal(arrays.weights, expected.weights)

    def test_node_labels_follow_sequence_order(self, walker_topology, stations):
        sequence = walker_topology.snapshot_sequence([walker_topology.epoch], stations)
        satellites = tuple(range(walker_topology.satellite_count))
        # Selection order does not matter: stations keep the sequence's order.
        assert sequence.node_labels(["Tokyo", "London"]) == satellites + (
            "gs:London",
            "gs:Tokyo",
        )
        assert sequence.node_labels() == satellites + tuple(
            f"gs:{station.name}" for station in stations
        )
        assert sequence.node_labels([]) == satellites

    def test_links_are_canonical_and_unique(self, walker_topology, stations, epoch):
        epochs = epoch_range(epoch, 2.0 * 5760.0, 960.0)
        for edges in walker_topology.snapshot_sequence(epochs, stations).edge_lists():
            assert edges.a.size > 0
            # Each undirected link appears once, lower endpoint first.
            assert np.all(edges.a < edges.b)
            assert np.unique(edges.link_codes).size == edges.a.size


def _circular_plane(raan_deg: float, anomalies_deg: list[float]) -> list[OrbitalElements]:
    return [
        OrbitalElements(
            semi_major_axis_km=6378.137 + 800.0,
            inclination_rad=math.radians(60.0),
            raan_rad=math.radians(raan_deg),
            true_anomaly_rad=math.radians(anomaly),
        )
        for anomaly in anomalies_deg
    ]


class TestNearestScanTieBreaking:
    """Exact-tie determinism of the (k-)nearest candidate scans.

    Two candidates at bit-identical distance must resolve to the lower
    index, for the default nearest policy (regression: the k-ary rewrite
    must not change PR 2's argmin behaviour) and inside k-nearest picks.
    """

    def _tied_positions(self):
        # Satellite 0 scans candidates 1-3; candidates 1 and 2 are exactly
        # 100 km away on opposite sides, candidate 3 is farther.
        return np.array(
            [
                [
                    [7000.0, 0.0, 0.0],
                    [7000.0, 100.0, 0.0],
                    [7000.0, -100.0, 0.0],
                    [7000.0, 250.0, 0.0],
                ]
            ]
        )

    def test_nearest_resolves_ties_to_lower_index(self):
        from repro.network.isl import ISLConfig
        from repro.network.topology import _NearestScan, _nearest_scan_arrays

        scan = _NearestScan(
            a_indices=np.array([0], dtype=np.intp),
            b_indices=np.array([1, 2, 3], dtype=np.intp),
            config=ISLConfig(),
        )
        a_ids, b_nearest, distances, feasible = _nearest_scan_arrays(
            self._tied_positions(), scan
        )
        assert list(a_ids) == [0]
        assert b_nearest[0, 0] == 1
        assert distances[0, 0] == pytest.approx(100.0)
        assert feasible[0, 0]

    def test_k_nearest_orders_ties_by_index(self):
        from repro.network.isl import ISLConfig
        from repro.network.topology import _NearestScan, _nearest_scan_arrays

        scan = _NearestScan(
            a_indices=np.array([0], dtype=np.intp),
            b_indices=np.array([1, 2, 3], dtype=np.intp),
            config=ISLConfig(),
            k=2,
        )
        a_ids, b_nearest, distances, feasible = _nearest_scan_arrays(
            self._tied_positions(), scan
        )
        assert list(a_ids) == [0, 0]
        assert list(b_nearest[0]) == [1, 2]
        assert list(distances[0]) == pytest.approx([100.0, 100.0])

    def test_k_clamps_to_candidate_count(self):
        from repro.network.isl import ISLConfig
        from repro.network.topology import _NearestScan, _nearest_scan_arrays

        scan = _NearestScan(
            a_indices=np.array([0], dtype=np.intp),
            b_indices=np.array([1, 2, 3], dtype=np.intp),
            config=ISLConfig(),
            k=9,
        )
        a_ids, b_nearest, distances, _ = _nearest_scan_arrays(
            self._tied_positions(), scan
        )
        assert list(a_ids) == [0, 0, 0]
        assert list(b_nearest[0]) == [1, 2, 3]


class TestInterPlaneSymmetry:
    """Regression: inter-plane links must be scanned in both directions.

    The nearest-neighbour relation is not symmetric -- satellite A's nearest
    in the next plane may differ from who picks A -- so each satellite must
    also link to its nearest feasible neighbour in the *previous* plane.  The
    seed only scanned plane ``p -> p+1``, which silently dropped the reverse
    picks for constellations with three or more planes.
    """

    def _assert_nearest_links_both_ways(self, topology):
        edges = _edge_list(topology)
        positions = topology.positions_ecef_km()
        offsets, starts = [], 0
        for plane in topology.planes:
            offsets.append(starts)
            starts += len(plane)
        plane_count = topology.plane_count
        for plane_index in range(plane_count):
            for neighbour in ((plane_index + 1) % plane_count, (plane_index - 1) % plane_count):
                if neighbour == plane_index:
                    continue
                start_a = offsets[plane_index]
                start_b = offsets[neighbour]
                block_b = positions[start_b : start_b + len(topology.planes[neighbour])]
                for local_a in range(len(topology.planes[plane_index])):
                    a = start_a + local_a
                    distances = np.linalg.norm(block_b - positions[a], axis=1)
                    b = start_b + int(np.argmin(distances))
                    if isl_feasible(positions[a], positions[b], topology.isl_config):
                        assert _has_link(edges, a, b), (
                            f"satellite {a} (plane {plane_index}) is missing the link "
                            f"to its nearest neighbour {b} in plane {neighbour}"
                        )

    def test_asymmetric_two_plane_layout(self, epoch):
        # Deliberately asymmetric phasing: the two planes have different slot
        # counts, so who-picks-whom differs between the directions.
        topology = ConstellationTopology(
            planes=[
                _circular_plane(0.0, [0.0, 180.0]),
                _circular_plane(4.0, [10.0, 100.0, 190.0, 280.0]),
            ],
            epoch=epoch,
        )
        self._assert_nearest_links_both_ways(topology)

    def test_asymmetric_three_plane_layout(self, epoch):
        # With >= 3 planes the seed's p -> p+1 scan never let a plane pick
        # into its previous plane; this layout exposes exactly that.
        topology = ConstellationTopology(
            planes=[
                _circular_plane(0.0, [0.0, 120.0, 240.0]),
                _circular_plane(5.0, [36.0, 108.0, 180.0, 252.0, 324.0]),
                _circular_plane(10.0, [60.0, 180.0, 300.0]),
            ],
            epoch=epoch,
        )
        self._assert_nearest_links_both_ways(topology)

    def test_reverse_scan_adds_links_the_forward_scan_misses(self, epoch):
        """At least one link of the fixed snapshot only exists because of the
        previous-plane scan (otherwise the fixture would not be a regression
        test at all)."""
        topology = ConstellationTopology(
            planes=[
                _circular_plane(0.0, [0.0, 120.0, 240.0]),
                _circular_plane(5.0, [36.0, 108.0, 180.0, 252.0, 324.0]),
                _circular_plane(10.0, [60.0, 180.0, 300.0]),
            ],
            epoch=epoch,
        )
        positions = topology.positions_ecef_km()
        offsets = [0]
        for plane in topology.planes[:-1]:
            offsets.append(offsets[-1] + len(plane))

        forward_edges = set()
        for plane_index in range(topology.plane_count):
            neighbour = (plane_index + 1) % topology.plane_count
            start_a, start_b = offsets[plane_index], offsets[neighbour]
            block_b = positions[start_b : start_b + len(topology.planes[neighbour])]
            for local_a in range(len(topology.planes[plane_index])):
                a = start_a + local_a
                distances = np.linalg.norm(block_b - positions[a], axis=1)
                b = start_b + int(np.argmin(distances))
                if isl_feasible(positions[a], positions[b], topology.isl_config):
                    forward_edges.add(frozenset((a, b)))

        edges = _edge_list(topology)
        plane = [node.plane_index for node in topology.nodes]
        inter_plane_edges = {
            frozenset((a, b))
            for a, b in zip(edges.a.tolist(), edges.b.tolist())
            if plane[a] != plane[b]
        }
        assert inter_plane_edges - forward_edges, (
            "expected the previous-plane scan to contribute links the "
            "forward-only seed scan missed"
        )
