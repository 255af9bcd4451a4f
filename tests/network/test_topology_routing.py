"""Tests of topology construction and routing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coverage.walker import WalkerDelta
from repro.network.ground_station import GroundStation
from repro.network.routing import RouteResult, SnapshotRouter, TimeAwareRouter
from repro.network.topology import ConstellationTopology


@pytest.fixture(scope="module")
def walker_topology(epoch) -> ConstellationTopology:
    wd = WalkerDelta(
        altitude_km=560.0, inclination_deg=65.0, total_satellites=200, planes=10, phasing=1
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


def _degrees(edges) -> np.ndarray:
    return np.bincount(np.concatenate([edges.a, edges.b]), minlength=len(edges.labels))


class TestTopology:
    def test_node_count(self, walker_topology):
        assert walker_topology.satellite_count == 200
        assert walker_topology.plane_count == 10

    def test_requires_non_empty_planes(self, epoch):
        with pytest.raises(ValueError):
            ConstellationTopology(planes=[[]], epoch=epoch)

    def test_snapshot_basics(self, walker_topology, stations):
        edges = _edge_list(walker_topology, stations)
        assert edges.labels == tuple(range(200)) + tuple(
            f"gs:{station.name}" for station in stations
        )
        # +Grid: every satellite has at least its two intra-plane neighbours.
        assert _degrees(edges)[:200].min() >= 2

    def test_edges_have_attributes(self, walker_topology):
        edges = _edge_list(walker_topology)
        assert edges.a.size > 0
        assert np.all(edges.distance_km > 0)
        assert np.all(edges.delay_ms > 0)
        assert np.all(edges.capacity_gbps > 0)

    def test_ground_stations_connected(self, walker_topology, stations):
        assert np.all(_degrees(_edge_list(walker_topology, stations))[200:] >= 1)


class TestSnapshotSequences:
    def test_sequence_steps_match_per_epoch_snapshots(
        self, walker_topology, stations, epoch
    ):
        epochs = [epoch.add_seconds(t) for t in (0.0, 120.0, 240.0)]
        batched = walker_topology.snapshot_sequence(epochs, stations).edge_lists()
        for at, edges in zip(epochs, batched):
            reference = _edge_list(walker_topology, stations, at)
            assert edges.labels == reference.labels
            assert set(edges.link_codes.tolist()) == set(reference.link_codes.tolist())

    def test_time_aware_snapshot_count_exact(self, walker_topology, stations, epoch):
        router = TimeAwareRouter(
            topology=walker_topology, ground_stations=stations, step_s=60.0
        )
        assert len(router.route_over_time(*stations[:2], epoch, 600.0)) == 10
        # Regression: float accumulation used to add an eleventh snapshot
        # when step_s does not sum exactly to the duration.
        router_fractional = TimeAwareRouter(
            topology=walker_topology, ground_stations=stations, step_s=0.1
        )
        assert len(router_fractional.route_over_time(*stations[:2], epoch, 1.0)) == 10

    def test_snapshot_validation(self, walker_topology, stations, epoch):
        router = TimeAwareRouter(topology=walker_topology, ground_stations=stations)
        with pytest.raises(ValueError):
            router.route_over_time(*stations[:2], epoch, 0.0)


class TestRouting:
    def test_route_between_stations(self, walker_topology, stations):
        router = SnapshotRouter(_edge_list(walker_topology, stations).arrays())
        result = router.route_between_stations(stations[0], stations[1])
        assert result.reachable
        assert result.hop_count >= 2
        # London-New York over LEO: a few tens of milliseconds one way.
        assert 15.0 <= result.latency_ms <= 120.0

    def test_latency_at_least_geodesic(self, walker_topology, stations):
        router = SnapshotRouter(_edge_list(walker_topology, stations).arrays())
        result = router.route_between_stations(stations[0], stations[2])
        # Great-circle London-Tokyo is ~9600 km -> >= 32 ms at light speed.
        assert result.latency_ms >= 30.0

    def test_unknown_node_unreachable(self, walker_topology):
        router = SnapshotRouter(_edge_list(walker_topology).arrays())
        result = router.route("gs:Nowhere", 0)
        assert not result.reachable
        assert result == RouteResult.unreachable()

    def test_time_aware_router_availability(self, walker_topology, stations, epoch):
        router = TimeAwareRouter(
            topology=walker_topology, ground_stations=stations, step_s=300.0
        )
        results = router.route_over_time(stations[0], stations[1], epoch, duration_s=900.0)
        assert len(results) == 3
        availability = TimeAwareRouter.availability(results)
        assert 0.0 <= availability <= 1.0
        assert TimeAwareRouter.path_changes(results) >= 0

    def test_time_aware_router_validation(self, walker_topology, stations, epoch):
        router = TimeAwareRouter(topology=walker_topology, ground_stations=stations)
        with pytest.raises(ValueError):
            router.route_over_time(stations[0], stations[1], epoch, duration_s=0.0)
        with pytest.raises(ValueError):
            TimeAwareRouter.availability([])
        inf, nan = float("inf"), float("nan")
        for step_s, duration_s in ((60, inf), (60, nan), (nan, 600), (inf, 600)):
            router = TimeAwareRouter(
                topology=walker_topology, ground_stations=stations, step_s=step_s
            )
            with pytest.raises(ValueError, match="duration_s and step_s"):
                router.route_over_time(stations[0], stations[1], epoch, duration_s)

    def test_time_aware_router_rejects_unattached_stations(
        self, walker_topology, stations, epoch
    ):
        # An unattached endpoint used to be unreachable at every step
        # (availability 0.0), indistinguishable from a real coverage gap.
        router = TimeAwareRouter(topology=walker_topology, ground_stations=stations[:2])
        with pytest.raises(ValueError, match="destination station 'Tokyo'"):
            router.route_over_time(stations[0], stations[2], epoch, 600.0)
        with pytest.raises(ValueError, match="source station 'Tokyo'"):
            router.route_over_time(stations[2], stations[0], epoch, 600.0)
        empty = TimeAwareRouter(topology=walker_topology)
        with pytest.raises(ValueError, match="source station 'London'.*ground_stations"):
            empty.route_over_time(stations[0], stations[1], epoch, 600.0)
