"""The snapshot sequence's sparse ground visibility against the dense oracle.

:class:`~repro.network.topology.SnapshotSequence` keeps only the visible
(step, station, satellite) triples, found by a horizon-plane candidate
filter and an exact :func:`~repro.network.ground_station.visibility_mask`
test.  These tests check it against the loop it replaced, which tested
every triple (:func:`flow_oracles.dense_ground_visibility`): the same
triples, bit-equal slant ranges and equal edge lists, with and without a
station subset and a fault schedule.
"""

from __future__ import annotations

import numpy as np
import pytest

from flow_oracles import dense_edge_list, dense_ground_visibility, sparse_ground_triples
from repro.coverage.walker import WalkerDelta
from repro.network.faults import FaultContext, FaultSpec, compile_faults
from repro.network.ground_station import GroundStation
from repro.network.topology import ConstellationTopology, MultiShellTopology, SnapshotSequence
from repro.orbits.time import epoch_range

PHI = (1.0 + 5.0**0.5) / 2.0
#: Placement -> longitude of station ``i`` as a fraction of a turn.
PLACEMENTS = {
    "collinear": lambda index: (index * PHI * PHI) % 1.0,
    "spread": lambda index: (index * 2.0**0.5) % 1.0,
}
MASKS = (0.0, 25.0, 60.0, -5.0)


def walker_shell(epoch, altitude_km, inclination_deg, total, planes) -> ConstellationTopology:
    walker = WalkerDelta(
        altitude_km=altitude_km,
        inclination_deg=inclination_deg,
        total_satellites=total,
        planes=planes,
        phasing=1,
    )
    elements = walker.satellite_elements()
    per_plane = walker.satellites_per_plane
    return ConstellationTopology(
        planes=[elements[i * per_plane : (i + 1) * per_plane] for i in range(walker.planes)],
        epoch=epoch,
    )


def stations(count: int, placement: str, masks=(25.0,)) -> list[GroundStation]:
    """The end-to-end benchmark's latitudes; masks cycle over the stations."""
    index = np.arange(count)
    latitudes = -55.0 + 110.0 * ((index * PHI) % 1.0)
    longitudes = -180.0 + 360.0 * PLACEMENTS[placement](index)
    return [
        GroundStation(
            f"S{i:03d}", float(latitudes[i]), float(longitudes[i]), masks[i % len(masks)]
        )
        for i in range(count)
    ]


def assert_matches_dense(sequence: SnapshotSequence, station_names=None, faults=None) -> None:
    """Same triples, bit-equal slant ranges and equal edge lists at every step."""
    positions = sequence.topology.positions_ecef_over(sequence.epochs)
    visible, slant_km = dense_ground_visibility(sequence.ground_stations, positions)
    steps, rows, satellites, slant = sparse_ground_triples(sequence)
    dense = np.nonzero(visible)
    np.testing.assert_array_equal(steps, dense[0])
    np.testing.assert_array_equal(rows, dense[1])
    np.testing.assert_array_equal(satellites, dense[2])
    assert slant.tobytes() == slant_km[dense].tobytes()
    for step in range(len(sequence)):
        mine = sequence.edge_list(step, station_names, faults=faults)
        oracle = dense_edge_list(sequence, visible, slant_km, step, station_names, faults)
        assert mine.labels == oracle.labels
        for name in ("a", "b", "distance_km", "delay_ms", "capacity_gbps"):
            assert getattr(mine, name).dtype == getattr(oracle, name).dtype, name
            np.testing.assert_array_equal(getattr(mine, name), getattr(oracle, name), name)


@pytest.fixture(scope="module")
def full_shell(epoch) -> ConstellationTopology:
    """The end-to-end benchmark's full-size shell: 360 satellites in 18 planes."""
    return walker_shell(epoch, 560.0, 65.0, 360, 18)


@pytest.fixture(scope="module")
def day(epoch) -> list:
    """24 one-hour steps, as in the end-to-end benchmark."""
    return epoch_range(epoch, 24 * 3600.0, 3600.0)


class TestSparseMatchesDense:
    @pytest.mark.parametrize("placement", sorted(PLACEMENTS))
    def test_full_size_shell(self, full_shell, day, placement):
        sequence = full_shell.snapshot_sequence(day, stations(335, placement))
        assert 0 < len(sequence._ground_station) < 0.05 * 24 * 335 * 360
        assert_matches_dense(sequence)

    def test_elevation_masks(self, full_shell, day):
        sites = stations(80, "spread", MASKS)
        sequence = full_shell.snapshot_sequence(day, sites)
        assert_matches_dense(sequence)
        # The -5 degree stations see satellites below their horizon plane,
        # which a horizon filter would wrongly drop.
        steps, rows, satellites, _ = sparse_ground_triples(sequence)
        positions = full_shell.positions_ecef_over(day)
        below = [
            sites[row].elevation_to_rad(positions[step, satellite]) < 0.0
            for step, row, satellite in zip(steps, rows, satellites)
        ]
        assert any(below)
        assert all(sites[row].min_elevation_deg < 0.0 for row in rows[below])

    def test_two_shells_and_poles(self, epoch):
        multi = MultiShellTopology(
            shells=[
                walker_shell(epoch, 550.0, 65.0, 60, 5),
                walker_shell(epoch, 1100.0, 97.0, 40, 4),
            ]
        )
        sites = stations(30, "spread", MASKS) + [
            GroundStation(f"pole{mask:g}{sign}", sign * 90.0, 0.0, mask)
            for sign in (1.0, -1.0)
            for mask in (0.0, -5.0)
        ]
        sequence = multi.snapshot_sequence(epoch_range(epoch, 6 * 3600.0, 1800.0), sites)
        assert_matches_dense(sequence)
        poles = {row for row, site in enumerate(sites) if abs(site.latitude_deg) == 90.0}
        assert poles & set(sparse_ground_triples(sequence)[1].tolist())

    def test_station_subset_with_faults(self, full_shell, epoch):
        epochs = epoch_range(epoch, 8 * 3600.0, 3600.0)
        sites = stations(60, "spread", MASKS)
        names = [site.name for site in sites[1::3]]
        schedule = compile_faults(
            (
                FaultSpec("plane_outage", {"count": 2, "seed": 5}),
                FaultSpec("station_outage", {"rate": 0.3, "seed": 6}),
                FaultSpec("link_degradation", {"factor": 0.5, "fraction": 0.3, "seed": 7}),
            ),
            FaultContext(full_shell, epochs, names),
        )
        sequence = full_shell.snapshot_sequence(epochs, sites)
        assert not schedule.station_up.all()
        assert_matches_dense(sequence, names, schedule)
        assert_matches_dense(sequence, names)

    def test_no_stations(self, full_shell, epoch):
        sequence = full_shell.snapshot_sequence(epoch_range(epoch, 3600.0, 3600.0))
        assert sequence._ground_offsets.tolist() == [0, 0]
        assert_matches_dense(sequence)

