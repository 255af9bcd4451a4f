"""Benchmark: vectorised batch propagation against the seed's scalar loop.

The seed computed every topology snapshot by constructing a fresh scalar
``J2Propagator`` per satellite and rotating each position into ECEF one at a
time; the batch engine propagates the whole constellation in array
operations.  This benchmark times both paths on a 360-satellite Walker shell
(the position computation behind every ``SnapshotSequence``)
and asserts the batch path is at least 5x faster while agreeing with the
scalar reference to 1e-9 km.
"""

from __future__ import annotations

import time

import numpy as np

from repro.coverage.walker import WalkerDelta
from repro.network.topology import ConstellationTopology
from repro.orbits.frames import eci_to_ecef
from repro.orbits.propagation import J2Propagator
from repro.orbits.time import Epoch

SATELLITES = 360
PLANES = 18
SPEEDUP_FLOOR = 5.0
AGREEMENT_KM = 1e-9


def _walker_topology(epoch: Epoch) -> ConstellationTopology:
    wd = WalkerDelta(
        altitude_km=560.0,
        inclination_deg=65.0,
        total_satellites=SATELLITES,
        planes=PLANES,
        phasing=1,
    )
    elements = wd.satellite_elements()
    per_plane = wd.satellites_per_plane
    planes = [elements[i * per_plane : (i + 1) * per_plane] for i in range(wd.planes)]
    return ConstellationTopology(planes=planes, epoch=epoch)


def _scalar_positions_ecef(topology: ConstellationTopology, at: Epoch) -> np.ndarray:
    """The seed's per-satellite position loop, kept as the timing baseline."""
    positions = np.empty((topology.satellite_count, 3))
    for node in topology.nodes:
        state = J2Propagator(node.elements, topology.epoch).state_at(at)
        positions[node.node_id] = eci_to_ecef(state.position_km, at)
    return positions


def _best_of(repeats: int, function, *args) -> tuple[float, np.ndarray]:
    best = float("inf")
    value = None
    for _ in range(repeats):
        begin = time.perf_counter()
        value = function(*args)
        best = min(best, time.perf_counter() - begin)
    return best, value


def _run_comparison():
    epoch = Epoch.from_calendar(2025, 3, 20, 12, 0, 0.0)
    topology = _walker_topology(epoch)
    at = epoch.add_seconds(1800.0)

    # Warm both paths once so timings exclude first-call overheads.
    topology.positions_ecef_km(at)
    _scalar_positions_ecef(topology, at)

    scalar_s, scalar_positions = _best_of(3, _scalar_positions_ecef, topology, at)
    batch_s, batch_positions = _best_of(10, topology.positions_ecef_km, at)

    return {
        "satellites": topology.satellite_count,
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "speedup": scalar_s / batch_s,
        "max_diff_km": float(np.max(np.abs(batch_positions - scalar_positions))),
    }


def test_batch_propagation_speedup(benchmark, once):
    stats = once(benchmark, _run_comparison)

    print(
        f"\n{stats['satellites']} satellites: scalar {stats['scalar_s']*1e3:.2f} ms, "
        f"batch {stats['batch_s']*1e3:.2f} ms -> {stats['speedup']:.1f}x "
        f"(max diff {stats['max_diff_km']:.2e} km)"
    )

    assert stats["satellites"] >= 300
    assert stats["max_diff_km"] < AGREEMENT_KM
    assert stats["speedup"] >= SPEEDUP_FLOOR
