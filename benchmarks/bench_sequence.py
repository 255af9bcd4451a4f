"""Benchmark: snapshot-sequence construction, sparse ground visibility against dense.

:class:`~repro.network.topology.SnapshotSequence` keeps ground visibility
as a step-indexed CSR of the visible (step, station, satellite) triples,
tested exactly only where a horizon-plane filter lets a satellite through.
The dense oracle (``flow_oracles.dense_ground_visibility``) tests every
triple and holds ``(T, K, N)`` mask and slant-range arrays.  This script
builds the same sequence both ways, with the oracle substituted for the
library's ground pass (the library has no switch), at 360, 720 and 1,440
satellites (20 per plane, the end-to-end benchmark's 560 km, 65 degree
Walker shell), each with the benchmark's 335 collinear stations and 24
one-hour steps.

Per size it prints one JSON line: every run's construction time and the
medians of each side (the two alternate), the peak ``tracemalloc`` bytes of
one construction of each side (a separate, untimed run), the number of
visible triples and whether both sides give the same triples and bit-equal
slant ranges.  It exits 1 if any size's do not.  There is no timing floor.

Usage::

    PYTHONPATH=src python benchmarks/bench_sequence.py [--smoke] [--repeats 3]

``--smoke`` runs a tiny size (120 satellites, 40 stations, 3 steps) once.
Set ``OPENBLAS_NUM_THREADS=1`` to time single-threaded, as the end-to-end
benchmark does.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.coverage.walker import WalkerDelta
from repro.network import topology as topology_module
from repro.network.ground_station import GroundStation
from repro.network.topology import ConstellationTopology, SnapshotSequence
from repro.orbits.time import Epoch, epoch_range

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests" / "network"))
from flow_oracles import dense_ground_visibility, sparse_ground_triples  # noqa: E402

START = Epoch.from_calendar(2025, 3, 20, 12, 0, 0.0)
PHI = (1.0 + 5.0**0.5) / 2.0
#: Size -> (satellite counts, satellites per plane, stations, one-hour steps).
SIZES = {
    "full": ((360, 720, 1440), 20, 335, 24),
    "smoke": ((120,), 15, 40, 3),
}


def dense_ground(stations, positions):
    """The library's ground pass, computed from the dense oracle's arrays."""
    visible, slant_km = dense_ground_visibility(stations, positions)
    steps, rows, satellites = np.nonzero(visible)
    offsets = np.searchsorted(steps, np.arange(positions.shape[0] + 1))
    return offsets, rows, satellites, slant_km[steps, rows, satellites]


@contextmanager
def ground_pass(side: str):
    """Build sequences with the ``"sparse"`` library pass or the ``"dense"`` oracle."""
    saved = topology_module._ground_visibility
    if side == "dense":
        topology_module._ground_visibility = dense_ground
    try:
        yield
    finally:
        topology_module._ground_visibility = saved


def shell(satellites: int, per_plane: int) -> ConstellationTopology:
    walker = WalkerDelta(
        altitude_km=560.0,
        inclination_deg=65.0,
        total_satellites=satellites,
        planes=satellites // per_plane,
        phasing=1,
    )
    elements = walker.satellite_elements()
    return ConstellationTopology(
        planes=[elements[i * per_plane : (i + 1) * per_plane] for i in range(walker.planes)],
        epoch=START,
    )


def stations(count: int) -> list[GroundStation]:
    """The end-to-end benchmark's stations: latitude (i*phi) mod 1, longitude (i*phi**2) mod 1."""
    index = np.arange(count)
    latitudes = -55.0 + 110.0 * ((index * PHI) % 1.0)
    longitudes = -180.0 + 360.0 * ((index * PHI * PHI) % 1.0)
    return [
        GroundStation(f"S{i:03d}", float(latitudes[i]), float(longitudes[i]))
        for i in range(count)
    ]


def build(side: str, topology, epochs, sites) -> SnapshotSequence:
    with ground_pass(side):
        return SnapshotSequence(topology, epochs, sites)


def timed_build(side: str, topology, epochs, sites) -> tuple[float, SnapshotSequence]:
    begin = time.perf_counter()
    sequence = build(side, topology, epochs, sites)
    return time.perf_counter() - begin, sequence


def peak_bytes(side: str, topology, epochs, sites) -> int:
    """Peak traced allocation of one construction."""
    tracemalloc.start()
    try:
        build(side, topology, epochs, sites)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny size, one run each")
    parser.add_argument("--repeats", type=int, default=3, help="runs per side (default 3)")
    args = parser.parse_args(argv)
    counts, per_plane, station_count, hours = SIZES["smoke" if args.smoke else "full"]
    repeats = 1 if args.smoke else args.repeats
    epochs = epoch_range(START, hours * 3600.0, 3600.0)
    sites = stations(station_count)
    failed = False
    for satellites in counts:
        topology = shell(satellites, per_plane)
        walls: dict[str, list[float]] = {"dense": [], "sparse": []}
        triples = {}
        for repeat in range(repeats):
            # Alternate which side runs first.
            for side in ("dense", "sparse")[:: 1 if repeat % 2 == 0 else -1]:
                wall, sequence = timed_build(side, topology, epochs, sites)
                walls[side].append(wall)
                triples[side] = sparse_ground_triples(sequence)
        equal = all(
            mine.tobytes() == theirs.tobytes()
            for mine, theirs in zip(triples["sparse"], triples["dense"])
        )
        failed |= not equal
        print(
            json.dumps(
                {
                    "satellites": satellites,
                    "stations": station_count,
                    "steps": len(epochs),
                    "triples": int(triples["sparse"][0].size),
                    "triples_equal": equal,
                    **{f"{side}_s": [round(w, 4) for w in walls[side]] for side in walls},
                    **{
                        f"{side}_median_s": round(statistics.median(walls[side]), 4)
                        for side in walls
                    },
                    **{
                        f"{side}_peak_bytes": peak_bytes(side, topology, epochs, sites)
                        for side in walls
                    },
                }
            ),
            flush=True,
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
