"""Benchmark: gateway route tables against station-sourced routing, by placement.

The simulator routes on :class:`~repro.network.backends.GatewayRouteTables`:
one Dijkstra from the satellites the stations link to (their gateways)
instead of one from every station.  How much that saves depends on how many
gateways the stations share, and so on where the stations are.  The
end-to-end benchmark's stations lie on one line in latitude and longitude
(``(i * phi) mod 1`` and ``(i * phi**2) mod 1`` are equal), so they share
gateways far more than stations at real, spread-out sites do.

This script runs the end-to-end benchmark's ``sweep-maxmin`` and
``sweep-steered-faults`` shapes (360 satellites in 18 planes, 335 stations,
24 one-hour steps, 5,000 and 10,000 flows per step, seeded gravity weights,
a plane outage and 10% dead links on the steered sweep) at two placements:

* ``collinear``: the benchmark's, latitude ``(i * phi) mod 1`` and longitude
  ``(i * phi**2) mod 1``;
* ``spread``: the same latitudes, longitude ``(i * sqrt(2)) mod 1``.

Each sweep runs with the library's gateway tables and with
:class:`~repro.network.backends.RouteTables` (a Dijkstra from every source
station) substituted for them, the two alternating.  Within a placement
both must give the same step digests (a SHA-256 of each scenario's step
list); the script exits 1 when they differ.  It prints one JSON line per
(placement, sweep) with every run's wall time, the medians and the first
16 hex digits of each scenario's digest (at the collinear placement they
are the end-to-end benchmark's for the same input seed).  There is no
timing floor: the times are for reading, the digests are the check.

Usage::

    PYTHONPATH=src python benchmarks/bench_station_placement.py \\
        [--smoke] [--seed 3] [--repeats 3]

``--smoke`` runs a tiny size (120 satellites, 40 stations, 3 steps) once.
Set ``OPENBLAS_NUM_THREADS=1`` to time single-threaded, as the end-to-end
benchmark does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

from repro.coverage.walker import WalkerDelta
from repro.demand.traffic_matrix import City, GravityTrafficModel
from repro.network import simulation
from repro.network.backends import RouteTables
from repro.network.faults import FaultSpec
from repro.network.ground_station import GroundStation
from repro.network.simulation import NetworkSimulator, Scenario
from repro.network.topology import ConstellationTopology
from repro.orbits.time import Epoch

START = Epoch.from_calendar(2025, 3, 20, 12, 0, 0.0)
TOTAL_DEMAND = 4000.0
POLICIES = ("static", "congestion-aware", "utilisation-weighted", "load-spreading")
SIZES = {
    "full": {
        "satellites": 360,
        "planes": 18,
        "stations": 335,
        "hours": 24,
        "flows": {"sweep-maxmin": 5_000, "sweep-steered-faults": 10_000},
    },
    "tiny": {
        "satellites": 120,
        "planes": 8,
        "stations": 40,
        "hours": 3,
        "flows": {"sweep-maxmin": 200, "sweep-steered-faults": 300},
    },
}
PHI = (1.0 + 5.0**0.5) / 2.0
#: Placement -> the longitude of station ``i`` as a fraction of a turn (the
#: collinear one in the end-to-end benchmark's exact float expression).
PLACEMENTS = {
    "collinear": lambda index: (index * PHI * PHI) % 1.0,
    "spread": lambda index: (index * 2.0**0.5) % 1.0,
}


def cities(count: int, seed: int, placement: str) -> tuple[City, ...]:
    """Stations within +/-55 degrees latitude, seeded Pareto weights."""
    rng = np.random.default_rng(seed)
    index = np.arange(count)
    latitudes = -55.0 + 110.0 * ((index * PHI) % 1.0)
    longitudes = -180.0 + 360.0 * PLACEMENTS[placement](index)
    weights = rng.pareto(1.5, size=count) + 1.0
    return tuple(
        City(f"S{i:03d}", float(latitudes[i]), float(longitudes[i]), float(weights[i]))
        for i in range(count)
    )


def scenarios(sweep: str, seed: int) -> list[Scenario]:
    """The sweep's scenarios; the steered sweep's fault streams derive from ``seed``."""
    if sweep == "sweep-maxmin":
        return [Scenario(name="max-min", allocator="max_min_array")]
    outage_seed, link_seed = np.random.default_rng([seed, 1]).integers(0, 2**31, size=2)
    faults = (
        FaultSpec("plane_outage", {"count": 1, "seed": int(outage_seed)}),
        FaultSpec("link_degradation", {"factor": 0.0, "fraction": 0.1, "seed": int(link_seed)}),
    )
    return [
        Scenario(name=policy, allocator="proportional_array", faults=faults, steering=policy)
        for policy in POLICIES
    ]


def simulator(config: dict, sweep: str, placement: str, seed: int) -> NetworkSimulator:
    walker = WalkerDelta(
        altitude_km=560.0,
        inclination_deg=65.0,
        total_satellites=config["satellites"],
        planes=config["planes"],
        phasing=1,
    )
    elements = walker.satellite_elements()
    per_plane = walker.satellites_per_plane
    sites = cities(config["stations"], seed, placement)
    return NetworkSimulator(
        topology=ConstellationTopology(
            planes=[elements[i * per_plane : (i + 1) * per_plane] for i in range(walker.planes)],
            epoch=START,
        ),
        ground_stations=[GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in sites],
        traffic_model=GravityTrafficModel(cities=sites, total_demand=TOTAL_DEMAND),
        flows_per_step=config["flows"][sweep],
    )


@contextmanager
def routed_on(tables: str):
    """Route the simulator on ``"gateway"`` tables or ``"station"``-sourced ones."""
    saved = simulation.GatewayRouteTables
    if tables == "station":
        simulation.GatewayRouteTables = RouteTables
    try:
        yield
    finally:
        simulation.GatewayRouteTables = saved


def timed_run(sim: NetworkSimulator, runs: list[Scenario], hours: float, tables: str):
    """``(wall seconds, {scenario: step digest})`` of one serial, untraced sweep."""
    with routed_on(tables):
        begin = time.perf_counter()
        results = sim.run_scenarios(runs, START, hours)
        wall = time.perf_counter() - begin
    digests = {
        name: hashlib.sha256(repr(result.steps).encode()).hexdigest()
        for name, result in results.items()
    }
    return wall, digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny size, one run each")
    parser.add_argument("--seed", type=int, default=3, help="input seed (default 3)")
    parser.add_argument("--repeats", type=int, default=3, help="runs per side (default 3)")
    args = parser.parse_args(argv)
    config = SIZES["tiny" if args.smoke else "full"]
    repeats = 1 if args.smoke else args.repeats
    failed = False
    for placement in PLACEMENTS:
        for sweep in ("sweep-maxmin", "sweep-steered-faults"):
            sim = simulator(config, sweep, placement, args.seed)
            runs = scenarios(sweep, args.seed)
            walls: dict[str, list[float]] = {"gateway": [], "station": []}
            digests = []
            for repeat in range(repeats):
                # Alternate which side runs first.
                for tables in ("gateway", "station")[:: 1 if repeat % 2 == 0 else -1]:
                    wall, digest = timed_run(sim, runs, config["hours"], tables)
                    walls[tables].append(wall)
                    digests.append(digest)
            same = all(digest == digests[0] for digest in digests)
            failed |= not same
            print(
                json.dumps(
                    {
                        "placement": placement,
                        "sweep": sweep,
                        "seed": args.seed,
                        "digests_equal": same,
                        "digests": {name: value[:16] for name, value in digests[0].items()},
                        **{f"{side}_s": [round(w, 3) for w in walls[side]] for side in walls},
                        **{
                            f"{side}_median_s": round(statistics.median(walls[side]), 3)
                            for side in walls
                        },
                    }
                ),
                flush=True,
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
