"""Columnar flows: a 10^5-flow step with a heavy-hitter report.

Run with:  python examples/columnar_flows.py

A per-``Flow`` pipeline tops out around 10^2-10^3 flows per step -- every
flow would be a Python tuple, a lazily reconstructed path and a dataclass.
The simulator instead keeps flows columnar: selection, routing fan-out,
incidence compilation and allocation all run as whole-array numpy over a
structured flow table (``repro.network.flows``).  This example drives it at
**one hundred thousand** flows per step.

At that scale an exact per-pair traffic summary costs O(distinct pairs)
memory per step, so the step telemetry is a policy: ``telemetry="sketch"``
streams every (src, dst, demand) observation into a count-min sketch with
a bounded heavy-hitter candidate set -- ~128 KiB however many flows pass
through, never under-counting, mergeable across process workers -- and the
per-step statistics carry the top station pairs it recovers.
"""

from __future__ import annotations

import time

import numpy as np

from repro.coverage.walker import WalkerDelta
from repro.demand.traffic_matrix import City, GravityTrafficModel
from repro.network.ground_station import GroundStation
from repro.network.simulation import NetworkSimulator, Scenario
from repro.network.topology import ConstellationTopology
from repro.orbits.time import Epoch

STATIONS = 335  # 335 * 334 = 111,890 directed station pairs
FLOWS_PER_STEP = 100_000


def synthetic_cities(count: int, seed: int = 0) -> tuple[City, ...]:
    """A deterministic world-spanning endpoint set with a heavy-tailed
    weight distribution (so the sketch has genuine heavy hitters to find)."""
    rng = np.random.default_rng(seed)
    golden = (1.0 + 5.0**0.5) / 2.0
    index = np.arange(count)
    latitudes = -55.0 + 110.0 * ((index * golden) % 1.0)
    longitudes = -180.0 + 360.0 * ((index * golden * golden) % 1.0)
    weights = rng.pareto(1.5, size=count) + 1.0
    return tuple(
        City(f"S{i:03d}", float(latitudes[i]), float(longitudes[i]), float(weights[i]))
        for i in range(count)
    )


def main() -> None:
    epoch = Epoch.from_calendar(2025, 3, 20, 0, 0, 0.0)
    wd = WalkerDelta(
        altitude_km=560.0, inclination_deg=65.0, total_satellites=360, planes=18, phasing=1
    )
    elements = wd.satellite_elements()
    per_plane = wd.satellites_per_plane
    topology = ConstellationTopology(
        planes=[elements[i * per_plane : (i + 1) * per_plane] for i in range(wd.planes)],
        epoch=epoch,
    )
    cities = synthetic_cities(STATIONS)
    stations = [GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in cities]
    simulator = NetworkSimulator(
        topology=topology,
        ground_stations=stations,
        traffic_model=GravityTrafficModel(cities=cities, total_demand=4000.0),
        flows_per_step=FLOWS_PER_STEP,
    )
    scenario = Scenario(name="columnar", allocator="proportional_array", telemetry="sketch")

    print(
        f"{STATIONS} stations ({STATIONS * (STATIONS - 1)} pairs), "
        f"{FLOWS_PER_STEP} flows per step, {wd.total_satellites} satellites"
    )
    begin = time.perf_counter()
    result = simulator.run_scenarios([scenario], epoch, duration_hours=3.0)["columnar"]
    elapsed = time.perf_counter() - begin
    print(f"3-step columnar sweep: {elapsed:.1f} s\n")

    print("per-step statistics (each step allocated 100k flows):")
    for step in result.steps:
        top_src, top_dst, top_gbps = step.top_pairs[0]
        print(
            f"  t={step.utc_hour:04.1f}h offered {step.offered_gbps:7.1f} "
            f"delivered {step.delivered_gbps:7.1f} "
            f"latency {step.mean_latency_ms:5.1f} ms "
            f"| hottest pair {top_src}->{top_dst} ({top_gbps:.1f} Gbps)"
        )

    telemetry = result.telemetry
    print(
        f"\nsketch memory: {telemetry.store.memory_bytes() / 1024:.0f} KiB "
        f"(fixed; an exact store would track "
        f"{STATIONS * (STATIONS - 1)} pair counters)"
    )
    print("aggregate heavy hitters over the whole run (count-min estimates):")
    for src, dst, gbps in telemetry.top_pairs(10):
        share = gbps / telemetry.total()
        print(f"  {src} -> {dst}: {gbps:8.1f} Gbps  ({share:5.1%} of offered)")


if __name__ == "__main__":
    main()
