"""Scenario-sweep network simulation over an SS-plane constellation.

Run with:  python examples/ss_network_simulation.py

Designs a small SS-plane constellation, builds its +Grid inter-satellite-link
topology, attaches ground stations at major cities, and evaluates a *sweep*
of traffic scenarios -- baseline, doubled demand, max-min fair allocation and
a transatlantic station subset -- over half a day through one shared snapshot
sequence: the constellation is propagated once, link feasibility is computed
once, and every scenario reuses the incrementally updated per-step graphs and
routing.  It then reports per-scenario delivery and latency, plus how much
the peak-shifting scheduler could flatten the diurnal load -- the questions
the paper's Section 5 raises for future LSN research.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import format_table
from repro.core.designer import ConstellationDesigner
from repro.core.metrics import MetricsCalculator
from repro.demand.diurnal import DiurnalProfile
from repro.demand.population import synthetic_population_grid
from repro.demand.spatiotemporal import SpatiotemporalDemandModel
from repro.demand.traffic_matrix import City, GravityTrafficModel
from repro.network.ground_station import GroundStation
from repro.network.scheduler import PeakShiftScheduler
from repro.network.simulation import NetworkSimulator, Scenario
from repro.network.topology import ConstellationTopology
from repro.orbits.time import Epoch
from repro.radiation.exposure import ExposureCalculator

CITIES = (
    City("London", 51.5, -0.1, 9.6),
    City("New York", 40.7, -74.0, 20.0),
    City("Tokyo", 35.7, 139.7, 37.0),
    City("Delhi", 28.6, 77.2, 32.0),
    City("Sao Paulo", -23.6, -46.6, 22.0),
    City("Lagos", 6.5, 3.4, 15.0),
    City("Sydney", -33.9, 151.2, 5.3),
    City("Los Angeles", 34.1, -118.2, 13.0),
)

SCENARIOS = [
    Scenario(name="baseline"),
    Scenario(name="peak_demand", demand_multiplier=2.0),
    Scenario(name="max_min_fair", allocator="max_min_array"),
    Scenario(
        name="transatlantic",
        ground_station_names=("London", "New York", "Sao Paulo", "Lagos"),
    ),
]


def main() -> None:
    print("Designing an SS-plane constellation (bandwidth multiplier 5) ...")
    designer = ConstellationDesigner(
        demand_model=SpatiotemporalDemandModel(
            population=synthetic_population_grid(resolution_deg=2.0)
        ),
        lat_resolution_deg=4.0,
        time_resolution_hours=2.0,
        metrics_calculator=MetricsCalculator(exposure=ExposureCalculator(step_s=300.0)),
    )
    outcome = designer.design_ssplane(5.0)
    print(
        f"  {outcome.total_satellites} satellites in {outcome.metrics.plane_count} "
        f"sun-synchronous planes"
    )

    epoch = Epoch.from_calendar(2025, 3, 20, 0, 0, 0.0)
    topology = ConstellationTopology(
        planes=[plane.satellite_elements() for plane in outcome.result.planes], epoch=epoch
    )
    stations = [GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in CITIES]
    simulator = NetworkSimulator(
        topology=topology,
        ground_stations=stations,
        traffic_model=GravityTrafficModel(cities=CITIES, total_demand=80.0),
        flows_per_step=25,
    )

    print(
        f"\nSweeping {len(SCENARIOS)} scenarios over a 12-hour simulation "
        "(2-hour steps, one shared snapshot sequence) ..."
    )
    sweep = simulator.run_scenarios(SCENARIOS, epoch, duration_hours=12.0, step_hours=2.0)

    rows = []
    for name, result in sweep.items():
        worst = result.worst_step()
        rows.append(
            [
                name,
                round(result.mean_delivery_ratio(), 2),
                round(result.mean_latency_ms(), 1)
                if np.isfinite(result.mean_latency_ms())
                else "-",
                round(worst.delivery_ratio, 2),
                round(worst.utc_hour, 1),
            ]
        )
    print(
        format_table(
            ["scenario", "delivery", "latency ms", "worst delivery", "worst hour"], rows
        )
    )

    print("\nBaseline scenario, step by step:")
    rows = [
        [
            round(step.utc_hour, 1),
            round(step.offered_gbps, 1),
            round(step.delivered_gbps, 1),
            round(step.reachable_fraction, 2),
            round(step.mean_latency_ms, 1) if np.isfinite(step.mean_latency_ms) else "-",
        ]
        for step in sweep["baseline"].steps
    ]
    print(format_table(["UTC hour", "offered", "delivered", "reachable", "latency ms"], rows))

    print("\nPeak shifting of deferrable traffic (Section 5, implication 1):")
    profile = DiurnalProfile()
    hours = np.arange(24.0)
    demand = np.asarray(profile.fraction_of_median(hours)) * 10.0
    urgent, deferrable = 0.7 * demand, 0.3 * demand
    capacity = np.full(24, float(np.mean(demand)) * 1.15)
    schedule = PeakShiftScheduler(max_delay_slots=6).schedule(urgent, deferrable, capacity)
    print(
        f"  peak load before shifting: {schedule.peak_before:.1f}, after: {schedule.peak_after:.1f} "
        f"({schedule.peak_reduction_percent:.0f} % lower), dropped: {schedule.dropped:.2f}"
    )


if __name__ == "__main__":
    main()
