"""Demand sweeps: design-layer figures plus a network-layer scenario sweep.

Run with:  python examples/demand_sweep.py [--full]

Two sweeps, one theme -- how the system responds as demand scales:

1. **Design sweep** (the paper's Figures 9 and 10): sweeps the bandwidth
   multiplier, designs both constellations at every point and prints the
   satellite-count and median-radiation series.
2. **Traffic scenario sweep** (Section 5 methodology): fixes one designed
   SS-plane constellation and sweeps traffic *scenarios* -- demand
   multipliers and allocation policies -- over it with
   ``NetworkSimulator.run_scenarios``, which amortises one batched
   propagation, one vectorised link-feasibility pass and shared per-step
   routing across every scenario.  Routing is one compiled multi-source
   Dijkstra over the snapshot's CSR edge arrays per step (see
   examples/README.md).

The default settings use coarse grids so both sweeps complete in well under
a minute; ``--full`` switches to the resolutions used by the benchmark
harness.
"""

from __future__ import annotations

import argparse

from repro.analysis.report import format_table
from repro.core.comparison import run_comparison_sweep
from repro.core.designer import ConstellationDesigner
from repro.core.metrics import MetricsCalculator
from repro.demand.population import synthetic_population_grid
from repro.demand.spatiotemporal import SpatiotemporalDemandModel
from repro.demand.traffic_matrix import City, GravityTrafficModel
from repro.network.ground_station import GroundStation
from repro.network.simulation import NetworkSimulator, Scenario
from repro.network.topology import ConstellationTopology
from repro.orbits.time import Epoch
from repro.radiation.exposure import ExposureCalculator

NETWORK_CITIES = (
    City("London", 51.5, -0.1, 9.6),
    City("New York", 40.7, -74.0, 20.0),
    City("Tokyo", 35.7, 139.7, 37.0),
    City("Delhi", 28.6, 77.2, 32.0),
    City("Sao Paulo", -23.6, -46.6, 22.0),
    City("Lagos", 6.5, 3.4, 15.0),
)


def build_designer(full: bool) -> ConstellationDesigner:
    """Return a designer at coarse (default) or full benchmark resolution."""
    population_resolution = 1.0 if full else 2.0
    demand_model = SpatiotemporalDemandModel(
        population=synthetic_population_grid(resolution_deg=population_resolution)
    )
    return ConstellationDesigner(
        demand_model=demand_model,
        lat_resolution_deg=2.0 if full else 4.0,
        time_resolution_hours=1.0 if full else 2.0,
        metrics_calculator=MetricsCalculator(
            exposure=ExposureCalculator(step_s=60.0 if full else 180.0)
        ),
    )


def design_sweep(full: bool, designer: ConstellationDesigner) -> None:
    """Regenerate the shape of the paper's Figures 9 and 10."""
    multipliers = (3.0, 10.0, 30.0, 100.0, 300.0) if full else (3.0, 10.0, 30.0, 100.0)
    sweep = run_comparison_sweep(multipliers, designer)

    rows = []
    for point in sweep.points:
        rows.append(
            [
                point.bandwidth_multiplier,
                point.ss_satellites,
                point.walker_satellites,
                round(point.satellite_reduction_factor, 2),
                f"{point.ss_median_electron:.2e}",
                f"{point.walker_median_electron:.2e}",
                round(point.electron_reduction_percent, 1),
            ]
        )
    print("Figure 9 / Figure 10 series (SS-plane vs Walker-delta):")
    print(
        format_table(
            ["multiplier", "SS sats", "WD sats", "WD/SS", "SS e-", "WD e-", "e- saving %"],
            rows,
        )
    )

    claims = sweep.headline_claims()
    print("\nHeadline numbers over this sweep:")
    print(f"  max satellite reduction factor: {claims.max_satellite_reduction_factor:.2f}x")
    print(f"  max electron fluence reduction: {claims.max_electron_reduction_percent:.1f} %")
    print(f"  max proton fluence reduction:   {claims.max_proton_reduction_percent:.1f} %")


def traffic_scenario_sweep(designer: ConstellationDesigner) -> None:
    """Sweep traffic scenarios over one designed constellation."""
    outcome = designer.design_ssplane(3.0)
    epoch = Epoch.from_calendar(2025, 3, 20, 0, 0, 0.0)
    topology = ConstellationTopology(
        planes=[plane.satellite_elements() for plane in outcome.result.planes],
        epoch=epoch,
    )
    stations = [
        GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in NETWORK_CITIES
    ]
    simulator = NetworkSimulator(
        topology=topology,
        ground_stations=stations,
        traffic_model=GravityTrafficModel(cities=NETWORK_CITIES, total_demand=60.0),
        flows_per_step=15,
    )
    scenarios = [
        Scenario(name="x1", demand_multiplier=1.0),
        Scenario(name="x2", demand_multiplier=2.0),
        Scenario(name="x4", demand_multiplier=4.0),
        Scenario(name="x4_max_min", demand_multiplier=4.0, allocator="max_min_array"),
    ]

    print(
        f"\nTraffic scenario sweep over the {outcome.total_satellites}-satellite "
        "SS constellation (12 h, 2 h steps, one shared snapshot sequence):"
    )
    sweep = simulator.run_scenarios(scenarios, epoch, duration_hours=12.0, step_hours=2.0)
    rows = [
        [
            name,
            round(sum(step.offered_gbps for step in result.steps), 1),
            round(sum(step.delivered_gbps for step in result.steps), 1),
            round(result.mean_delivery_ratio(), 2),
            round(max(step.worst_link_utilisation for step in result.steps), 2),
        ]
        for name, result in sweep.items()
    ]
    print(
        format_table(
            ["scenario", "offered", "delivered", "delivery ratio", "peak link util"], rows
        )
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="use full-resolution grids")
    args = parser.parse_args()

    designer = build_designer(args.full)
    design_sweep(args.full, designer)
    traffic_scenario_sweep(designer)


if __name__ == "__main__":
    main()
