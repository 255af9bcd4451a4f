"""Extension benchmark: network-layer behaviour over an SS-plane constellation.

Not a figure of the paper, but the Section 5 implications ask what routing and
traffic engineering look like over SS-plane constellations; this benchmark
runs a scenario sweep (baseline vs max-min allocation vs doubled demand) over
a designed SS constellation through the shared snapshot-sequence engine and
reports per-scenario delivery ratio and latency.
"""

from __future__ import annotations

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

SCENARIOS = [
    Scenario(name="baseline"),
    Scenario(name="max_min", allocator="max_min_array"),
    Scenario(name="peak_demand", demand_multiplier=2.0),
]


def _run_simulation():
    designer = ConstellationDesigner(
        demand_model=SpatiotemporalDemandModel(
            population=synthetic_population_grid(resolution_deg=2.0)
        ),
        lat_resolution_deg=4.0,
        time_resolution_hours=2.0,
        metrics_calculator=MetricsCalculator(exposure=ExposureCalculator(step_s=300.0)),
    )
    outcome = designer.design_ssplane(3.0)
    planes = [plane.satellite_elements() for plane in outcome.result.planes]
    epoch = Epoch.from_calendar(2025, 3, 20, 12, 0, 0.0)
    topology = ConstellationTopology(planes=planes, epoch=epoch)

    cities = (
        City("London", 51.5, -0.1, 9.6),
        City("New York", 40.7, -74.0, 20.0),
        City("Tokyo", 35.7, 139.7, 37.0),
        City("Delhi", 28.6, 77.2, 32.0),
        City("Sao Paulo", -23.6, -46.6, 22.0),
        City("Lagos", 6.5, 3.4, 15.0),
    )
    stations = [GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in cities]
    simulator = NetworkSimulator(
        topology=topology,
        ground_stations=stations,
        traffic_model=GravityTrafficModel(cities=cities, total_demand=60.0),
        flows_per_step=20,
    )
    sweep = simulator.run_scenarios(SCENARIOS, epoch, duration_hours=4.0, step_hours=2.0)
    return outcome, sweep


def test_network_over_ss_constellation(benchmark, once):
    outcome, sweep = once(benchmark, _run_simulation)

    print(
        f"\nSS constellation: {outcome.total_satellites} satellites in "
        f"{outcome.metrics.plane_count} planes"
    )
    for name, result in sweep.items():
        print(f"  scenario {name}:")
        for step in result.steps:
            print(
                f"    t={step.utc_hour:05.2f}h offered={step.offered_gbps:.1f} "
                f"delivered={step.delivered_gbps:.1f} reach={step.reachable_fraction:.2f} "
                f"latency={step.mean_latency_ms:.1f}ms"
            )

    assert outcome.total_satellites > 0
    assert list(sweep) == [scenario.name for scenario in SCENARIOS]
    for result in sweep.values():
        assert len(result.steps) == 2
        assert result.mean_delivery_ratio() > 0.0
    baseline, peak = sweep["baseline"], sweep["peak_demand"]
    for light, heavy in zip(baseline.steps, peak.steps):
        assert heavy.offered_gbps > light.offered_gbps
