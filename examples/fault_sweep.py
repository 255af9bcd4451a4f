"""Fault-injection sweep: what the constellation delivers under stress.

Run with:  python examples/fault_sweep.py

The demand sweeps ask how much traffic a healthy constellation carries;
this example asks the resilience question instead -- the one the related
work argues actually matters: availability under *correlated* outages.  One
``run_scenarios`` sweep evaluates the same Walker constellation and traffic
under five conditions sharing one snapshot sequence:

- ``healthy``            -- the baseline every resilience metric compares to;
- ``radiation``          -- high-fluence satellites degraded, failures
                            clustering on South Atlantic Anomaly passes
                            (driven by ``repro.radiation``);
- ``plane_outage``       -- two whole orbital planes lost mid-run
                            (a correlated, common-cause failure);
- ``gs_maintenance``     -- ground stations rotating through periodic
                            maintenance windows;
- ``degraded_links``     -- 30% of satellites at half link capacity.

Fault specs are declarative ``(model, params)`` pairs resolved against the
``repro.network.faults.FAULT_MODELS`` registry, compiled once per sweep
into vectorised per-step outage masks, and applied on top of the shared
snapshot sequence -- so the faulted scenarios cost barely more than the
healthy one, and fixed seeds make the whole sweep reproducible bit for bit
across executors.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.coverage.walker import WalkerDelta
from repro.demand.traffic_matrix import City, GravityTrafficModel
from repro.network.ground_station import GroundStation
from repro.network.simulation import NetworkSimulator, Scenario
from repro.network.topology import ConstellationTopology
from repro.orbits.time import Epoch

CITIES = (
    City("London", 51.5, -0.1, 9.6),
    City("New York", 40.7, -74.0, 20.0),
    City("Tokyo", 35.7, 139.7, 37.0),
    City("Delhi", 28.6, 77.2, 32.0),
    City("Sao Paulo", -23.6, -46.6, 22.0),
    City("Lagos", 6.5, 3.4, 15.0),
)

SCENARIOS = [
    Scenario(name="healthy"),
    Scenario(
        name="radiation",
        faults=("radiation", {"base_rate": 0.03, "exposure_step_s": 300.0, "seed": 3}),
    ),
    Scenario(
        name="plane_outage",
        faults=("plane_outage", {"count": 2, "start_step": 8, "duration_steps": 8, "seed": 7}),
    ),
    Scenario(
        name="gs_maintenance",
        faults=(
            "station_outage",
            {"period_steps": 8, "duration_steps": 2, "stagger_steps": 3},
        ),
    ),
    Scenario(
        name="degraded_links",
        faults=("link_degradation", {"fraction": 0.3, "factor": 0.5, "seed": 5}),
    ),
]


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
    stations = [GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in CITIES]
    simulator = NetworkSimulator(
        topology=topology,
        ground_stations=stations,
        traffic_model=GravityTrafficModel(cities=CITIES, total_demand=60.0),
        flows_per_step=15,
    )

    print(
        f"Fault sweep over a {topology.satellite_count}-satellite Walker "
        "constellation (24 h, 1 h steps, one shared snapshot sequence):"
    )
    sweep = simulator.run_scenarios(SCENARIOS, epoch, duration_hours=24.0)

    healthy = sweep["healthy"]
    rows = []
    for name, result in sweep.items():
        stretch = result.latency_stretch(healthy)
        rows.append(
            [
                name,
                round(result.mean_delivery_ratio(), 3),
                round(result.availability(threshold=0.9), 2),
                round(result.mean_stranded_gbps(), 2),
                "-" if name == "healthy" else f"{stretch:.3f}",
                "-" if name == "healthy" else result.time_to_recover_steps(healthy),
                round(min(step.satellites_up_fraction for step in result.steps), 3),
            ]
        )
    print(
        format_table(
            [
                "scenario",
                "delivery",
                "avail(90%)",
                "stranded Gbps",
                "lat. stretch",
                "recover steps",
                "min sats up",
            ],
            rows,
        )
    )
    print(
        "\nEvery fault scenario is seeded: rerunning this sweep -- serially, "
        "threaded or over a process pool -- reproduces the same numbers."
    )


if __name__ == "__main__":
    main()
