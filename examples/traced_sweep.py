"""Observability: a traced sweep with live progress and a stage breakdown.

Run with:  python examples/traced_sweep.py

Long sweeps are opaque without instrumentation: you learn the wall clock
when it ends and nothing about where it went.  This example runs one
scenario sweep twice through ``repro.obs``:

* ``progress=StderrProgress()`` streams a rate-limited progress line to
  stderr while the sweep runs -- completed cells, EWMA-smoothed cells/s,
  ETA, and the hottest per-stage running means;
* ``instrument=True`` attaches a mergeable ``RunMetrics`` to every
  result: per-stage durations and call counts, deterministic flow
  counters, and working-set gauges (edge-list bytes, flow-table bytes,
  steering state), rendered here by the ``"table"`` and ``"json"``
  exporters from the ``OBS_EXPORTERS`` registry.

Tracing never touches pipeline values, so an instrumented sweep's
``StepStatistics`` are bit-identical to an untraced run -- instrumentation
is free to leave on in tests and benchmarks.
"""

from __future__ import annotations

from repro.coverage.walker import WalkerDelta
from repro.demand.traffic_matrix import City, GravityTrafficModel
from repro.network.ground_station import GroundStation
from repro.network.simulation import NetworkSimulator, Scenario
from repro.network.topology import ConstellationTopology
from repro.obs import StderrProgress, get_exporter
from repro.orbits.time import Epoch

CITIES = (
    City("London", 51.5, -0.1, 9.6),
    City("New York", 40.7, -74.0, 20.0),
    City("Tokyo", 35.7, 139.7, 37.0),
    City("Sao Paulo", -23.6, -46.6, 22.0),
    City("Delhi", 28.6, 77.2, 32.0),
    City("Lagos", 6.5, 3.4, 15.0),
)


def build_simulator(epoch: Epoch) -> NetworkSimulator:
    wd = WalkerDelta(
        altitude_km=560.0,
        inclination_deg=65.0,
        total_satellites=180,
        planes=10,
        phasing=1,
    )
    elements = wd.satellite_elements()
    per_plane = wd.satellites_per_plane
    topology = ConstellationTopology(
        planes=[
            elements[i * per_plane : (i + 1) * per_plane] for i in range(wd.planes)
        ],
        epoch=epoch,
    )
    return NetworkSimulator(
        topology=topology,
        ground_stations=[
            GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in CITIES
        ],
        traffic_model=GravityTrafficModel(cities=CITIES, total_demand=60.0),
        flows_per_step=30,
    )


def main() -> None:
    epoch = Epoch.from_calendar(2025, 3, 20, 12, 0, 0.0)
    simulator = build_simulator(epoch)
    scenarios = [
        Scenario(name="open-loop", allocator="proportional_array"),
        Scenario(
            name="steered",
            allocator="proportional_array",
            steering="congestion-aware",
        ),
        Scenario(name="2x-demand", allocator="proportional_array", demand_multiplier=2.0),
    ]

    print("== traced 24 h sweep (progress on stderr) ==")
    results = simulator.run_scenarios(
        scenarios,
        epoch,
        duration_hours=24.0,
        instrument=True,
        progress=StderrProgress(min_interval_s=0.2),
    )

    table = get_exporter("table")
    for name, result in results.items():
        print(f"\n-- {name}: delivery {result.mean_delivery_ratio():.3f} --")
        print(table.render(result.metrics))

    # The "json" exporter emits the full document (histograms included) for
    # benchmark records and CI artifacts; show a slice of it here.
    document = get_exporter("json").render(results["steered"].metrics)
    print("\njson export (first 3 lines):")
    print("\n".join(document.splitlines()[:3]) + "\n  ...")


if __name__ == "__main__":
    main()
