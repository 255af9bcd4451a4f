"""Golden regression test: exact per-step statistics of a recorded sweep.

A small sweep covering both array solvers, a fault scenario (plane outage
plus dead links), an adaptive steering policy and sketch telemetry is run
under the serial, thread and process executors, and every
:class:`StepStatistics` field must match the committed record bit for bit.
This is the bit-identity guard of the sweep engine: a refactor that changes
any float of any step fails here.

To re-record after a deliberate behaviour change::

    PYTHONPATH=src python tests/network/test_golden_statistics.py --record
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.coverage.walker import WalkerDelta
from repro.demand.traffic_matrix import City, GravityTrafficModel
from repro.network.faults import FaultSpec
from repro.network.ground_station import GroundStation
from repro.network.simulation import NetworkSimulator, Scenario
from repro.network.topology import ConstellationTopology
from repro.orbits.time import Epoch

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_sweep_statistics.json"

CITIES = (
    City("London", 51.5, -0.1, 9.6),
    City("New York", 40.7, -74.0, 20.0),
    City("Tokyo", 35.7, 139.7, 37.0),
    City("Sao Paulo", -23.6, -46.6, 22.0),
    City("Lagos", 6.5, 3.4, 15.0),
    City("Mumbai", 19.1, 72.9, 21.0),
    City("Sydney", -33.9, 151.2, 5.3),
    City("Mexico City", 19.4, -99.1, 21.8),
)

FAULTS = (
    FaultSpec("plane_outage", {"count": 1, "seed": 7}),
    FaultSpec("link_degradation", {"factor": 0.0, "fraction": 0.1, "seed": 11}),
)

SCENARIOS = [
    Scenario(name="proportional", allocator="proportional_array", telemetry="sketch"),
    Scenario(name="max_min", allocator="max_min_array", demand_multiplier=2.0),
    Scenario(name="faults", allocator="proportional_array", faults=FAULTS),
    Scenario(
        name="steered",
        allocator="max_min_array",
        faults=FAULTS,
        steering="congestion-aware",
        telemetry="sketch",
    ),
    Scenario(
        name="subset",
        allocator="proportional_array",
        ground_station_names=("London", "Tokyo", "Lagos", "Sydney"),
        flows_per_step=5,
    ),
]

EXECUTORS = {
    "serial": {},
    "thread": {"max_workers": 2},
    "process": {"max_workers": 2, "executor": "process"},
}


def build_simulator() -> NetworkSimulator:
    start = Epoch.from_calendar(2025, 3, 20, 12, 0, 0.0)
    walker = WalkerDelta(
        altitude_km=560.0, inclination_deg=65.0, total_satellites=180, planes=10, phasing=1
    )
    elements = walker.satellite_elements()
    per_plane = walker.satellites_per_plane
    topology = ConstellationTopology(
        planes=[elements[i * per_plane : (i + 1) * per_plane] for i in range(walker.planes)],
        epoch=start,
    )
    return NetworkSimulator(
        topology=topology,
        ground_stations=[
            GroundStation(city.name, city.latitude_deg, city.longitude_deg) for city in CITIES
        ],
        traffic_model=GravityTrafficModel(cities=CITIES, total_demand=60.0),
        flows_per_step=20,
    )


def run_sweep(simulator: NetworkSimulator, **executor) -> dict:
    """Run the golden sweep and return its statistics as JSON-ready records."""
    results = simulator.run_scenarios(
        SCENARIOS,
        Epoch.from_calendar(2025, 3, 20, 12, 0, 0.0),
        duration_hours=4.0,
        backend="csgraph",
        flow_engine="columnar",
        **executor,
    )
    return {
        name: [asdict(step) for step in result.steps] for name, result in results.items()
    }


def canonical(records: dict) -> str:
    """One text form for recorded and fresh statistics (tuples become lists)."""
    return json.dumps(json.loads(json.dumps(records)), sort_keys=True)


@pytest.fixture(scope="module")
def simulator() -> NetworkSimulator:
    return build_simulator()


@pytest.fixture(scope="module")
def golden() -> str:
    return canonical(json.loads(GOLDEN_PATH.read_text()))


@pytest.mark.parametrize("executor", sorted(EXECUTORS))
def test_statistics_match_golden_record(simulator, golden, executor):
    assert canonical(run_sweep(simulator, **EXECUTORS[executor])) == golden


def test_golden_sweep_exercises_every_feature(golden):
    """Guard against a record that silently stopped covering its features."""
    record = json.loads(golden)
    assert set(record) == {scenario.name for scenario in SCENARIOS}
    assert any(step["top_pairs"] for step in record["proportional"])
    assert any(step["satellites_up_fraction"] < 1.0 for step in record["faults"])
    assert any(step["stranded_gbps"] > 0.0 for step in record["faults"])
    assert any(step["steering_reroutes"] > 0 for step in record["steered"])
    assert any(step["worst_link_utilisation"] >= 1.0 for step in record["max_min"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(run_sweep(build_simulator()), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
