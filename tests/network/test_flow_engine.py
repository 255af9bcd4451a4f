"""Tests of the columnar flow stages and their sweep-level behaviour.

Selection is checked against a per-flow oracle (``flow_oracles``), bulk
path export against lazy per-destination reconstruction, and sweeps for
exact equality across executors (no tolerances: every executor runs the
same step kernel over identically ordered arrays, so any drift is a real
ordering bug).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coverage.walker import WalkerDelta
from repro.demand.traffic_matrix import City, GravityTrafficModel, TrafficMatrix
from repro.network.flows import route_flow_table, select_flow_table
from repro.network.ground_station import GroundStation
from repro.network.routing import SnapshotRouter
from repro.network.simulation import NetworkSimulator, Scenario
from repro.network.topology import ConstellationTopology

from flow_oracles import select_flows, table_candidates

CITIES = (
    City("London", 51.5, -0.1, 9.6),
    City("New York", 40.7, -74.0, 20.0),
    City("Tokyo", 35.7, 139.7, 37.0),
    City("Sao Paulo", -23.6, -46.6, 22.0),
)
NAMES = tuple(city.name for city in CITIES)


@pytest.fixture(scope="module")
def simulator(epoch) -> NetworkSimulator:
    wd = WalkerDelta(
        altitude_km=560.0, inclination_deg=65.0, total_satellites=180, planes=10, phasing=1
    )
    elements = wd.satellite_elements()
    per_plane = wd.satellites_per_plane
    planes = [elements[i * per_plane : (i + 1) * per_plane] for i in range(wd.planes)]
    topology = ConstellationTopology(planes=planes, epoch=epoch)
    stations = [GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in CITIES]
    return NetworkSimulator(
        topology=topology,
        ground_stations=stations,
        traffic_model=GravityTrafficModel(cities=CITIES, total_demand=40.0),
        flows_per_step=10,
    )


class TestSelection:
    def test_columnar_selection_matches_object_selection(self):
        matrix = GravityTrafficModel(cities=CITIES, total_demand=40.0).matrix_at(12.0)
        for budget in (1, 3, 7, 12, 50):
            for multiplier in (1.0, 2.5):
                reference = select_flows(
                    matrix, NAMES, budget, demand_multiplier=multiplier
                )
                table = select_flow_table(
                    matrix, NAMES, budget, demand_multiplier=multiplier
                )
                assert table_candidates(table) == reference

    def test_tie_break_at_budget_boundary_is_deterministic(self):
        # Regression: with every off-diagonal demand equal, the old
        # demand-only sort key left the budget cut to the matrix iteration
        # order.  The (-demand, src, dst) key makes the cut deterministic
        # and identical to the oracle's.
        demands = np.full((4, 4), 2.0)
        np.fill_diagonal(demands, 0.0)
        matrix = TrafficMatrix(cities=CITIES, demands=demands)
        expected = sorted(
            (src, dst) for src in NAMES for dst in NAMES if src != dst
        )[:5]
        reference = select_flows(matrix, NAMES, 5, 1.0)
        assert [(src, dst) for src, dst, _ in reference] == expected
        table = select_flow_table(matrix, NAMES, 5)
        assert table_candidates(table) == reference

    def test_station_subset_and_missing_names_handled(self):
        matrix = GravityTrafficModel(cities=CITIES, total_demand=40.0).matrix_at(0.0)
        subset = ("Tokyo", "London", "Atlantis")
        reference = select_flows(matrix, subset, 10, 1.0)
        table = select_flow_table(matrix, subset, 10)
        assert table_candidates(table) == reference
        assert {src for src, _, _ in table_candidates(table)} <= {"Tokyo", "London"}


class TestBulkPathExport:
    def test_bulk_rows_match_lazy_reconstruction(self, simulator, epoch):
        sequence = simulator.topology.snapshot_sequence(
            [epoch], simulator.ground_stations
        )
        edge_list = sequence.edge_list(0)
        router = SnapshotRouter(backend="csgraph", arrays=edge_list.arrays())
        table = router.routes_from_many(["gs:London"])["gs:London"]
        node_index = table.node_index

        labels = [f"gs:{name}" for name in ("New York", "Tokyo", "Sao Paulo")]
        dest_rows = [node_index.index_of(label) for label in labels]
        dest_rows.append(-1)  # unknown destination: empty segment, inf latency
        offsets, rows, latency = table.bulk_path_rows(
            np.asarray(dest_rows, dtype=np.int64)
        )

        assert offsets[0] == 0 and offsets[-1] == rows.size
        for position, label in enumerate(labels):
            segment = rows[offsets[position] : offsets[position + 1]]
            reference = table[label]
            assert [node_index.label_of(int(row)) for row in segment] == list(
                reference.path
            )
            assert latency[position] == reference.latency_ms
        assert offsets[-2] == offsets[-1]  # the unknown destination
        assert np.isinf(latency[-1])


    def test_route_flow_table_requires_array_backend(self, simulator, epoch):
        sequence = simulator.topology.snapshot_sequence(
            [epoch], simulator.ground_stations
        )
        matrix = simulator.traffic_model.matrix_at(12.0)
        table = select_flow_table(matrix, NAMES, 5)
        graph_router = SnapshotRouter(sequence.edge_list(0).graph(), backend="networkx")
        with pytest.raises(ValueError, match="array-native"):
            route_flow_table(graph_router, table)


SCENARIOS = [
    Scenario(name="proportional_array", allocator="proportional_array"),
    Scenario(name="max_min_array", allocator="max_min_array"),
    Scenario(name="budget", flows_per_step=4, telemetry="exact"),
    Scenario(
        name="subset",
        ground_station_names=("London", "Tokyo", "New York"),
        telemetry="auto",
    ),
]


class TestEngineEquivalence:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_executors_agree_with_serial_columnar(self, simulator, epoch, executor):
        serial = simulator.run_scenarios(SCENARIOS, epoch, duration_hours=2.0)
        pooled = simulator.run_scenarios(
            SCENARIOS, epoch, duration_hours=2.0, executor=executor, max_workers=2
        )
        for scenario in SCENARIOS:
            assert pooled[scenario.name].steps == serial[scenario.name].steps

    def test_invalid_flow_engine_rejected(self, simulator, epoch):
        with pytest.raises(ValueError):
            Scenario(name="x", telemetry="census")
        for engine in ("objects", "rows"):
            with pytest.raises(ValueError, match="'columnar'"):
                simulator.run_scenarios([Scenario(name="a")], epoch, 1.0, flow_engine=engine)


class TestSweepTelemetry:
    def _sweep(self, simulator, epoch, **kwargs):
        return simulator.run_scenarios(
            [Scenario(name="t", telemetry="exact", allocator="max_min_array")],
            epoch,
            duration_hours=3.0,
            **kwargs,
        )

    def test_aggregate_totals_offered_demand(self, simulator, epoch):
        result = self._sweep(simulator, epoch)["t"]
        assert result.telemetry is not None
        offered = sum(step.offered_gbps for step in result.steps)
        assert result.telemetry.total_gbps() == pytest.approx(offered)
        assert result.telemetry.top_pairs(3)
        for step in result.steps:
            assert step.top_pairs
            values = [value for _, _, value in step.top_pairs]
            assert values == sorted(values, reverse=True)

    def test_executors_agree_on_telemetry(self, simulator, epoch):
        serial = self._sweep(simulator, epoch)["t"]
        process = self._sweep(simulator, epoch, executor="process", max_workers=2)["t"]
        assert process.telemetry.top_pairs(5) == serial.telemetry.top_pairs(5)
        assert process.telemetry.total_gbps() == serial.telemetry.total_gbps()

    def test_scenario_without_telemetry_has_none(self, simulator, epoch):
        result = simulator.run_scenarios([Scenario(name="quiet")], epoch, 1.0)["quiet"]
        assert result.telemetry is None
        assert all(step.top_pairs == () for step in result.steps)
