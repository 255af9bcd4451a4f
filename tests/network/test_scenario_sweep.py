"""Tests of the scenario-sweep engine and its equivalence to single runs."""

from __future__ import annotations

import gc
import json
import weakref
from dataclasses import dataclass

import numpy as np
import pytest

from repro.coverage.walker import WalkerDelta
from repro.demand.traffic_matrix import City, GravityTrafficModel
from repro.network import simulation as simulation_module
from repro.network.backends import GatewayRouteTables
from repro.network.flows import reroute_flows, route_flow_table
from repro.network.ground_station import GroundStation
from repro.network.simulation import NetworkSimulator, Scenario, run_grid
from repro.network.steering import CongestionAwareSteering
from repro.network.topology import ConstellationTopology

CITIES = (
    City("London", 51.5, -0.1, 9.6),
    City("New York", 40.7, -74.0, 20.0),
    City("Tokyo", 35.7, 139.7, 37.0),
    City("Sao Paulo", -23.6, -46.6, 22.0),
)


@pytest.fixture(scope="module")
def topology(epoch) -> ConstellationTopology:
    wd = WalkerDelta(
        altitude_km=560.0, inclination_deg=65.0, total_satellites=180, planes=10, phasing=1
    )
    elements = wd.satellite_elements()
    per_plane = wd.satellites_per_plane
    planes = [elements[i * per_plane : (i + 1) * per_plane] for i in range(wd.planes)]
    return ConstellationTopology(planes=planes, epoch=epoch)


@pytest.fixture(scope="module")
def stations() -> list[GroundStation]:
    return [GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in CITIES]


@pytest.fixture(scope="module")
def simulator(topology, stations) -> NetworkSimulator:
    return NetworkSimulator(
        topology=topology,
        ground_stations=stations,
        traffic_model=GravityTrafficModel(cities=CITIES, total_demand=40.0),
        flows_per_step=10,
    )


SCENARIOS = [
    Scenario(name="baseline"),
    Scenario(name="max_min", allocator="max_min_array"),
    Scenario(name="budget", flows_per_step=4),
    Scenario(name="subset", ground_station_names=("London", "Tokyo", "New York")),
]


class TestScenarioValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            Scenario(name="")
        with pytest.raises(ValueError):
            Scenario(name="x", demand_multiplier=0.0)
        with pytest.raises(ValueError):
            Scenario(name="x", demand_multiplier=-2.0)
        for multiplier in (float("nan"), float("inf"), float("-inf"), True, "2", None):
            with pytest.raises(ValueError, match="demand_multiplier"):
                Scenario(name="x", demand_multiplier=multiplier)
        for multiplier in (2, np.int64(3), np.float32(0.5)):
            stored = Scenario(name="x", demand_multiplier=multiplier).demand_multiplier
            assert type(stored) is float and stored == multiplier
        with pytest.raises(ValueError):
            Scenario(name="x", flows_per_step=0)
        for allocator in ("nope", "max_min", "proportional"):
            with pytest.raises(ValueError, match="max_min_array"):
                Scenario(name="x", allocator=allocator)
        with pytest.raises(ValueError):
            Scenario(name="x", faults="nope")
        with pytest.raises(ValueError):
            Scenario(name="x", faults=("random_satellite", {"rate": 2.0}))
        # A bare string used to become one-letter station names, and an
        # empty subset ran a sweep that offered nothing and delivered "all".
        for names in ("London", "", (), []):
            with pytest.raises(ValueError, match="ground_station_names"):
                Scenario(name="x", ground_station_names=names)

    def test_simulator_rejects_non_positive_flow_budget(self, topology, stations):
        # A budget of -3 used to keep all but 3 flows (``order[:-3]``) and a
        # budget of 0 none at all.
        for budget in (0, -3):
            with pytest.raises(ValueError, match="flows_per_step must be positive"):
                NetworkSimulator(
                    topology=topology, ground_stations=stations, flows_per_step=budget
                )

    def test_flow_budget_must_be_an_integer(self, topology, stations):
        # A float budget used to pass construction and then fail mid-sweep
        # inside ``np.argpartition``; ``True`` was taken as a budget of 1.
        for budget in (2.5, 3.0, True, np.bool_(True), "4"):
            with pytest.raises(ValueError, match="flows_per_step must be an integer"):
                Scenario(name="x", flows_per_step=budget)
            with pytest.raises(ValueError, match="flows_per_step must be an integer"):
                NetworkSimulator(
                    topology=topology, ground_stations=stations, flows_per_step=budget
                )
        with pytest.raises(ValueError, match="flows_per_step must be positive"):
            Scenario(name="x", flows_per_step=np.int64(0))

    def test_numpy_integer_budgets_accepted(self, simulator, topology, stations, epoch):
        scenario = Scenario(name="np", flows_per_step=np.int64(4))
        assert scenario.flows_per_step == 4 and type(scenario.flows_per_step) is int
        numpy_default = NetworkSimulator(
            topology=topology,
            ground_stations=stations,
            traffic_model=simulator.traffic_model,
            flows_per_step=np.int32(10),
        )
        assert type(numpy_default.flows_per_step) is int
        swept = numpy_default.run_scenarios([scenario], epoch, 2.0)["np"]
        reference = simulator.run_scenarios([Scenario(name="np", flows_per_step=4)], epoch, 2.0)
        assert swept.steps == reference["np"].steps

    def test_rejects_unknown_executor(self, simulator, epoch):
        # Worker processes are the only pool: an executor choice, even a
        # formerly valid one, is an unknown keyword rather than ignored.
        for executor in ("fleet", "thread", "process"):
            with pytest.raises(TypeError, match="executor"):
                simulator.run_scenarios(
                    [Scenario(name="a")], epoch, 1.0, max_workers=2, executor=executor
                )

    def test_station_names_normalised_to_tuple(self):
        scenario = Scenario(name="x", ground_station_names=["London", "Tokyo"])
        assert scenario.ground_station_names == ("London", "Tokyo")

    def test_sweep_validation(self, simulator, epoch):
        with pytest.raises(ValueError):
            simulator.run_scenarios([], epoch, 1.0)
        with pytest.raises(ValueError):
            simulator.run_scenarios([Scenario(name="a"), Scenario(name="a")], epoch, 1.0)
        with pytest.raises(ValueError):
            simulator.run_scenarios([Scenario(name="a")], epoch, 0.0)
        with pytest.raises(ValueError):
            simulator.run_scenarios(
                [Scenario(name="a", ground_station_names=("Atlantis",))], epoch, 1.0
            )
        nan, inf = float("nan"), float("inf")
        for kwargs, parameter in (
            ({"duration_hours": nan}, "duration_hours"),
            ({"duration_hours": inf}, "duration_hours"),
            ({"step_hours": nan}, "step_hours"),
            ({"step_hours": inf}, "step_hours"),
            ({"max_workers": 0}, "max_workers"),
            ({"max_workers": -3}, "max_workers"),
            ({"max_workers": 2.5}, "max_workers"),
            ({"max_workers": 2.0}, "max_workers"),
            ({"max_workers": True}, "max_workers"),
        ):
            arguments = {"duration_hours": 1.0, **kwargs}
            with pytest.raises(ValueError, match=parameter):
                simulator.run_scenarios([Scenario(name="a")], epoch, **arguments)

    def test_removed_pipeline_choices_rejected(self, simulator, epoch):
        """Only csgraph routing and columnar flows remain; the compatibility
        keywords reject anything else and name the accepted value."""
        with pytest.raises(ValueError, match="csgraph"):
            simulator.run_scenarios([Scenario(name="a")], epoch, 1.0, backend="networkx")
        with pytest.raises(ValueError, match="csgraph"):
            simulator.run_scenarios([Scenario(name="a")], epoch, 1.0, backend="nope")
        with pytest.raises(ValueError, match="columnar"):
            simulator.run_scenarios(
                [Scenario(name="a")], epoch, 1.0, flow_engine="objects"
            )


class TestSweepEquivalence:
    def test_sweep_matches_independent_runs(self, simulator, topology, stations, epoch):
        """Five scenarios through one sweep == five independent runs.

        ``off_peak``'s multiplier is not a power of two, so its scaled
        demands round and the shared flow plan's tie rule runs.
        """
        off_peak = Scenario(name="off_peak", demand_multiplier=0.3)
        scenarios = [*SCENARIOS, off_peak]
        sweep = simulator.run_scenarios(scenarios, epoch, duration_hours=3.0)
        assert list(sweep) == [scenario.name for scenario in scenarios]

        model = simulator.traffic_model
        independent = {
            "baseline": simulator.run(epoch, 3.0),
            "max_min": simulator.run(epoch, 3.0, allocator="max_min_array"),
            "budget": NetworkSimulator(
                topology=topology,
                ground_stations=stations,
                traffic_model=model,
                flows_per_step=4,
            ).run(epoch, 3.0),
            "subset": NetworkSimulator(
                topology=topology,
                ground_stations=[
                    s for s in stations if s.name in ("London", "Tokyo", "New York")
                ],
                traffic_model=model,
                flows_per_step=10,
            ).run(epoch, 3.0),
            "off_peak": simulator.run_scenarios([off_peak], epoch, 3.0)["off_peak"],
        }
        for name, reference in independent.items():
            assert sweep[name].steps == reference.steps

    def test_parallel_sweep_matches_serial(self, simulator, epoch):
        serial = simulator.run_scenarios(SCENARIOS, epoch, duration_hours=2.0)
        pooled = simulator.run_scenarios(
            SCENARIOS, epoch, duration_hours=2.0, max_workers=4
        )
        for name in serial:
            assert serial[name].steps == pooled[name].steps

    def test_demand_multiplier_scales_offered_traffic(self, simulator, epoch):
        sweep = simulator.run_scenarios(
            [Scenario(name="x1"), Scenario(name="x3", demand_multiplier=3.0)],
            epoch,
            duration_hours=2.0,
        )
        for light, heavy in zip(sweep["x1"].steps, sweep["x3"].steps):
            assert heavy.offered_gbps == pytest.approx(3.0 * light.offered_gbps)
            assert heavy.delivered_gbps <= 3.0 * light.delivered_gbps + 1e-9

    def test_run_is_a_single_scenario_sweep(self, simulator, epoch):
        single = simulator.run(epoch, duration_hours=2.0)
        sweep = simulator.run_scenarios([Scenario(name="only")], epoch, duration_hours=2.0)
        assert single.steps == sweep["only"].steps


class _RoutingRecorder:
    """Records every route-table solve and every table a scenario routes on."""

    def __init__(self, monkeypatch):
        self.solves: list = []  # (tables, source_rows); strong references
        self.routes: list = []  # (tables, flow table)
        self.reroutes: list = []  # (tables, flow table, re-walked flow ids)
        solve = GatewayRouteTables.solve.__func__

        def recording_solve(cls, arrays, source_rows):
            tables = solve(cls, arrays, source_rows)
            self.solves.append((tables, np.array(source_rows)))
            return tables

        def recording_route(tables, station_rows, table):
            self.routes.append((tables, table))
            return route_flow_table(tables, station_rows, table)

        def recording_reroute(routed, tables, station_rows, flows):
            self.reroutes.append((tables, routed.table, np.array(flows)))
            return reroute_flows(routed, tables, station_rows, flows)

        monkeypatch.setattr(GatewayRouteTables, "solve", classmethod(recording_solve))
        monkeypatch.setattr(simulation_module, "route_flow_table", recording_route)
        monkeypatch.setattr(simulation_module, "reroute_flows", recording_reroute)


#: Sticky congestion-aware steering: engages the links the first step
#: loads past 0.5 and keeps them, so steering moves flows from step 2 on.
_STICKY_STEERING = CongestionAwareSteering(
    alpha=1.0, enter_band=0.5, exit_band=0.0, cooldown_steps=0
)


class TestRouteTableSharing:
    """A group's base route tables serve its open-loop scenarios as they are
    and its steered scenarios as the start of a partial re-solve."""

    def test_one_base_solve_per_step_and_partial_steered_resolves(
        self, simulator, epoch, monkeypatch
    ):
        recorder = _RoutingRecorder(monkeypatch)
        scenarios = [
            Scenario(name="x1"),
            Scenario(name="x2", demand_multiplier=2.0),
            Scenario(name="budget", flows_per_step=4, allocator="max_min_array"),
            Scenario(name="steered", steering=_STICKY_STEERING),
        ]
        # Minute steps keep the loaded satellite links in view, so links
        # engaged on one step are still routed on the next.
        steps, minute = 3, 1.0 / 60.0
        simulator.run_scenarios(scenarios, epoch, steps * minute, step_hours=minute)
        # One path walk per flow plan per step -- x1, x2 and the steered
        # scenario share the plan of the default budget, "budget" has its
        # own -- on the step's one base solve over every station.
        assert len(recorder.routes) == 2 * steps
        walked_on = [
            any(tables is routed for routed, _ in recorder.routes)
            for tables, _ in recorder.solves
        ]
        base = [entry for entry, walked in zip(recorder.solves, walked_on) if walked]
        private = [entry for entry, walked in zip(recorder.solves, walked_on) if not walked]
        assert len(base) == steps
        for tables, source_rows in base:
            assert np.all(source_rows >= 0) and source_rows.size == len(CITIES)
            walked = [table for routed, table in recorder.routes if routed is tables]
            # Plans are selected on unscaled demand, one per budget.
            assert sorted(table.flow_count for table in walked) == [4, 10]
        # Every other solve is one steered re-solve, for only the sources of
        # the flows it re-walks: a subset of the plan, never a whole solve.
        assert len(private) == len(recorder.reroutes) <= steps
        assert recorder.reroutes
        for (tables, source_rows), (rerouted, table, flows) in zip(
            private, recorder.reroutes
        ):
            assert rerouted is tables
            assert 0 < flows.size < table.flow_count
            solved = np.flatnonzero(source_rows >= 0)
            assert np.array_equal(solved, np.unique(table.src[flows]))

    @pytest.mark.parametrize(
        "scenarios, groups",
        [
            ([Scenario(name="solo", flows_per_step=2)], 1),
            (
                [
                    Scenario(name="a", steering=_STICKY_STEERING),
                    Scenario(name="b", steering="congestion-aware"),
                ],
                1,
            ),
            ([Scenario(name="open"), Scenario(name="steered", steering=_STICKY_STEERING)], 1),
            (
                [
                    Scenario(name="open", flows_per_step=2),
                    Scenario(
                        name="subset",
                        ground_station_names=("London", "Tokyo"),
                        steering=_STICKY_STEERING,
                    ),
                ],
                2,
            ),
        ],
        ids=["sole-open-loop", "steered-only", "mixed", "two-groups"],
    )
    def test_one_base_solve_per_group_per_step(
        self, simulator, epoch, monkeypatch, scenarios, groups
    ):
        recorder = _RoutingRecorder(monkeypatch)
        steps, minute = 3, 1.0 / 60.0
        simulator.run_scenarios(scenarios, epoch, steps * minute, step_hours=minute)
        steered_tables = [tables for tables, _, _ in recorder.reroutes]
        base = [
            (tables, source_rows)
            for tables, source_rows in recorder.solves
            if not any(tables is other for other in steered_tables)
        ]
        # Whoever is in the group, each step solves one base table over all
        # of the group's stations and walks every plan on it; every other
        # solve is a steered re-solve.
        assert len(base) == groups * steps
        assert len(recorder.solves) == len(base) + len(recorder.reroutes)
        assert {rows.size for _, rows in base} == {
            len(simulator._station_subset(scenario)) for scenario in scenarios
        }
        for _, source_rows in base:
            assert np.all(source_rows >= 0)
        assert len(recorder.routes) == groups * steps
        for routed, _ in recorder.routes:
            assert any(routed is tables for tables, _ in base)

    def test_steered_only_group_matches_runs_beside_open_loop(self, simulator, epoch):
        steered = [
            Scenario(name="a", steering=_STICKY_STEERING),
            Scenario(name="b", steering="congestion-aware", demand_multiplier=2.0),
        ]
        steps, minute = 3, 1.0 / 60.0
        alone = simulator.run_scenarios(steered, epoch, steps * minute, step_hours=minute)
        for scenario in steered:
            beside = simulator.run_scenarios(
                [Scenario(name="open"), scenario], epoch, steps * minute, step_hours=minute
            )[scenario.name]
            assert beside.steps == alone[scenario.name].steps


@dataclass(frozen=True)
class _FailingSteering(CongestionAwareSteering):
    """A steering policy whose controller cannot be built (in the worker)."""

    def controller(self):
        raise ZeroDivisionError("steering state exploded")


class TestProcessExecutor:
    def test_process_sweep_matches_serial_csgraph_exactly(self, simulator, epoch):
        """Workers run the serial step kernel on identical inputs, so the
        process pool must reproduce the serial sweep bit for bit."""
        serial = simulator.run_scenarios(SCENARIOS, epoch, duration_hours=2.0)
        pooled = simulator.run_scenarios(
            SCENARIOS, epoch, duration_hours=2.0, max_workers=2
        )
        for name in serial:
            assert pooled[name].steps == serial[name].steps

    def test_process_worker_runs_the_serial_kernel(self, simulator, epoch):
        """Called in-process on shipped per-group edge lists, the worker
        reproduces the serial sweep exactly: one loop, one step kernel."""
        from repro.network.simulation import _ScenarioSpec, _sweep_process_worker

        scenario = SCENARIOS[3]
        subset = simulator._station_subset(scenario)
        sequence = simulator.topology.snapshot_sequence(
            [epoch.add_seconds(3600.0 * hour) for hour in range(2)],
            [s for s in simulator.ground_stations if s.name in subset],
        )
        spec = _ScenarioSpec(
            scenario=scenario,
            station_names=subset,
            flows_per_step=simulator.flows_per_step,
            group=0,
        )
        utc_hours = [(epoch.fraction_of_day() * 24.0 + hour) % 24.0 for hour in range(2)]
        worker = _sweep_process_worker(
            [spec], {0: sequence.edge_lists(subset)}, utc_hours, simulator.traffic_model, False
        )
        serial = simulator.run_scenarios([scenario], epoch, duration_hours=2.0)
        assert worker[scenario.name].steps == serial[scenario.name].steps

    def test_worker_failure_names_its_scenarios(self, simulator, epoch):
        """A scenario raising inside a worker process fails the sweep with
        the names of that worker's scenarios, chained to the original error."""
        scenarios = [
            Scenario(name="ok-a"),
            Scenario(name="broken", steering=_FailingSteering()),
            Scenario(name="ok-b"),
            Scenario(name="ok-c"),
        ]
        # Two workers take every other scenario: broken shares with ok-c.
        with pytest.raises(RuntimeError, match=r"\['broken', 'ok-c'\]") as caught:
            simulator.run_scenarios(scenarios, epoch, duration_hours=1.0, max_workers=2)
        assert "ok-a" not in str(caught.value)
        assert isinstance(caught.value.__cause__, ZeroDivisionError)
        assert "steering state exploded" in str(caught.value.__cause__)

    def test_single_worker_process_request_falls_back_to_serial(
        self, simulator, epoch
    ):
        result = simulator.run_scenarios(
            [Scenario(name="only")], epoch, duration_hours=1.0, max_workers=1
        )
        reference = simulator.run(epoch, duration_hours=1.0)
        assert result["only"].steps == reference.steps

    def test_one_scenario_never_starts_a_pool(self, simulator, epoch, monkeypatch):
        """With one scenario there is nothing to spread, so more workers
        than scenarios runs serially instead of shipping every step's edge
        lists to a single child."""

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-scenario sweep started a process pool")

        monkeypatch.setattr(simulation_module, "ProcessPoolExecutor", no_pool)
        scenario = Scenario(name="only", steering="congestion-aware", telemetry="exact")
        pooled = simulator.run_scenarios([scenario], epoch, 2.0, max_workers=4)
        serial = simulator.run_scenarios([scenario], epoch, 2.0)
        assert pooled["only"].steps == serial["only"].steps
        assert pooled["only"].link_telemetry.total() == serial["only"].link_telemetry.total()


class TestRunGrid:
    def test_grid_cells_match_per_design_sweeps(
        self, topology, stations, epoch, tmp_path
    ):
        model = GravityTrafficModel(cities=CITIES, total_demand=40.0)
        small = ConstellationTopology(
            planes=topology.planes[:5], epoch=epoch, isl_config=topology.isl_config
        )
        designs = {"full": topology, "half": small}
        scenarios = [Scenario(name="base"), Scenario(name="heavy", demand_multiplier=2.0)]
        output = tmp_path / "grid.json"
        cells = run_grid(
            designs,
            scenarios,
            stations,
            epoch,
            duration_hours=2.0,
            traffic_model=model,
            flows_per_step=6,
            output_path=output,
        )
        assert set(cells) == {
            ("full", "base"),
            ("full", "heavy"),
            ("half", "base"),
            ("half", "heavy"),
        }
        for design_name, design in designs.items():
            simulator = NetworkSimulator(
                topology=design,
                ground_stations=stations,
                traffic_model=model,
                flows_per_step=6,
            )
            sweep = simulator.run_scenarios(scenarios, epoch, duration_hours=2.0)
            for scenario in scenarios:
                assert cells[(design_name, scenario.name)].steps == sweep[
                    scenario.name
                ].steps

        document = json.loads(output.read_text())
        assert document["designs"] == ["full", "half"]
        assert document["scenarios"] == ["base", "heavy"]
        assert len(document["cells"]) == 4
        by_key = {
            (cell["design"], cell["scenario"]): cell for cell in document["cells"]
        }
        for key, result in cells.items():
            cell = by_key[key]
            assert cell["mean_delivery_ratio"] == pytest.approx(
                result.mean_delivery_ratio()
            )
            assert len(cell["steps"]) == len(result.steps)
            assert cell["steps"][0]["offered_gbps"] == pytest.approx(
                result.steps[0].offered_gbps
            )

    def test_grid_requires_designs(self, stations, epoch):
        with pytest.raises(ValueError):
            run_grid({}, [Scenario(name="a")], stations, epoch, 1.0)

    def test_grid_validates_time_grid_before_any_work(self, topology, stations, epoch):
        for kwargs, parameter in (
            ({"step_hours": float("nan")}, "step_hours"),
            ({"max_workers": 0}, "max_workers"),
            ({"max_workers": 2.5}, "max_workers"),
            ({"max_workers": True}, "max_workers"),
        ):
            with pytest.raises(ValueError, match=parameter):
                run_grid(
                    {"only": topology},
                    [Scenario(name="a")],
                    stations,
                    epoch,
                    1.0,
                    progress=lambda event: None,
                    **kwargs,
                )

    def test_grid_json_stays_strict_with_unreachable_steps(
        self, topology, epoch, tmp_path
    ):
        """Unroutable flows leave inf/nan latencies; the persisted JSON must
        encode them as null, not the non-standard Infinity/NaN tokens."""
        cities = (CITIES[0], City("Blind", 0.0, 0.0, 10.0))
        stations = [
            GroundStation(CITIES[0].name, CITIES[0].latitude_deg, CITIES[0].longitude_deg),
            # A near-vertical mask keeps this endpoint satellite-less.
            GroundStation("Blind", 0.0, 0.0, min_elevation_deg=89.9),
        ]
        output = tmp_path / "grid.json"
        cells = run_grid(
            {"only": topology},
            [Scenario(name="s")],
            stations,
            epoch,
            duration_hours=1.0,
            traffic_model=GravityTrafficModel(cities=cities, total_demand=10.0),
            flows_per_step=4,
            output_path=output,
        )
        assert all(
            not np.isfinite(step.mean_latency_ms)
            for step in cells[("only", "s")].steps
        )
        document = json.loads(
            output.read_text(),
            parse_constant=lambda token: pytest.fail(
                f"non-strict JSON token {token!r} in grid file"
            ),
        )
        cell = document["cells"][0]
        assert cell["mean_latency_ms"] is None
        assert all(step["mean_latency_ms"] is None for step in cell["steps"])


    def test_grid_write_is_atomic(self, topology, stations, epoch, tmp_path, monkeypatch):
        """A serialisation failure must leave the previous grid file
        byte-identical and no temporary file behind."""
        output = tmp_path / "grid.json"
        output.write_bytes(b'{"previous": "grid"}')
        arguments = dict(
            traffic_model=GravityTrafficModel(cities=CITIES, total_demand=40.0),
            flows_per_step=4,
            output_path=output,
        )

        def failing_dump(document, stream, **kwargs):
            stream.write('{"cells": [')  # a partial document, then failure
            raise RuntimeError("disk full")

        monkeypatch.setattr(json, "dump", failing_dump)
        with pytest.raises(RuntimeError, match="disk full"):
            run_grid({"only": topology}, [Scenario(name="s")], stations, epoch, 1.0, **arguments)
        assert output.read_bytes() == b'{"previous": "grid"}'
        assert [path.name for path in tmp_path.iterdir()] == ["grid.json"]

        monkeypatch.undo()
        run_grid({"only": topology}, [Scenario(name="s")], stations, epoch, 1.0, **arguments)
        assert json.loads(output.read_text())["designs"] == ["only"]
        assert [path.name for path in tmp_path.iterdir()] == ["grid.json"]


class TestTrafficMatrixLifetime:
    def test_no_step_keeps_an_earlier_matrix(self, topology, stations, epoch):
        """Every step builds its hour's matrix and drops it: when a step asks
        for its matrix, at most one earlier one is alive, and none is once
        the run has returned."""
        returned: list[weakref.ref] = []
        alive_at_call: list[int] = []

        class CountingModel(GravityTrafficModel):
            def matrix_at(self, utc_hour):
                alive_at_call.append(sum(ref() is not None for ref in returned))
                matrix = super().matrix_at(utc_hour)
                returned.append(weakref.ref(matrix))
                return matrix

        model = CountingModel(cities=CITIES, total_demand=40.0)
        simulator = NetworkSimulator(
            topology=topology,
            ground_stations=stations,
            traffic_model=model,
            flows_per_step=4,
        )
        # Two full days at 1-hour steps: each of the 48 steps builds its
        # own matrix, although only 24 hours are distinct.
        result = simulator.run(epoch, duration_hours=48.0, step_hours=1.0)
        assert len(result.steps) == len(returned) == 48
        assert max(alive_at_call) <= 1
        gc.collect()
        assert all(ref() is None for ref in returned)
