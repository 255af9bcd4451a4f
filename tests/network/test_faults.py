"""Tests of the fault-injection subsystem: specs, schedules, masked
sequences, sweep equivalence across executors, and resilience
metrics."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.coverage.walker import WalkerDelta
from repro.demand.traffic_matrix import City, GravityTrafficModel
from repro.network import simulation as simulation_module
from repro.network.faults import (
    FAULT_MODELS,
    FaultContext,
    FaultSchedule,
    FaultSpec,
    compile_faults,
    get_fault_model,
)
from repro.network.ground_station import GroundStation
from repro.network.simulation import NetworkSimulator, Scenario
from repro.network.topology import ConstellationTopology, MultiShellTopology
from repro.orbits.time import epoch_range

CITIES = (
    City("London", 51.5, -0.1, 9.6),
    City("New York", 40.7, -74.0, 20.0),
    City("Tokyo", 35.7, 139.7, 37.0),
)

STATION_NAMES = tuple(city.name for city in CITIES)


def _walker_topology(epoch, satellites=60, planes=5) -> ConstellationTopology:
    wd = WalkerDelta(
        altitude_km=560.0,
        inclination_deg=65.0,
        total_satellites=satellites,
        planes=planes,
        phasing=1,
    )
    elements = wd.satellite_elements()
    per_plane = wd.satellites_per_plane
    return ConstellationTopology(
        planes=[elements[i * per_plane : (i + 1) * per_plane] for i in range(wd.planes)],
        epoch=epoch,
    )


@pytest.fixture(scope="module")
def topology(epoch) -> ConstellationTopology:
    return _walker_topology(epoch)


@pytest.fixture(scope="module")
def stations() -> list[GroundStation]:
    return [GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in CITIES]


@pytest.fixture(scope="module")
def context(topology, epoch) -> FaultContext:
    epochs = epoch_range(epoch, 4 * 3600.0, 3600.0)
    return FaultContext(topology, epochs, STATION_NAMES)


@pytest.fixture(scope="module")
def simulator(topology, stations) -> NetworkSimulator:
    return NetworkSimulator(
        topology=topology,
        ground_stations=stations,
        traffic_model=GravityTrafficModel(cities=CITIES, total_demand=40.0),
        flows_per_step=8,
    )


class TestFaultSpecValidation:
    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown fault model"):
            FaultSpec("meteor_strike")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            FaultSpec("random_satellite", {"probability": 0.1})

    def test_malformed_parameter_values_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            FaultSpec("random_satellite", {"rate": 1.5})
        with pytest.raises(ValueError, match="duration_steps"):
            FaultSpec("random_satellite", {"duration_steps": 0})
        with pytest.raises(ValueError, match="scope"):
            FaultSpec("plane_outage", {"scope": "hemisphere"})
        with pytest.raises(ValueError, match="requires either"):
            FaultSpec("station_outage")
        with pytest.raises(ValueError, match="factor"):
            FaultSpec("link_degradation", {"factor": -0.5})
        with pytest.raises(ValueError, match="saa_boost"):
            FaultSpec("radiation", {"saa_boost": 0.2})

    def test_specs_hash_and_compare_by_value(self):
        a = FaultSpec("plane_outage", {"count": 2, "seed": 5})
        b = FaultSpec("plane_outage", {"seed": 5, "count": 2})
        assert a == b
        assert hash(a) == hash(b)
        assert a != FaultSpec("plane_outage", {"count": 2, "seed": 6})

    def test_registry_names(self):
        assert set(FAULT_MODELS) == {
            "random_satellite",
            "plane_outage",
            "radiation",
            "station_outage",
            "link_degradation",
        }
        with pytest.raises(ValueError, match="available"):
            get_fault_model("nope")


class TestScenarioFaultValidation:
    def test_faults_normalised_from_friendly_forms(self):
        by_name = Scenario(name="a", faults="random_satellite")
        assert by_name.faults == (FaultSpec("random_satellite"),)
        by_pair = Scenario(name="b", faults=("plane_outage", {"count": 2}))
        assert by_pair.faults == (FaultSpec("plane_outage", {"count": 2}),)
        by_list = Scenario(
            name="c",
            faults=[FaultSpec("random_satellite"), ("plane_outage", {"count": 1})],
        )
        assert len(by_list.faults) == 2
        assert Scenario(name="d", faults=[]).faults is None
        assert Scenario(name="e").faults is None

    def test_malformed_faults_rejected_at_construction(self):
        with pytest.raises(ValueError, match="malformed fault spec"):
            Scenario(name="a", faults=123)
        with pytest.raises(ValueError, match="malformed fault spec"):
            Scenario(name="a", faults=[("plane_outage", 2)])
        with pytest.raises(ValueError, match="unknown fault model"):
            Scenario(name="a", faults="meteor_strike")
        with pytest.raises(ValueError, match="unknown parameters"):
            Scenario(name="a", faults=("random_satellite", {"probability": 0.5}))

    def test_nan_and_negative_demand_multiplier_rejected(self):
        with pytest.raises(ValueError, match="demand_multiplier"):
            Scenario(name="a", demand_multiplier=-1.0)
        with pytest.raises(ValueError, match="demand_multiplier"):
            Scenario(name="a", demand_multiplier=float("nan"))


class TestScheduleCompilation:
    def test_fixed_seed_compilation_is_deterministic(self, context):
        spec = FaultSpec("random_satellite", {"rate": 0.2, "seed": 11})
        first = compile_faults((spec,), context)
        second = compile_faults((spec,), context)
        assert np.array_equal(first.satellite_up, second.satellite_up)
        assert np.array_equal(first.satellite_factor, second.satellite_factor)
        assert np.array_equal(first.station_up, second.station_up)
        other = compile_faults(
            (FaultSpec("random_satellite", {"rate": 0.2, "seed": 12}),), context
        )
        assert not np.array_equal(first.satellite_up, other.satellite_up)

    def test_plane_outage_kills_whole_planes_in_window(self, context, topology):
        spec = FaultSpec(
            "plane_outage",
            {"groups": [0, 2], "start_step": 1, "duration_steps": 2},
        )
        schedule = compile_faults((spec,), context)
        planes = np.array([node.plane_index for node in topology.nodes])
        member = np.isin(planes, [0, 2])
        assert schedule.satellite_up[0].all()
        assert schedule.satellite_up[3].all()
        for step in (1, 2):
            assert not schedule.satellite_up[step, member].any()
            assert schedule.satellite_up[step, ~member].all()
        assert schedule.satellites_up_fraction(1) == pytest.approx(
            1.0 - member.mean()
        )

    def test_shell_scope_uses_shell_membership(self, epoch):
        shells = MultiShellTopology(
            shells=[_walker_topology(epoch, 20, 2), _walker_topology(epoch, 20, 2)]
        )
        context = FaultContext(shells, epoch_range(epoch, 2 * 3600.0, 3600.0), ())
        schedule = compile_faults(
            (FaultSpec("plane_outage", {"scope": "shell", "groups": [1]}),), context
        )
        assert schedule.satellite_up[:, :20].all()
        assert not schedule.satellite_up[:, 20:].any()

    def test_station_maintenance_windows_are_periodic_and_staggered(self, context):
        spec = FaultSpec(
            "station_outage",
            {
                "period_steps": 4,
                "duration_steps": 1,
                "stagger_steps": 1,
                "stations": ["London", "Tokyo"],
            },
        )
        schedule = compile_faults((spec,), context)
        london = schedule.station_column("London")
        tokyo = schedule.station_column("Tokyo")
        new_york = schedule.station_column("New York")
        assert not schedule.station_up[0, london]
        assert schedule.station_up[1:4, london].all()
        assert not schedule.station_up[1, tokyo]
        assert schedule.station_up[:, new_york].all()
        assert schedule.stations_up_fraction(0, ("London", "Tokyo")) == 0.5

    def test_link_degradation_sets_capacity_factors(self, context):
        spec = FaultSpec(
            "link_degradation",
            {"satellites": [3, 7], "factor": 0.25, "start_step": 1},
        )
        schedule = compile_faults((spec,), context)
        assert schedule.satellite_factor[0].min() == 1.0
        assert schedule.satellite_factor[1, 3] == 0.25
        assert schedule.satellite_factor[1, 7] == 0.25
        assert schedule.satellite_up.all()  # degradation never kills nodes

    def test_radiation_model_degrades_high_fluence_satellites(self, context):
        spec = FaultSpec(
            "radiation",
            {
                "base_rate": 0.05,
                "degraded_fraction": 0.25,
                "degraded_factor": 0.5,
                "exposure_step_s": 300.0,
                "seed": 2,
            },
        )
        schedule = compile_faults((spec,), context)
        degraded = schedule.satellite_factor[0] < 1.0
        # Roughly the top fluence quartile is degraded (ties may widen it).
        assert degraded.mean() >= 0.2
        assert (schedule.satellite_factor[0][degraded] == 0.5).all()
        # Deterministic: recompiling reproduces the same outages.
        again = compile_faults((spec,), context)
        assert np.array_equal(schedule.satellite_up, again.satellite_up)

    def test_specs_compose_and_schedules_combine(self, context):
        combined = compile_faults(
            (
                FaultSpec("plane_outage", {"groups": [0]}),
                FaultSpec("link_degradation", {"satellites": [20], "factor": 0.5}),
            ),
            context,
        )
        assert not combined.satellite_up[:, 0].any()
        assert (combined.satellite_factor[:, 20] == 0.5).all()
        halves = compile_faults(
            (FaultSpec("link_degradation", {"satellites": [20], "factor": 0.5}),),
            context,
        )
        doubled = halves.combined(halves)
        assert (doubled.satellite_factor[:, 20] == 0.25).all()

    def test_compile_faults_of_nothing_is_none(self, context):
        assert compile_faults(None, context) is None
        assert compile_faults((), context) is None

    def test_oversized_plane_count_is_rejected(self, context):
        """count beyond the topology's plane count must fail loudly, not
        silently simulate a weaker correlated failure."""
        with pytest.raises(ValueError, match="exceeds"):
            compile_faults((FaultSpec("plane_outage", {"count": 99}),), context)
        with pytest.raises(ValueError, match="out of range"):
            compile_faults((FaultSpec("plane_outage", {"groups": [99]}),), context)

    def test_with_stations_shares_derived_caches(self, context):
        derived = context.with_stations(("London",))
        assert derived.station_names == ("London",)
        assert derived.group_keys("plane") is context.group_keys("plane")
        assert derived.positions_ecef() is context.positions_ecef()

    def test_healthy_schedule_is_all_up(self, context):
        schedule = FaultSchedule.healthy(3, 10, ("A",))
        assert schedule.satellite_up.all()
        assert schedule.station_up.all()
        assert schedule.satellites_up_fraction(0) == 1.0
        assert schedule.stations_up_fraction(0) == 1.0


class TestMaskedSequences:
    def test_masked_graphs_drop_edges_of_down_nodes(self, topology, stations, epoch, context):
        epochs = epoch_range(epoch, 4 * 3600.0, 3600.0)
        sequence = topology.snapshot_sequence(epochs, stations)
        schedule = compile_faults(
            (
                FaultSpec("plane_outage", {"groups": [1], "start_step": 1, "duration_steps": 1}),
                FaultSpec(
                    "station_outage",
                    {"stations": ["London"], "period_steps": 4, "duration_steps": 1, "offset_steps": 2},
                ),
            ),
            context,
        )
        healthy = list(sequence.graphs(copy=True))
        masked = list(sequence.graphs(copy=True, faults=schedule))
        down = {node.node_id for node in topology.nodes if node.plane_index == 1}
        # Step 0 is untouched; step 1 loses every edge of plane 1; step 2
        # isolates London's ground node.
        assert set(healthy[0].edges) == set(masked[0].edges)
        assert any(a in down or b in down for a, b in healthy[1].edges)
        assert not any(a in down or b in down for a, b in masked[1].edges)
        assert masked[1].has_node(next(iter(down)))  # node stays, edges go
        surviving = set(healthy[1].edges) - {
            (a, b) for a, b in healthy[1].edges if a in down or b in down
        }
        assert set(masked[1].edges) == surviving
        assert masked[2].degree("gs:London") == 0
        assert healthy[2].degree("gs:London") > 0

    def test_masked_edge_list_matches_masked_graph(self, topology, stations, epoch, context):
        epochs = epoch_range(epoch, 4 * 3600.0, 3600.0)
        sequence = topology.snapshot_sequence(epochs, stations)
        schedule = compile_faults(
            (
                FaultSpec("random_satellite", {"rate": 0.2, "seed": 4}),
                FaultSpec("link_degradation", {"fraction": 0.3, "factor": 0.5, "seed": 9}),
            ),
            context,
        )
        for step, graph in enumerate(sequence.graphs(copy=True, faults=schedule)):
            edge_list = sequence.edge_list(step, faults=schedule)
            labels = edge_list.labels
            from_arrays = {
                frozenset((labels[a], labels[b])): capacity
                for a, b, capacity in zip(
                    edge_list.a.tolist(),
                    edge_list.b.tolist(),
                    edge_list.capacity_gbps.tolist(),
                )
            }
            from_graph = {
                frozenset((a, b)): data["capacity_gbps"]
                for a, b, data in graph.edges(data=True)
            }
            assert from_arrays == from_graph

    def test_degraded_capacity_scales_by_worse_endpoint(self, topology, stations, epoch, context):
        epochs = epoch_range(epoch, 4 * 3600.0, 3600.0)
        sequence = topology.snapshot_sequence(epochs, stations)
        schedule = compile_faults(
            (FaultSpec("link_degradation", {"satellites": [0], "factor": 0.5}),),
            context,
        )
        graph = next(sequence.graphs(copy=True, faults=schedule))
        reference = next(sequence.graphs(copy=True))
        for a, b, data in graph.edges(data=True):
            expected = reference.edges[a, b]["capacity_gbps"]
            if 0 in (a, b):
                expected *= 0.5
            assert data["capacity_gbps"] == pytest.approx(expected)
            assert data["delay_ms"] == reference.edges[a, b]["delay_ms"]

    def test_mismatched_schedule_is_rejected(self, topology, stations, epoch):
        epochs = epoch_range(epoch, 3 * 3600.0, 3600.0)
        sequence = topology.snapshot_sequence(epochs, stations)
        wrong_steps = FaultSchedule.healthy(5, topology.satellite_count, STATION_NAMES)
        with pytest.raises(ValueError, match="steps"):
            next(sequence.graphs(faults=wrong_steps))
        wrong_sats = FaultSchedule.healthy(3, 7, STATION_NAMES)
        with pytest.raises(ValueError, match="satellites"):
            sequence.edge_list(0, faults=wrong_sats)
        wrong_stations = FaultSchedule.healthy(3, topology.satellite_count, ("Nowhere",))
        with pytest.raises(ValueError, match="stations"):
            sequence.edge_list(0, faults=wrong_stations)


FAULT_SCENARIOS = [
    Scenario(name="healthy"),
    Scenario(
        name="radiation_plane",
        faults=[
            ("radiation", {"base_rate": 0.04, "exposure_step_s": 300.0, "seed": 3}),
            ("plane_outage", {"count": 2, "start_step": 1, "duration_steps": 2, "seed": 7}),
        ],
    ),
    Scenario(
        name="gs_maintenance",
        faults=("station_outage", {"stations": ["London"], "period_steps": 3, "duration_steps": 1}),
    ),
]


class TestFaultSweeps:
    def test_fault_sweep_is_identical_across_executors(self, simulator, epoch):
        """The acceptance criterion: one fixed-seed fault sweep, bit-identical
        results for serial/thread/process executors."""
        serial = simulator.run_scenarios(FAULT_SCENARIOS, epoch, duration_hours=3.0)
        threaded = simulator.run_scenarios(
            FAULT_SCENARIOS, epoch, duration_hours=3.0, max_workers=3
        )
        pooled = simulator.run_scenarios(
            FAULT_SCENARIOS, epoch, duration_hours=3.0, max_workers=2, executor="process"
        )
        for name in serial:
            assert serial[name].steps == threaded[name].steps
            assert serial[name].steps == pooled[name].steps

    def test_fault_statistics_reflect_outages(self, simulator, epoch):
        sweep = simulator.run_scenarios(FAULT_SCENARIOS, epoch, duration_hours=3.0)
        healthy = sweep["healthy"]
        faulted = sweep["radiation_plane"]
        maintenance = sweep["gs_maintenance"]
        assert all(step.satellites_up_fraction == 1.0 for step in healthy.steps)
        assert all(step.stations_up_fraction == 1.0 for step in healthy.steps)
        assert min(step.satellites_up_fraction for step in faulted.steps) < 1.0
        # London is down every third step: its entire demand is stranded.
        assert maintenance.steps[0].stations_up_fraction == pytest.approx(2.0 / 3.0)
        assert maintenance.steps[0].stranded_gbps > 0.0
        assert maintenance.steps[1].stations_up_fraction == 1.0

    def test_resilience_metrics(self, simulator, epoch):
        sweep = simulator.run_scenarios(FAULT_SCENARIOS, epoch, duration_hours=3.0)
        healthy = sweep["healthy"]
        faulted = sweep["radiation_plane"]
        assert 0.0 <= faulted.availability(0.5) <= 1.0
        assert faulted.availability(0.0) == 1.0
        assert faulted.mean_stranded_gbps() >= 0.0
        stretch = faulted.latency_stretch(healthy)
        assert np.isnan(stretch) or stretch > 0.0
        recover = faulted.time_to_recover_steps(healthy)
        assert 0 <= recover <= len(faulted.steps)
        assert healthy.time_to_recover_steps(healthy) == 0
        with pytest.raises(ValueError, match="same steps"):
            faulted.latency_stretch(simulation_module.SimulationResult(steps=[]))

    def test_route_cache_is_per_step_under_faults(self, simulator, epoch, monkeypatch):
        """Fault-perturbed snapshot groups keep their own per-step route
        caches -- stale tables from a degraded snapshot must never leak into
        the next step or into another group."""
        used: list = []  # strong references, so ids stay unique
        original = simulation_module._SharedRouteCache.routes_from_many

        def recording_routes(self, router, sources):
            used.append(self)
            return original(self, router, sources)

        monkeypatch.setattr(
            simulation_module._SharedRouteCache, "routes_from_many", recording_routes
        )
        scenarios = [FAULT_SCENARIOS[0], FAULT_SCENARIOS[2]]
        steps = 3
        simulator.run_scenarios(scenarios, epoch, duration_hours=float(steps))
        # Two scenarios with distinct fault specs -> two snapshot groups ->
        # one fresh cache per group per step.
        assert len({id(cache) for cache in used}) == 2 * steps

    def test_faulted_and_healthy_scenarios_share_no_route_tables(self, simulator, epoch):
        """A faulted scenario must not reuse the healthy scenario's routing:
        severing London's station must strand its flows even when a healthy
        scenario with routes through London runs in the same sweep."""
        sweep = simulator.run_scenarios(
            [
                Scenario(name="healthy"),
                Scenario(
                    name="dark_london",
                    faults=("station_outage", {"stations": ["London"], "period_steps": 1, "duration_steps": 1}),
                ),
            ],
            epoch,
            duration_hours=2.0,
        )
        for healthy_step, dark_step in zip(
            sweep["healthy"].steps, sweep["dark_london"].steps
        ):
            assert dark_step.stations_up_fraction == pytest.approx(2.0 / 3.0)
            # Every London flow is stranded in the dark scenario.
            assert dark_step.stranded_gbps >= healthy_step.stranded_gbps

    def test_scenario_results_do_not_depend_on_sweep_composition(
        self, simulator, topology, stations, epoch
    ):
        """A faulted scenario must produce the same result alone, inside a
        larger sweep, and through an independently configured simulator:
        fault schedules compile against the scenario's own station subset,
        never the sweep union."""
        maintenance = Scenario(
            name="maint",
            ground_station_names=("London", "Tokyo"),
            faults=(
                "station_outage",
                {"period_steps": 3, "duration_steps": 1, "stagger_steps": 1, "seed": 2},
            ),
        )
        weather = Scenario(
            name="weather",
            ground_station_names=("London", "Tokyo"),
            faults=("station_outage", {"rate": 0.4, "duration_steps": 1, "seed": 6}),
        )
        alone = simulator.run_scenarios([maintenance, weather], epoch, 3.0)
        # Adding an unrelated scenario widens the sweep's station union
        # (New York joins); the fault scenarios must not notice.
        widened = simulator.run_scenarios(
            [maintenance, weather, Scenario(name="other")], epoch, 3.0
        )
        assert alone["maint"].steps == widened["maint"].steps
        assert alone["weather"].steps == widened["weather"].steps
        independent = NetworkSimulator(
            topology=topology,
            ground_stations=[s for s in stations if s.name in ("London", "Tokyo")],
            traffic_model=simulator.traffic_model,
            flows_per_step=simulator.flows_per_step,
        ).run_scenarios([maintenance, weather], epoch, 3.0)
        assert independent["maint"].steps == alone["maint"].steps
        assert independent["weather"].steps == alone["weather"].steps

    def test_run_grid_carries_fault_scenarios(self, simulator, epoch, tmp_path):
        from repro.network.simulation import run_grid

        output = tmp_path / "grid.json"
        cells = run_grid(
            {"walker": simulator.topology},
            [FAULT_SCENARIOS[0], FAULT_SCENARIOS[2]],
            simulator.ground_stations,
            epoch,
            duration_hours=2.0,
            traffic_model=simulator.traffic_model,
            flows_per_step=8,
            output_path=output,
        )
        assert ("walker", "gs_maintenance") in cells
        assert output.exists()


class TestCompilePathValidation:
    """Regression tests: the direct compile path validates like FaultSpec."""

    def test_direct_compile_rejects_unknown_parameter(self, context):
        model = get_fault_model("random_satellite")
        with pytest.raises(ValueError, match="unknown parameters"):
            model.compile({"probability": 0.1, "seed": 1}, context)

    def test_direct_compile_rejects_malformed_values(self, context):
        model = get_fault_model("random_satellite")
        with pytest.raises(ValueError, match="rate"):
            model.compile({"rate": 1.5, "seed": 1}, context)

    def test_missing_seed_warns_and_defaults_to_zero(self, context):
        from repro.network.faults import MissingSeedWarning

        model = get_fault_model("random_satellite")
        with pytest.warns(MissingSeedWarning):
            implicit = model.compile({"rate": 0.2}, context)
        with warnings.catch_warnings():
            warnings.simplefilter("error", MissingSeedWarning)
            explicit = model.compile({"rate": 0.2, "seed": 0}, context)
        assert np.array_equal(implicit.satellite_up, explicit.satellite_up)

    def test_explicit_seed_compiles_without_warning(self, context):
        from repro.network.faults import MissingSeedWarning

        model = get_fault_model("link_degradation")
        with warnings.catch_warnings():
            warnings.simplefilter("error", MissingSeedWarning)
            schedule = model.compile({"fraction": 0.2, "seed": 3}, context)
        assert schedule.satellite_factor.min() < 1.0
