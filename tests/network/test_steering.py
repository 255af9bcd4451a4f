"""Tests of the congestion-steering subsystem (policies, controller, wiring).

Three layers:

* unit tests of the control loop (EWMA, hysteresis, cooldown, pruning) and
  the latency re-read helpers on hand-built edge lists;
* exactness tests that ``steering="static"`` is bit-identical to running
  with no steering under every executor, and that adaptive policies are
  deterministic and executor-independent;
* an integration test showing a (sticky) congestion-aware policy
  measurably reduces stranded demand under a correlated fault sweep.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coverage.walker import WalkerDelta
from repro.demand.traffic_matrix import City, GravityTrafficModel
from repro.network.backends import SnapshotEdgeList, get_backend
from repro.network.ground_station import GroundStation
from repro.network.routing import SnapshotRouter
from repro.network.simulation import NetworkSimulator, Scenario
from repro.network.steering import (
    STEERING_POLICIES,
    CongestionAwareSteering,
    LoadSpreadingSteering,
    StaticSteering,
    SteeringPolicy,
    UtilisationWeightedSteering,
    get_steering_policy,
    link_codes,
    path_delays,
    path_delays_from_rows,
)
from repro.network.telemetry import LinkTelemetry, get_telemetry
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
        altitude_km=560.0, inclination_deg=65.0, total_satellites=240, planes=12, phasing=1
    )
    elements = wd.satellite_elements()
    per_plane = wd.satellites_per_plane
    planes = [elements[i * per_plane : (i + 1) * per_plane] for i in range(wd.planes)]
    return ConstellationTopology(planes=planes, epoch=epoch)


@pytest.fixture(scope="module")
def simulator(topology) -> NetworkSimulator:
    stations = [GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in CITIES]
    return NetworkSimulator(
        topology=topology,
        ground_stations=stations,
        traffic_model=GravityTrafficModel(cities=CITIES, total_demand=40.0),
        flows_per_step=12,
    )


def _triangle() -> SnapshotEdgeList:
    """Three nodes, three links: X-Y (1 ms), Y-Z (2 ms), X-Z (10 ms)."""
    return SnapshotEdgeList(
        labels=("X", "Y", "Z"),
        a=np.array([0, 1, 0]),
        b=np.array([1, 2, 2]),
        distance_km=np.array([300.0, 600.0, 3000.0]),
        delay_ms=np.array([1.0, 2.0, 10.0]),
        capacity_gbps=np.array([10.0, 10.0, 10.0]),
    )


class TestPolicyRegistry:
    def test_registry_names_match_entries(self):
        assert set(STEERING_POLICIES) >= {
            "static",
            "utilisation-weighted",
            "congestion-aware",
            "load-spreading",
        }
        for name, policy in STEERING_POLICIES.items():
            assert policy.name == name
            assert isinstance(policy, SteeringPolicy)

    def test_accessor_resolves_names_and_instances(self):
        policy = get_steering_policy("congestion-aware")
        assert policy is STEERING_POLICIES["congestion-aware"]
        assert get_steering_policy(policy) is policy
        with pytest.raises(ValueError, match="unknown steering policy"):
            get_steering_policy("nope")

    def test_only_static_is_non_adaptive(self):
        assert STEERING_POLICIES["static"].adaptive is False
        for name in ("utilisation-weighted", "congestion-aware", "load-spreading"):
            assert STEERING_POLICIES[name].adaptive is True

    def test_policy_parameter_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            CongestionAwareSteering(alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            CongestionAwareSteering(alpha=1.5)
        with pytest.raises(ValueError, match="bands"):
            CongestionAwareSteering(enter_band=0.3, exit_band=0.5)
        with pytest.raises(ValueError, match="cooldown"):
            CongestionAwareSteering(cooldown_steps=-1)
        with pytest.raises(ValueError, match="penalty"):
            CongestionAwareSteering(penalty=1.0)
        with pytest.raises(ValueError, match="gain"):
            UtilisationWeightedSteering(gain=0.0)
        with pytest.raises(ValueError, match="jitter"):
            LoadSpreadingSteering(jitter=0.0)

    def test_scenario_and_sweep_validate_steering_names(self, simulator, epoch):
        with pytest.raises(ValueError, match="unknown steering policy"):
            Scenario(name="x", steering="nope")
        with pytest.raises(ValueError, match="unknown steering policy"):
            simulator.run_scenarios([Scenario(name="a")], epoch, 1.0, steering="nope")


class TestLinkCodes:
    def test_codes_are_endpoint_order_invariant(self):
        edges = _triangle()
        flipped = SnapshotEdgeList(
            labels=edges.labels,
            a=edges.b,
            b=edges.a,
            distance_km=edges.distance_km,
            delay_ms=edges.delay_ms,
            capacity_gbps=edges.capacity_gbps,
        )
        assert np.array_equal(link_codes(edges), link_codes(flipped))

    def test_codes_are_unique_per_link(self):
        codes = link_codes(_triangle())
        assert codes.dtype == np.int64
        assert len(np.unique(codes)) == codes.size


class TestController:
    def test_static_controller_is_identity(self):
        edges = _triangle()
        controller = StaticSteering().controller()
        assert controller.steer(edges) is edges
        controller.observe(edges, np.array([1.0, 1.0, 1.0]))
        assert controller.step_stats() == (0, 0.0, 0)
        assert controller.engaged_count == 0

    def test_engagement_requires_crossing_enter_band(self):
        edges = _triangle()
        policy = CongestionAwareSteering(alpha=0.5, enter_band=0.55, exit_band=0.35)
        controller = policy.controller()
        assert controller.steer(edges) is edges  # no state yet
        controller.observe(edges, np.array([1.0, 0.0, 0.0]))
        # EWMA after one step is 0.5 < 0.55: not engaged yet.
        assert controller.engaged_count == 0
        assert controller.steer(edges) is edges
        controller.observe(edges, np.array([1.0, 0.0, 0.0]))
        # 0.75 >= 0.55: the X-Y link engages; its flip counts as a reroute.
        assert controller.engaged_count == 1
        reroutes, max_smoothed, flaps = controller.step_stats()
        assert reroutes == 1 and flaps == 0
        assert max_smoothed == pytest.approx(0.75)

    def test_steer_scales_only_engaged_links(self):
        edges = _triangle()
        policy = CongestionAwareSteering(alpha=1.0, enter_band=0.5, exit_band=0.1, penalty=8.0)
        controller = policy.controller()
        controller.steer(edges)
        controller.observe(edges, np.array([1.0, 0.0, 0.0]))
        steered = controller.steer(edges)
        assert steered is not edges
        assert np.array_equal(steered.delay_ms, np.array([8.0, 2.0, 10.0]))
        # Everything else is shared, and the input is untouched.
        assert steered.capacity_gbps is edges.capacity_gbps
        assert np.array_equal(edges.delay_ms, np.array([1.0, 2.0, 10.0]))

    def test_hysteresis_holds_between_bands(self):
        edges = _triangle()
        policy = CongestionAwareSteering(
            alpha=1.0, enter_band=0.6, exit_band=0.2, cooldown_steps=0
        )
        controller = policy.controller()
        controller.steer(edges)
        controller.observe(edges, np.array([0.9, 0.0, 0.0]))
        assert controller.engaged_count == 1
        controller.steer(edges)
        controller.observe(edges, np.array([0.4, 0.0, 0.0]))  # between bands
        assert controller.engaged_count == 1  # still engaged
        controller.steer(edges)
        controller.observe(edges, np.array([0.1, 0.0, 0.0]))  # below exit
        assert controller.engaged_count == 0

    def test_cooldown_suppresses_flips_as_flaps(self):
        edges = _triangle()
        policy = CongestionAwareSteering(
            alpha=1.0, enter_band=0.6, exit_band=0.2, cooldown_steps=2
        )
        controller = policy.controller()
        controller.steer(edges)
        controller.observe(edges, np.array([0.9, 0.0, 0.0]))  # engage, arm cooldown
        assert controller.step_stats()[0] == 1
        controller.steer(edges)
        controller.observe(edges, np.array([0.0, 0.0, 0.0]))  # wants out, held
        reroutes, _, flaps = controller.step_stats()
        assert (reroutes, flaps) == (0, 1)
        assert controller.engaged_count == 1
        controller.steer(edges)
        controller.observe(edges, np.array([0.0, 0.0, 0.0]))  # still held
        assert controller.step_stats()[2] == 1
        controller.steer(edges)
        controller.observe(edges, np.array([0.0, 0.0, 0.0]))  # cooldown expired
        reroutes, _, flaps = controller.step_stats()
        assert (reroutes, flaps) == (1, 0)
        assert controller.engaged_count == 0

    def test_state_pruning_drops_decayed_links(self):
        edges = _triangle()
        policy = UtilisationWeightedSteering(alpha=1.0, enter_band=0.9, exit_band=0.1)
        controller = policy.controller()
        controller.steer(edges)
        controller.observe(edges, np.array([0.5, 0.5, 0.5]))
        assert controller._codes.size == 3
        controller.steer(edges)
        controller.observe(edges, np.array([0.0, 0.0, 0.0]))
        # alpha=1.0 folds the zeros straight in; nothing engaged, nothing
        # cooling: the state table empties.
        assert controller._codes.size == 0

    def test_policy_multiplier_semantics(self):
        smoothed = np.array([0.5, 1.0])
        codes = np.array([3, 7], dtype=np.int64)
        weighted = UtilisationWeightedSteering(gain=4.0)
        assert np.allclose(
            weighted.multipliers(smoothed, codes, 1), np.array([3.0, 5.0])
        )
        aware = CongestionAwareSteering(penalty=8.0)
        assert np.array_equal(
            aware.multipliers(smoothed, codes, 1), np.array([8.0, 8.0])
        )
        spreading = LoadSpreadingSteering(jitter=0.75, seed=0)
        first = spreading.multipliers(smoothed, codes, 1)
        assert ((first >= 1.0) & (first < 1.75)).all()
        # Deterministic per (code, seed, step); rotates with the step.
        assert np.array_equal(first, spreading.multipliers(smoothed, codes, 1))
        assert not np.array_equal(first, spreading.multipliers(smoothed, codes, 2))


class TestPathDelays:
    def test_label_paths_sum_real_delays(self):
        edges = _triangle()
        delays = path_delays(edges, [("X", "Y", "Z"), ("X", "Z"), ()])
        assert delays[0] == pytest.approx(3.0)
        assert delays[1] == pytest.approx(10.0)
        assert np.isinf(delays[2])

    def test_single_node_path_has_zero_delay(self):
        delays = path_delays(_triangle(), [("X",)])
        assert delays[0] == pytest.approx(0.0)

    def test_unknown_label_raises(self):
        with pytest.raises(ValueError, match="not present"):
            path_delays(_triangle(), [("X", "Q")])

    def test_missing_link_raises(self):
        edges = _triangle()
        square = SnapshotEdgeList(
            labels=("X", "Y", "Z"),
            a=np.array([0]),
            b=np.array([1]),
            distance_km=np.array([300.0]),
            delay_ms=np.array([1.0]),
            capacity_gbps=np.array([10.0]),
        )
        with pytest.raises(ValueError, match="link not present"):
            path_delays(square, [("X", "Z")])
        del edges

    def test_row_paths_match_label_paths(self):
        edges = _triangle()
        offsets = np.array([0, 3, 5, 5])
        rows = np.array([0, 1, 2, 0, 2])
        by_rows = path_delays_from_rows(edges, offsets, rows)
        by_labels = path_delays(edges, [("X", "Y", "Z"), ("X", "Z"), ()])
        assert np.array_equal(by_rows[:2], by_labels[:2])
        assert np.isinf(by_rows[2]) and np.isinf(by_labels[2])

    def test_delays_read_unsteered_column(self):
        """Steered routing weights never leak into reported latencies."""
        edges = _triangle()
        policy = CongestionAwareSteering(alpha=1.0, enter_band=0.5, exit_band=0.1)
        controller = policy.controller()
        controller.steer(edges)
        controller.observe(edges, np.array([1.0, 0.0, 0.0]))
        steered = controller.steer(edges)
        assert steered.delay_ms[0] == pytest.approx(8.0)
        assert path_delays(edges, [("X", "Y")])[0] == pytest.approx(1.0)


FAULTS = (
    ("plane_outage", {"count": 1, "seed": 7}),
    ("link_degradation", {"factor": 0.0, "fraction": 0.1, "seed": 3}),
)


def _steps(result):
    return [
        {
            field: getattr(step, field)
            for field in (
                "offered_gbps",
                "delivered_gbps",
                "stranded_gbps",
                "mean_latency_ms",
                "worst_link_utilisation",
                "steering_reroutes",
                "steering_max_utilisation",
                "steering_flaps",
            )
        }
        for step in result.steps
    ]


class TestStaticBitIdentity:
    def test_static_matches_no_steering(self, simulator, epoch):
        scenarios = [Scenario(name="s", allocator="proportional_array", faults=FAULTS)]
        base = simulator.run_scenarios(scenarios, epoch, 3.0)["s"]
        static = simulator.run_scenarios(scenarios, epoch, 3.0, steering="static")["s"]
        assert base.steps == static.steps

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_static_matches_no_steering_across_executors(
        self, simulator, epoch, executor
    ):
        scenarios = [Scenario(name="s", faults=FAULTS, steering="static")]
        serial = simulator.run_scenarios(scenarios, epoch, 2.0)
        pooled = simulator.run_scenarios(
            scenarios, epoch, 2.0, executor=executor, max_workers=2
        )
        assert serial["s"].steps == pooled["s"].steps

    def test_scenario_override_beats_sweep_default(self, simulator, epoch):
        """A per-scenario ``static`` opts out of the sweep's adaptive default."""
        sweep = simulator.run_scenarios(
            [
                Scenario(name="open", steering="static", faults=FAULTS),
                Scenario(name="closed", faults=FAULTS),
            ],
            epoch,
            3.0,
            steering="congestion-aware",
        )
        base = simulator.run_scenarios(
            [Scenario(name="open", faults=FAULTS)], epoch, 3.0)
        assert sweep["open"].steps == base["open"].steps
        assert any(step.steering_max_utilisation > 0.0 for step in sweep["closed"].steps)


class TestAdaptiveDeterminism:
    @pytest.mark.parametrize("policy", ["utilisation-weighted", "congestion-aware", "load-spreading"])
    def test_repeat_runs_are_bit_identical(self, simulator, epoch, policy):
        scenarios = [Scenario(name="a", faults=FAULTS, steering=policy)]
        first = simulator.run_scenarios(scenarios, epoch, 3.0)
        second = simulator.run_scenarios(scenarios, epoch, 3.0)
        assert _steps(first["a"]) == _steps(second["a"])

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_executors_are_bit_identical(self, simulator, epoch, executor):
        scenarios = [
            Scenario(name="a", faults=FAULTS, steering="congestion-aware"),
            Scenario(name="b", faults=FAULTS),
        ]
        serial = simulator.run_scenarios(scenarios, epoch, 3.0)
        pooled = simulator.run_scenarios(
            scenarios, epoch, 3.0, executor=executor, max_workers=2
        )
        for name in ("a", "b"):
            assert _steps(serial[name]) == _steps(pooled[name])

    def test_steering_fields_default_to_zero(self, simulator, epoch):
        result = simulator.run_scenarios([Scenario(name="s")], epoch, 1.0)["s"]
        step = result.steps[0]
        assert step.steering_reroutes == 0
        assert step.steering_max_utilisation == 0.0
        assert step.steering_flaps == 0


class TestAdaptiveImprovesFaultSweep:
    def test_sticky_congestion_aware_reduces_stranded_demand(self, simulator, epoch):
        """Closed-loop steering recovers starved demand under dead links.

        ``plane_outage`` plus zero-capacity ``link_degradation`` starves the
        flows whose open-loop shortest path crosses a dead link.  A sticky
        congestion-aware variant (instant engagement, no decay-driven
        disengagement) maps the dead region out over a few steps and detours
        around it; the default hysteresis would forget a dead link two steps
        after routing away from it.
        """
        sticky = CongestionAwareSteering(
            alpha=0.9, enter_band=0.5, exit_band=0.0, cooldown_steps=0, penalty=12.0
        )
        STEERING_POLICIES["sticky-congestion"] = sticky
        try:
            scenarios = lambda name, steering: [
                Scenario(
                    name=name,
                    allocator="proportional_array",
                    faults=FAULTS,
                    steering=steering,
                )
            ]
            static = simulator.run_scenarios(scenarios("f", "static"), epoch, 10.0)["f"]
            adaptive = simulator.run_scenarios(
                scenarios("f", "sticky-congestion"), epoch, 10.0
            )["f"]
        finally:
            del STEERING_POLICIES["sticky-congestion"]
        assert sum(s.steering_reroutes for s in adaptive.steps) > 0
        assert adaptive.mean_stranded_gbps() < 0.90 * static.mean_stranded_gbps()
        # The recovered demand is actually delivered, not just re-labelled.
        delivered = lambda result: sum(s.delivered_gbps for s in result.steps)
        assert delivered(adaptive) > delivered(static)


class TestStrandedSemantics:
    def test_stranded_counts_starved_flows(self, simulator, epoch):
        """Routed-but-zero-allocated demand counts as stranded."""
        faults = (("link_degradation", {"factor": 0.0, "fraction": 0.3, "seed": 11}),)
        result = simulator.run_scenarios(
            [Scenario(name="s", allocator="proportional_array", faults=faults)], epoch, 2.0
        )["s"]
        assert any(step.stranded_gbps > 0.0 for step in result.steps)
        for step in result.steps:
            # Stranded demand (unroutable + starved-at-zero) and the
            # delivered traffic never over-count the offered demand.
            assert step.stranded_gbps >= 0.0
            assert step.delivered_gbps + step.stranded_gbps <= step.offered_gbps + 1e-9


class TestLinkTelemetry:
    def test_observe_and_top_links(self):
        edges = _triangle()
        telemetry = LinkTelemetry(edges.labels, get_telemetry("exact").store(4))
        codes = link_codes(edges)
        telemetry.observe_links(codes, np.array([0.9, 0.1, 0.0]))
        telemetry.observe_links(codes, np.array([0.8, 0.2, 0.0]))
        top = telemetry.top_links(2)
        assert top[0] == ("X", "Y", pytest.approx(1.7))
        assert top[1] == ("Y", "Z", pytest.approx(0.3))
        assert telemetry.total() == pytest.approx(2.0)

    def test_merge_requires_matching_labels(self):
        edges = _triangle()
        left = LinkTelemetry(edges.labels, get_telemetry("exact").store(4))
        right = LinkTelemetry(("A", "B"), get_telemetry("exact").store(4))
        with pytest.raises(ValueError, match="one snapshot group"):
            left.merge(right)

    def test_merge_accumulates(self):
        edges = _triangle()
        codes = link_codes(edges)
        left = LinkTelemetry(edges.labels, get_telemetry("exact").store(4))
        right = LinkTelemetry(edges.labels, get_telemetry("exact").store(4))
        left.observe_links(codes, np.array([0.5, 0.0, 0.0]))
        right.observe_links(codes, np.array([0.25, 1.0, 0.0]))
        left.merge(right)
        assert left.total() == pytest.approx(1.75)
        assert left.top_links(1)[0] == ("Y", "Z", pytest.approx(1.0))

    def test_simulation_collects_link_telemetry(self, simulator, epoch):
        result = simulator.run_scenarios(
            [Scenario(name="s", telemetry="exact")], epoch, 2.0)["s"]
        assert result.link_telemetry is not None
        hot = result.sustained_hot_links(3)
        assert 0 < len(hot) <= 3
        # Sustained heat is summed per-step utilisation, descending.
        values = [value for _, _, value in hot]
        assert values == sorted(values, reverse=True)
        assert all(value > 0.0 for value in values)

    def test_no_telemetry_means_no_link_store(self, simulator, epoch):
        result = simulator.run_scenarios(
            [Scenario(name="s")], epoch, 1.0)["s"]
        assert result.link_telemetry is None
        assert result.sustained_hot_links() == ()

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_link_telemetry_consistent_across_executors(
        self, simulator, epoch, executor
    ):
        scenarios = [Scenario(name="s", telemetry="exact", steering="congestion-aware")]
        serial = simulator.run_scenarios(scenarios, epoch, 2.0)
        pooled = simulator.run_scenarios(
            scenarios, epoch, 2.0, executor=executor, max_workers=2
        )
        assert serial["s"].link_telemetry is not None
        assert (
            serial["s"].sustained_hot_links(5) == pooled["s"].sustained_hot_links(5)
        )
        assert serial["s"].link_telemetry.total() == pooled["s"].link_telemetry.total()


class TestUtilisationExportParity:
    def test_dict_and_array_exports_agree(self, simulator, epoch):
        """Both allocation paths export the same (E,) utilisation layout."""
        from repro.network.alloc_arrays import compile_flow_link_system
        from repro.network.capacity import Flow, allocate_proportional

        sequence = simulator.topology.snapshot_sequence(
            [epoch], simulator.ground_stations
        )
        edge_list = sequence.edge_list(0)
        router = SnapshotRouter(backend="csgraph", arrays=edge_list.arrays())
        sources = [f"gs:{city.name}" for city in CITIES[:2]]
        routes = get_backend("csgraph").routes_from_many(router, sources)
        flows = []
        for source in sources:
            for destination in (f"gs:{city.name}" for city in CITIES[2:]):
                route = routes[source].get(destination)
                if route is None:
                    continue
                flows.append(
                    Flow(
                        name=f"{source}->{destination}",
                        path=route.path,
                        demand_gbps=5.0,
                        path_rows=route.path_rows,
                    )
                )
        assert flows
        allocation = allocate_proportional(edge_list.graph(), flows)
        by_dict = allocation.link_utilisation_array(edge_list)
        system = compile_flow_link_system(edge_list, flows)
        rates = np.array([allocation.allocated_gbps[flow.name] for flow in flows])
        utilisation = system.link_loads(rates) / system.capacity
        by_array = system.link_utilisation_array(utilisation, len(edge_list.a))
        assert np.allclose(by_dict, by_array)
        assert by_dict.shape == (len(edge_list.a),)


class TestBulkWalkBatching:
    def test_many_sources_one_walk_matches_per_source_walks(self, simulator, epoch):
        from repro.network.backends import bulk_path_rows_many

        sequence = simulator.topology.snapshot_sequence(
            [epoch], simulator.ground_stations
        )
        edge_list = sequence.edge_list(0)
        router = SnapshotRouter(backend="csgraph", arrays=edge_list.arrays())
        names = [f"gs:{city.name}" for city in CITIES]
        routes = get_backend("csgraph").routes_from_many(router, names)
        tables = [routes[name] for name in names]
        node_index = edge_list.node_index
        group_of, dest_rows = [], []
        for source_group in range(len(names)):
            for destination in names:
                group_of.append(source_group)
                dest_rows.append(node_index.index_of(destination))
        group_of = np.array(group_of, dtype=np.intp)
        dest_rows = np.array(dest_rows, dtype=np.intp)
        offsets, rows, latency = bulk_path_rows_many(tables, group_of, dest_rows)
        cursor = 0
        for source_group, source in enumerate(names):
            solo_offsets, solo_rows, solo_latency = tables[source_group].bulk_path_rows(
                dest_rows[cursor : cursor + len(names)]
            )
            begin, end = offsets[cursor], offsets[cursor + len(names)]
            assert np.array_equal(rows[begin:end], solo_rows)
            assert np.array_equal(
                latency[cursor : cursor + len(names)], solo_latency
            )
            cursor += len(names)

    def test_negative_rows_yield_empty_inf_segments(self, simulator, epoch):
        from repro.network.backends import bulk_path_rows_many

        sequence = simulator.topology.snapshot_sequence(
            [epoch], simulator.ground_stations
        )
        edge_list = sequence.edge_list(0)
        router = SnapshotRouter(backend="csgraph", arrays=edge_list.arrays())
        routes = get_backend("csgraph").routes_from_many(router, ["gs:London"])
        tables = [routes["gs:London"]]
        offsets, rows, latency = bulk_path_rows_many(
            tables,
            np.array([0, -1, 0], dtype=np.intp),
            np.array([edge_list.node_index.index_of("gs:Tokyo"), 0, -1], dtype=np.intp),
        )
        assert offsets[2] == offsets[1]  # unknown source: empty segment
        assert offsets[3] == offsets[2]  # unknown destination: empty segment
        assert np.isinf(latency[1]) and np.isinf(latency[2])
        assert np.isfinite(latency[0]) and offsets[1] > 0
