"""Tests of the congestion-steering subsystem (policies, controller, wiring).

Three layers:

* unit tests of the control loop (EWMA, hysteresis, cooldown, pruning) and
  the latency re-read helpers on hand-built edge lists;
* exactness tests that ``steering="static"`` is bit-identical to running
  with no steering, serially or in worker processes, and that adaptive
  policies are deterministic and the same in worker processes;
* an integration test showing a (sticky) congestion-aware policy
  measurably reduces stranded demand under a correlated fault sweep;
* equivalence tests of the route reuse: a steered scenario re-solves only
  what its steering moved on its group's base paths, and matches the same
  policy run beside an open-loop scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import networkx as nx
import numpy as np
import pytest

from flow_oracles import (
    AllocationResult,
    Flow,
    allocate_proportional,
    compile_flows,
    graph_from_edge_list,
    path_delays_from_rows,
    path_links,
    rows_from_links,
)
from repro.coverage.walker import WalkerDelta
from repro.demand.traffic_matrix import City, GravityTrafficModel
from repro.network.backends import RouteTables, SnapshotEdgeList, merge_codes
from repro.network import simulation as simulation_module
from repro.network.alloc_arrays import compile_system_from_rows
from repro.network.flows import route_flow_table
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
)
from repro.network.telemetry import PairTelemetry, get_telemetry
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


class TestLinkLookup:
    """The edge list's link codes and link lookup, shared by allocation,
    steering, latency re-reads and link telemetry."""

    @staticmethod
    def _compile(edges, offsets, rows):
        """The incidence of ragged row paths, from their hops' edge rows."""
        hop_offsets, links = path_links(edges, offsets, rows)
        demand = np.ones(offsets.size - 1)
        return compile_system_from_rows(edges, demand, hop_offsets, links)

    def test_codes_and_hops_are_endpoint_order_invariant(self):
        edges = _triangle()
        flipped = SnapshotEdgeList(
            labels=edges.labels,
            a=edges.b,
            b=edges.a,
            distance_km=edges.distance_km,
            delay_ms=edges.delay_ms,
            capacity_gbps=edges.capacity_gbps,
        )
        assert np.array_equal(edges.link_codes, flipped.link_codes)
        offsets, rows = np.array([0, 3, 5]), np.array([0, 1, 2, 2, 0])
        for table in (edges, flipped):
            system = self._compile(table, offsets, rows)
            assert system.flow_ids.tolist() == [0, 0, 1]
            # X-Y, Y-Z, Z-X: edge rows 0, 1, 2, numbered in link-code order.
            assert system.link_rows[system.link_ids].tolist() == [0, 1, 2]
            assert np.all(np.diff(table.link_codes[system.link_rows]) > 0)
            assert table.link_rows(rows[1:], rows[:-1]).tolist() == [0, 1, -1, 2]

    def test_codes_are_unique_per_link(self):
        codes = _triangle().link_codes
        assert codes.dtype == np.int64
        assert len(np.unique(codes)) == codes.size

    def test_missing_hop_raises(self):
        edges = _triangle()
        chain = SnapshotEdgeList(
            labels=edges.labels,
            a=edges.a[:2],
            b=edges.b[:2],
            distance_km=edges.distance_km[:2],
            delay_ms=edges.delay_ms[:2],
            capacity_gbps=edges.capacity_gbps[:2],
        )
        offsets = np.array([0, 3, 5])
        with pytest.raises(ValueError, match="flow 1 uses a link not present"):
            self._compile(chain, offsets, np.array([0, 1, 2, 2, 0]))
        # A row outside the label table is a missing hop, not an alias.
        with pytest.raises(ValueError, match="flow 1 uses a link not present"):
            self._compile(chain, offsets, np.array([0, 1, 2, 0, 3]))

    def test_zero_link_edge_list(self):
        empty = SnapshotEdgeList(
            labels=("X", "Y"),
            a=np.empty(0, dtype=np.intp),
            b=np.empty(0, dtype=np.intp),
            distance_km=np.empty(0),
            delay_ms=np.empty(0),
            capacity_gbps=np.empty(0),
        )
        assert empty.link_codes.size == 0
        system = self._compile(empty, np.array([0, 1, 1]), np.array([0]))
        assert system.flow_ids.size == system.link_ids.size == system.link_rows.size == 0
        assert empty.link_rows(np.array([0]), np.array([1])).tolist() == [-1]
        with pytest.raises(ValueError, match="link not present"):
            self._compile(empty, np.array([0, 2]), np.array([0, 1]))


class TestMergeCodes:
    """The controller's state merge equals ``np.union1d`` of the codes."""

    def test_matches_union1d_on_random_states(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            snapshot = np.unique(rng.integers(0, 400, int(rng.integers(0, 60))))
            case = int(rng.integers(0, 4))
            if case == 0:  # empty state
                state = np.empty(0, dtype=np.int64)
            elif case == 1:  # disjoint from the snapshot
                state = np.setdiff1d(rng.integers(0, 400, 30), snapshot)
            elif case == 2:  # full overlap
                state = snapshot[rng.random(snapshot.size) < 0.5]
            else:  # some codes absent from the snapshot
                state = np.unique(rng.integers(0, 400, int(rng.integers(0, 40))))
            state = state.astype(np.int64)
            merged = merge_codes(state, snapshot.astype(np.int64))
            want = np.union1d(state, snapshot)
            assert merged.dtype == want.dtype
            assert np.array_equal(merged, want)

    def test_snapshot_order_is_the_edge_lists(self):
        edges = _triangle()
        state = np.array([-5, edges.link_codes[1], 10**9], dtype=np.int64)
        merged = merge_codes(state, edges.link_lookup[0])
        assert np.array_equal(merged, np.union1d(state, edges.link_codes))

    def test_empty_state_returns_the_snapshot(self):
        snapshot = _triangle().link_lookup[0]
        merged = merge_codes(np.empty(0, dtype=np.int64), snapshot)
        assert merged is snapshot
        assert np.array_equal(merged, np.union1d([], snapshot))

    def test_empty_snapshot_returns_the_state(self):
        state = np.array([-5, 3, 10**9], dtype=np.int64)
        merged = merge_codes(state, np.empty(0, dtype=np.int64))
        assert merged is state
        both_empty = merge_codes(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert both_empty.size == 0 and both_empty.dtype == np.int64

    def test_state_inside_the_snapshot_adds_nothing(self):
        snapshot = np.array([1, 4, 9, 16], dtype=np.int64)
        assert merge_codes(snapshot[[0, 2]], snapshot) is snapshot


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
    def test_row_paths_sum_real_delays(self):
        # X-Y-Z, X-Z and an empty (unreachable) segment.
        delays = path_delays_from_rows(
            _triangle(), np.array([0, 3, 5, 5]), np.array([0, 1, 2, 0, 2])
        )
        assert delays[0] == pytest.approx(3.0)
        assert delays[1] == pytest.approx(10.0)
        assert np.isinf(delays[2])

    def test_single_node_path_has_zero_delay(self):
        delays = path_delays_from_rows(_triangle(), np.array([0, 1]), np.array([0]))
        assert delays[0] == pytest.approx(0.0)

    def test_row_outside_label_table_raises(self):
        with pytest.raises(ValueError, match="not present"):
            path_delays_from_rows(_triangle(), np.array([0, 2]), np.array([0, 3]))

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
            path_delays_from_rows(square, np.array([0, 2]), np.array([0, 2]))
        del edges

    def test_row_paths_match_graph_path_weights(self):
        edges = _triangle()
        offsets = np.array([0, 3, 5, 7])
        rows = np.array([0, 1, 2, 0, 2, 2, 1])
        by_rows = path_delays_from_rows(edges, offsets, rows)
        graph = graph_from_edge_list(edges)
        for index, delay in enumerate(by_rows):
            path = [edges.labels[row] for row in rows[offsets[index] : offsets[index + 1]]]
            assert delay == pytest.approx(nx.path_weight(graph, path, "delay_ms"))

    def test_delays_read_unsteered_column(self):
        """Steered routing weights never leak into reported latencies."""
        edges = _triangle()
        policy = CongestionAwareSteering(alpha=1.0, enter_band=0.5, exit_band=0.1)
        controller = policy.controller()
        controller.steer(edges)
        controller.observe(edges, np.array([1.0, 0.0, 0.0]))
        steered = controller.steer(edges)
        assert steered.delay_ms[0] == pytest.approx(8.0)
        delays = path_delays_from_rows(edges, np.array([0, 2]), np.array([0, 1]))
        assert delays[0] == pytest.approx(1.0)


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

    def test_static_matches_no_steering_across_executors(self, simulator, epoch):
        # Two scenarios, so each of the two workers runs one.
        scenarios = [
            Scenario(name="s", faults=FAULTS, steering="static"),
            Scenario(name="t", faults=FAULTS),
        ]
        serial = simulator.run_scenarios(scenarios, epoch, 2.0)
        pooled = simulator.run_scenarios(scenarios, epoch, 2.0, max_workers=2)
        assert serial["s"].steps == pooled["s"].steps == pooled["t"].steps

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

    def test_executors_are_bit_identical(self, simulator, epoch):
        scenarios = [
            Scenario(name="a", faults=FAULTS, steering="congestion-aware"),
            Scenario(name="b", faults=FAULTS),
        ]
        serial = simulator.run_scenarios(scenarios, epoch, 3.0)
        pooled = simulator.run_scenarios(scenarios, epoch, 3.0, max_workers=2)
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
    """Link summaries: a :class:`PairTelemetry` keyed by the edge list's link codes."""

    def test_observe_and_top_links(self):
        edges = _triangle()
        telemetry = PairTelemetry(edges.labels, get_telemetry("exact").store())
        codes = edges.link_codes
        telemetry.observe(codes, np.array([0.9, 0.1, 0.0]))
        telemetry.observe(codes, np.array([0.8, 0.2, 0.0]))
        top = telemetry.top_pairs(2)
        assert top[0] == ("X", "Y", pytest.approx(1.7))
        assert top[1] == ("Y", "Z", pytest.approx(0.3))
        assert telemetry.total() == pytest.approx(2.0)

    def test_merge_requires_matching_labels(self):
        edges = _triangle()
        left = PairTelemetry(edges.labels, get_telemetry("exact").store())
        right = PairTelemetry(("A", "B"), get_telemetry("exact").store())
        with pytest.raises(ValueError, match="one label table"):
            left.merge(right)

    def test_merge_accumulates(self):
        edges = _triangle()
        codes = edges.link_codes
        left = PairTelemetry(edges.labels, get_telemetry("exact").store())
        right = PairTelemetry(edges.labels, get_telemetry("exact").store())
        left.observe(codes, np.array([0.5, 0.0, 0.0]))
        right.observe(codes, np.array([0.25, 1.0, 0.0]))
        left.merge(right)
        assert left.total() == pytest.approx(1.75)
        assert left.top_pairs(1)[0] == ("Y", "Z", pytest.approx(1.0))
        assert left.estimate_pair("Y", "Z") == pytest.approx(1.0)

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

    def test_link_telemetry_consistent_across_executors(self, simulator, epoch):
        # Two scenarios, so each of the two workers runs one.
        scenarios = [
            Scenario(name="s", telemetry="exact", steering="congestion-aware"),
            Scenario(name="t", telemetry="exact"),
        ]
        serial = simulator.run_scenarios(scenarios, epoch, 2.0)
        pooled = simulator.run_scenarios(scenarios, epoch, 2.0, max_workers=2)
        assert serial["s"].link_telemetry is not None
        assert (
            serial["s"].sustained_hot_links(5) == pooled["s"].sustained_hot_links(5)
        )
        assert serial["s"].link_telemetry.total() == pooled["s"].link_telemetry.total()


class TestUtilisationExportParity:
    def test_dict_and_array_exports_agree(self, simulator, epoch):
        """The dict oracle and the compiled system export the same (E,)
        utilisation layout."""
        sequence = simulator.topology.snapshot_sequence(
            [epoch], simulator.ground_stations
        )
        edge_list = sequence.edge_list(0)
        router = SnapshotRouter(arrays=edge_list.arrays())
        sources = [f"gs:{city.name}" for city in CITIES[:2]]
        routes = router.routes_from_many(sources)
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
                    )
                )
        assert flows
        allocation = allocate_proportional(graph_from_edge_list(edge_list), flows)
        by_dict = allocation.link_utilisation_array(edge_list)
        system, _ = compile_flows(edge_list, flows)
        rates = np.array([allocation.allocated_gbps[flow.name] for flow in flows])
        utilisation = system.link_loads(rates) / system.capacity
        by_array = system.link_utilisation_array(utilisation, len(edge_list.a))
        assert np.allclose(by_dict, by_array)
        assert by_dict.shape == (len(edge_list.a),)

    def test_dict_export_on_edge_list_without_links(self):
        """An allocation with link entries exported onto a snapshot with no
        links reads all zeros (the lookup used to index an empty table)."""
        edges = _triangle()
        allocation = AllocationResult(
            allocated_gbps={"f": 1.0},
            link_utilisation={("X", "Y"): 0.5, ("Y", "Q"): 0.25},
        )
        empty = SnapshotEdgeList(
            labels=edges.labels,
            a=np.empty(0, dtype=np.intp),
            b=np.empty(0, dtype=np.intp),
            distance_km=np.empty(0),
            delay_ms=np.empty(0),
            capacity_gbps=np.empty(0),
        )
        assert allocation.link_utilisation_array(empty).shape == (0,)
        assert allocation.link_utilisation_array(edges).tolist() == [0.5, 0.0, 0.0]


class TestBulkWalkBatching:
    def test_many_sources_one_walk_matches_per_source_walks(self, simulator, epoch):
        sequence = simulator.topology.snapshot_sequence(
            [epoch], simulator.ground_stations
        )
        edge_list = sequence.edge_list(0)
        arrays = edge_list.arrays()
        node_index = edge_list.node_index
        names = [f"gs:{city.name}" for city in CITIES]
        rows = np.array([node_index.index_of(name) for name in names], dtype=np.intp)
        tables = RouteTables.solve(arrays, rows)
        views = SnapshotRouter(arrays=arrays).routes_from_many(names)
        group_of = np.repeat(np.arange(len(names)), len(names))
        dest_rows = np.tile(rows, len(names))
        paths = tables.paths(group_of, dest_rows)
        latency = paths.latency_ms
        offsets, path_rows = rows_from_links(
            edge_list, rows[group_of], paths.offsets, paths.links, latency
        )
        for source_group, source in enumerate(names):
            solo = RouteTables.solve(arrays, rows[source_group : source_group + 1])
            solo_paths = solo.paths(np.zeros(len(names), dtype=np.intp), rows)
            solo_latency = solo_paths.latency_ms
            cursor = source_group * len(names)
            begin, end = paths.offsets[cursor], paths.offsets[cursor + len(names)]
            assert np.array_equal(paths.links[begin:end], solo_paths.links)
            assert np.array_equal(latency[cursor : cursor + len(names)], solo_latency)
            for position, destination in enumerate(names):
                query = cursor + position
                segment = path_rows[offsets[query] : offsets[query + 1]]
                route = views[source].get(destination)
                if route is None:
                    assert segment.size == 0 and np.isinf(latency[query])
                else:
                    assert tuple(segment.tolist()) == route.path_rows
                    assert latency[query] == route.latency_ms

    def test_negative_rows_yield_empty_inf_segments(self, simulator, epoch):
        sequence = simulator.topology.snapshot_sequence(
            [epoch], simulator.ground_stations
        )
        edge_list = sequence.edge_list(0)
        london = edge_list.node_index.index_of("gs:London")
        tokyo = edge_list.node_index.index_of("gs:Tokyo")
        tables = RouteTables.solve(edge_list.arrays(), [london, -1])
        assert np.isinf(tables.distances[1]).all()
        offsets, _, latency, _ = tables.paths(
            np.array([0, -1, 0, 1], dtype=np.intp),
            np.array([tokyo, 0, -1, tokyo], dtype=np.intp),
        )
        assert offsets[2] == offsets[1]  # unknown source: empty segment
        assert offsets[3] == offsets[2]  # unknown destination: empty segment
        assert offsets[4] == offsets[3]  # unsolved source row: empty segment
        assert np.isinf(latency[1:]).all()
        assert np.isfinite(latency[0]) and offsets[1] > 0


@dataclass(frozen=True)
class _ConstantSteering(SteeringPolicy):
    """A policy defined at run time: one constant multiplier, sticky bands."""

    name: ClassVar[str] = "constant"

    value: float = 0.5
    alpha: float = 0.9
    enter_band: float = 0.5
    exit_band: float = 0.0
    cooldown_steps: int = 0

    def multipliers(
        self, smoothed: np.ndarray, codes: np.ndarray, step: int
    ) -> np.ndarray:
        return np.full(codes.size, self.value)


class TestMultiplierValidation:
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), 0.0, -0.5]
    )
    def test_bad_multiplier_raises_naming_policy_and_value(self, value):
        edges = _triangle()
        controller = _ConstantSteering(value=value, alpha=1.0).controller()
        controller.steer(edges)
        controller.observe(edges, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match=rf"'constant'.*{value!r}.*finite and > 0"):
            controller.steer(edges)

    @pytest.mark.parametrize("value", [0.5, 1.0, 3.0])
    def test_finite_positive_multipliers_pass(self, value):
        edges = _triangle()
        controller = _ConstantSteering(value=value, alpha=1.0).controller()
        controller.steer(edges)
        controller.observe(edges, np.array([1.0, 0.0, 0.0]))
        assert controller.steer(edges).delay_ms.tolist() == [value, 2.0, 10.0]


#: Sticky constants (instant engagement, no decay-driven release), so the
#: shipped policies engage the dead links of ``FAULTS`` within a few steps.
_STICKY = dict(alpha=0.9, enter_band=0.5, exit_band=0.0, cooldown_steps=0)


def _routing_work(result) -> tuple[float, float]:
    counters = result.metrics.counters
    return counters["route_sources"], counters["flows_rerouted"]


class TestOpenLoopRouteReuse:
    """A steered scenario starts from its group's base routes, alone or
    beside an open-loop one, and re-walks only what its steering moved."""

    HOURS = 4.0

    @pytest.mark.parametrize(
        "policy_class",
        [UtilisationWeightedSteering, CongestionAwareSteering, LoadSpreadingSteering],
    )
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_reuse_matches_solo_run(self, simulator, epoch, policy_class, executor):
        policy = policy_class(**_STICKY)
        steered = Scenario(name="steered", faults=FAULTS, steering=policy)
        # Two workers take every other scenario: "open" and "steered" share
        # a chunk (and a snapshot group) in worker processes too.
        scenarios = [
            Scenario(name="open", faults=FAULTS),
            Scenario(name="other", faults=FAULTS, demand_multiplier=2.0),
            steered,
        ]
        pooled = {} if executor == "serial" else {"max_workers": 2}
        paired = simulator.run_scenarios(
            scenarios, epoch, self.HOURS, instrument=True, **pooled
        )["steered"]
        solo = simulator.run_scenarios([steered], epoch, self.HOURS, instrument=True)[
            "steered"
        ]
        assert paired.steps == solo.steps
        solo_sources, solo_walked = _routing_work(solo)
        sources, walked = _routing_work(paired)
        # Alone or not, only what steering moved is re-walked: some flows
        # crossed an engaged link, most did not.
        assert walked == solo_walked
        assert 0 < walked < solo.metrics.counters["flows_selected"]
        # Alone, the scenario also leads its plan, so the plan's base walk
        # is credited to it on top of the same re-solves.
        assert solo_sources > sources > 0

    def test_lowering_policy_rewalks_every_reachable_flow(
        self, simulator, epoch, monkeypatch
    ):
        halving = Scenario(name="half", faults=FAULTS, steering=_ConstantSteering(value=0.5))
        splices = []
        real_reroute = simulation_module.reroute_flows

        def recording_reroute(routed, tables, station_rows, flows):
            spliced = real_reroute(routed, tables, station_rows, flows)
            # The oracle: every flow walked on tables solved from every
            # station of the steered snapshot.
            full = route_flow_table(
                RouteTables.solve(tables.arrays, station_rows), station_rows, routed.table
            )
            splices.append((routed, flows, spliced, full))
            return spliced

        monkeypatch.setattr(simulation_module, "reroute_flows", recording_reroute)
        paired = simulator.run_scenarios(
            [Scenario(name="open", faults=FAULTS), halving], epoch, self.HOURS, instrument=True
        )["half"]
        rerouted = sum(flows.size for _, flows, _, _ in splices)
        solo = simulator.run_scenarios([halving], epoch, self.HOURS)["half"]
        assert paired.steps == solo.steps
        assert any(step.steering_reroutes for step in paired.steps)
        assert rerouted and paired.metrics.counters["flows_rerouted"] == rerouted
        # Lowered weights re-walk every reachable flow, and the splice equals
        # a whole walk on station-sourced tables bit for bit: steering never
        # changes which flows are reachable.
        for routed, flows, spliced, full in splices:
            assert np.array_equal(flows, np.flatnonzero(routed.reachable))
            assert np.array_equal(spliced.reachable, full.reachable)
            assert np.array_equal(spliced.latency_ms, full.latency_ms)
            assert np.array_equal(spliced.path_offsets, full.path_offsets)
            assert np.array_equal(spliced.path_links, full.path_links)

    def test_latency_reread_matches_oracle(self, simulator, epoch, monkeypatch):
        """Steered latencies summed over the compiled incidence equal the
        hop-by-hop oracle bit for bit, on every step of a faulted sweep."""
        compiled: list[list] = []  # per step: (snapshot, compiled plan)
        real_build = simulation_module._build_plans
        real_compile = simulation_module._compile_plan

        def recording_build(*args):
            compiled.append([])
            return real_build(*args)

        def recording_compile(plan, snapshot):
            plan = real_compile(plan, snapshot)
            compiled[-1].append((snapshot, plan))
            return plan

        monkeypatch.setattr(simulation_module, "_build_plans", recording_build)
        monkeypatch.setattr(simulation_module, "_compile_plan", recording_compile)
        policy = CongestionAwareSteering(**_STICKY)
        result = simulator.run_scenarios(
            [
                Scenario(name="open", faults=FAULTS),
                Scenario(name="steered", faults=FAULTS, steering=policy),
            ],
            epoch,
            6.0,
        )["steered"]
        assert len(compiled) == len(result.steps)
        spliced = 0
        for step, compiles in zip(result.steps, compiled):
            # The base plan compiles in the kernel; a steered scenario whose
            # steering moved some flows compiles its spliced plan after it.
            spliced += len(compiles) - 1
            snapshot, plan = compiles[-1]
            edge_list, routed = snapshot.edge_list, plan.routed
            offsets, rows = rows_from_links(
                edge_list,
                snapshot.station_rows[plan.table.src],
                routed.path_offsets,
                routed.path_links,
                routed.latency_ms,
            )
            oracle = path_delays_from_rows(edge_list, offsets, rows)[routed.reachable]
            system = plan.system
            assert np.array_equal(
                system.flow_totals(edge_list.delay_ms[system.link_rows]), oracle
            )
            assert step.mean_latency_ms == float(np.mean(oracle))
        assert spliced > 0
