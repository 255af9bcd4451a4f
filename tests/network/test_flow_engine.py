"""Tests of the columnar flow stages and their sweep-level behaviour.

Selection is checked against a per-flow oracle (``flow_oracles``), flow
plans scaled by a demand multiplier against selecting on the scaled
matrix, bulk path export against lazy per-destination reconstruction, and
sweeps for exact equality between serial and worker-process runs (no
tolerances: both run the same step kernel over identically ordered arrays,
so any drift is a real ordering bug).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.coverage.walker import WalkerDelta
from repro.demand.traffic_matrix import City, GravityTrafficModel, TrafficMatrix
from repro.network.alloc_arrays import compile_system_from_rows
from repro.network.backends import RouteTables
from repro.network.flows import (
    plan_flows,
    reroute_flows,
    route_flow_table,
    station_rows,
)
from repro.network.ground_station import GroundStation
from repro.network.routing import SnapshotRouter
from repro.network.simulation import NetworkSimulator, Scenario
from repro.network.topology import ConstellationTopology

from flow_oracles import rows_from_links, select_flows, table_candidates

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
                table = plan_flows(
                    matrix, NAMES, budget, demand_multiplier=multiplier
                ).table
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
        table = plan_flows(matrix, NAMES, 5).table
        assert table_candidates(table) == reference

    def test_station_subset_and_missing_names_handled(self):
        matrix = GravityTrafficModel(cities=CITIES, total_demand=40.0).matrix_at(0.0)
        subset = ("Tokyo", "London", "Atlantis")
        reference = select_flows(matrix, subset, 10, 1.0)
        table = plan_flows(matrix, subset, 10).table
        assert table_candidates(table) == reference
        assert {src for src, _, _ in table_candidates(table)} <= {"Tokyo", "London"}


#: Demand multipliers of the plan tests: exact powers of two plus factors
#: whose products round.
MULTIPLIERS = (0.5, 1.0, 2.0, 4.0, 0.3, 1.0 / 3.0, 1.1, 3.0)


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _plan_table(matrix, names, budget, multiplier):
    """The flows a scenario runs on: the scaled shared plan, or its fallback."""
    scaled = plan_flows(matrix, names, budget).scaled(multiplier)
    if scaled is None:
        return None
    return scaled.table


def _merging_pair(multiplier: float) -> tuple[float, float]:
    """Adjacent floats ``x < up`` whose products with ``multiplier`` coincide."""
    for x in np.linspace(1.0, 2.0, 1001):
        up = np.nextafter(x, np.inf)
        if x * multiplier == up * multiplier:
            return float(x), float(up)
    raise AssertionError("no merging pair found")


def _tie_matrix(x: float, up: float, boundary: bool) -> TrafficMatrix:
    """Adjacent demands placed so that merging them reorders the selection.

    ``up`` goes to Tokyo -> Sao Paulo and ``x`` to London -> New York, whose
    names sort first: once scaling merges the two, the name tie-break puts
    London -> New York ahead.  Without ``boundary`` they are the two largest
    demands (inside a budget of 6); with it, four larger demands come first
    and a budget of 5 cuts between them.
    """
    demands = np.zeros((4, 4))
    others = [(i, j) for i in range(4) for j in range(4) if i != j]
    others.remove((2, 3))
    others.remove((0, 1))
    fill = (
        [10.0, 11.0, 12.0, 13.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        if boundary
        else [0.1 * (k + 1) for k in range(10)]
    )
    for (i, j), value in zip(others, fill):
        demands[i, j] = value
    demands[2, 3] = up
    demands[0, 1] = x
    return TrafficMatrix(cities=CITIES, demands=demands)


class TestFlowPlans:
    def test_scaled_plans_match_selection_on_scaled_demand(self):
        rng = np.random.default_rng(7)
        cities = tuple(
            City(f"C{i:02d}", float(rng.uniform(-50, 50)), float(rng.uniform(-180, 180)), 1.0)
            for i in range(24)
        )
        names = tuple(city.name for city in cities)
        demands = rng.lognormal(0.0, 2.0, size=(24, 24))
        # Repeated values exercise ties the name order must decide.
        demands[rng.random((24, 24)) < 0.2] = 1.5
        matrix = TrafficMatrix(cities=cities, demands=demands)
        for budget in (1, 17, 100, 551, 552, 1000, None):
            for multiplier in MULTIPLIERS:
                expected = plan_flows(matrix, names, budget, multiplier).table
                table = _plan_table(matrix, names, budget, multiplier)
                if table is None:
                    table = plan_flows(matrix, names, budget, multiplier).table
                for column in ("src", "dst", "demand"):
                    assert _same_bytes(
                        getattr(table, column), getattr(expected, column)
                    ), (budget, multiplier, column)

    @pytest.mark.parametrize("boundary", [False, True])
    def test_merged_adjacent_demands_force_a_private_plan(self, boundary):
        budget = 5 if boundary else 6
        x, up = _merging_pair(3.0)
        matrix = _tie_matrix(x, up, boundary)
        plan = plan_flows(matrix, NAMES, budget)
        assert plan.scaled(3.0) is None
        expected = plan_flows(matrix, NAMES, budget, 3.0).table
        # Scaling without the check would put the wrong flow first (or the
        # wrong flow across the budget): the fallback is what keeps it exact.
        naive = plan.table.demand * 3.0
        naive_pairs = list(zip(plan.table.src.tolist(), plan.table.dst.tolist()))
        expected_pairs = list(zip(expected.src.tolist(), expected.dst.tolist()))
        assert naive_pairs != expected_pairs
        assert naive.tobytes() == expected.demand.tobytes()
        # An exact multiplier keeps the order, so the plan is reused.
        for multiplier in (0.5, 2.0, 4.0):
            table = plan.scaled(multiplier).table
            reference = plan_flows(matrix, NAMES, budget, multiplier).table
            assert _same_bytes(table.src, reference.src)
            assert _same_bytes(table.demand, reference.demand)

    def test_fallback_engages_exactly_when_a_pair_merges(self):
        rng = np.random.default_rng(11)
        merged = 0
        trials = 200
        for x in rng.uniform(1.0, 2.0, size=trials):
            up = float(np.nextafter(x, np.inf))
            for boundary in (False, True):
                budget = 5 if boundary else 6
                matrix = _tie_matrix(float(x), up, boundary)
                table = _plan_table(matrix, NAMES, budget, 3.0)
                merges = x * 3.0 == up * 3.0
                assert (table is None) == merges
                if table is not None:
                    expected = plan_flows(matrix, NAMES, budget, 3.0).table
                    assert _same_bytes(table.src, expected.src)
                    assert _same_bytes(table.dst, expected.dst)
                    assert _same_bytes(table.demand, expected.demand)
            merged += merges
        # Both branches are exercised (about 30% of pairs merge under 3.0).
        assert 0.1 * trials < merged < 0.6 * trials

    def test_scaled_plan_shares_paths_and_incidence(self, simulator, epoch):
        matrix = simulator.traffic_model.matrix_at(12.0)
        sequence = simulator.topology.snapshot_sequence([epoch], simulator.ground_stations)
        edge_list = sequence.edge_list(0, NAMES)
        rows = station_rows(edge_list.node_index, NAMES)
        tables = RouteTables.solve(edge_list.arrays(), rows)
        plan = plan_flows(matrix, NAMES, 10)
        plan = plan._replace(routed=route_flow_table(tables, rows, plan.table))
        demand, offsets, links = plan.routed.compact()
        plan = plan._replace(
            system=compile_system_from_rows(edge_list, demand, offsets, links)
        )
        scaled = plan.scaled(2.5)
        assert scaled is not None
        assert scaled.routed.path_links is plan.routed.path_links
        assert scaled.system.flow_ids is plan.system.flow_ids
        assert scaled.routed.table is scaled.table
        reference = plan_flows(matrix, NAMES, 10, 2.5).table
        routed = route_flow_table(tables, rows, reference)
        demand, offsets, links = routed.compact()
        system = compile_system_from_rows(edge_list, demand, offsets, links)
        assert _same_bytes(scaled.system.demand, system.demand)
        assert _same_bytes(scaled.system.link_ids, system.link_ids)
        assert _same_bytes(scaled.system.capacity, system.capacity)


class TestBulkPathExport:
    def test_bulk_rows_match_lazy_reconstruction(self, simulator, epoch):
        sequence = simulator.topology.snapshot_sequence(
            [epoch], simulator.ground_stations
        )
        edge_list = sequence.edge_list(0)
        node_index = edge_list.node_index
        tables = RouteTables.solve(
            edge_list.arrays(), [node_index.index_of("gs:London")]
        )
        router = SnapshotRouter(arrays=edge_list.arrays())
        oracle = router.routes_from_many(["gs:London"])["gs:London"]

        labels = [f"gs:{name}" for name in ("New York", "Tokyo", "Sao Paulo")]
        dest_rows = [node_index.index_of(label) for label in labels]
        dest_rows.append(-1)  # unknown destination: empty segment, inf latency
        hop_offsets, links, latency, _ = tables.paths(
            np.zeros(len(dest_rows), dtype=np.intp),
            np.asarray(dest_rows, dtype=np.int64),
        )
        assert hop_offsets[0] == 0 and hop_offsets[-1] == links.size
        sources = np.full(len(dest_rows), tables.source_rows[0])
        offsets, rows = rows_from_links(edge_list, sources, hop_offsets, links, latency)
        for position, label in enumerate(labels):
            segment = rows[offsets[position] : offsets[position + 1]]
            reference = oracle[label]
            assert [node_index.label_of(int(row)) for row in segment] == list(
                reference.path
            )
            assert latency[position] == reference.latency_ms
        assert hop_offsets[-2] == hop_offsets[-1]  # the unknown destination
        assert np.isinf(latency[-1])

    def test_route_flow_table_matches_row_views(self, simulator, epoch):
        """Station-id-indexed tables, solved for the flows' sources only,
        route every flow exactly like the router's per-source row views;
        a station missing from the snapshot routes nothing."""
        edge_list = simulator.topology.snapshot_sequence(
            [epoch], simulator.ground_stations
        ).edge_list(0)
        table = plan_flows(simulator.traffic_model.matrix_at(12.0), NAMES, 8).table
        rows = station_rows(edge_list.node_index, NAMES)
        sources = np.unique(table.src)
        source_rows = np.full(rows.size, -1, dtype=np.intp)
        source_rows[sources] = rows[sources]
        tables = RouteTables.solve(edge_list.arrays(), source_rows)
        routed = route_flow_table(tables, rows, table)
        offsets, path_rows = rows_from_links(
            edge_list,
            rows[table.src],
            routed.path_offsets,
            routed.path_links,
            routed.latency_ms,
        )
        router = SnapshotRouter(arrays=edge_list.arrays())
        views = router.routes_from_many([f"gs:{name}" for name in NAMES])
        assert routed.reachable.any()
        for flow in range(table.flow_count):
            route = views[f"gs:{NAMES[table.src[flow]]}"].get(
                f"gs:{NAMES[table.dst[flow]]}"
            )
            begin, end = routed.path_offsets[flow : flow + 2]
            if route is None:
                assert not routed.reachable[flow] and begin == end
            else:
                segment = path_rows[offsets[flow] : offsets[flow + 1]]
                assert tuple(segment.tolist()) == route.path_rows
                assert end - begin == route.hop_count
                assert routed.latency_ms[flow] == route.latency_ms

        missing = rows.copy()
        missing[table.src[0]] = -1
        tables = RouteTables.solve(
            edge_list.arrays(), np.where(source_rows >= 0, missing, -1)
        )
        rerouted = route_flow_table(tables, missing, table)
        touches = (table.src == table.src[0]) | (table.dst == table.src[0])
        assert not rerouted.reachable[touches].any()
        assert np.array_equal(
            rerouted.reachable[~touches], routed.reachable[~touches]
        )


    def test_reroute_flows_splices_rewalked_segments(self, simulator, epoch):
        """Re-walked flows take the other tables' paths, the rest keep
        theirs; splicing every flow equals walking the whole table."""
        edge_list = simulator.topology.snapshot_sequence(
            [epoch], simulator.ground_stations
        ).edge_list(0)
        table = plan_flows(simulator.traffic_model.matrix_at(12.0), NAMES, 10).table
        rows = station_rows(edge_list.node_index, NAMES)
        base = route_flow_table(RouteTables.solve(edge_list.arrays(), rows), rows, table)
        scale = np.random.default_rng(5).uniform(1.0, 5.0, edge_list.delay_ms.size)
        steered = replace(edge_list, delay_ms=edge_list.delay_ms * scale)
        tables = RouteTables.solve(steered.arrays(), rows)
        full = route_flow_table(tables, rows, table)

        def segment(routed, flow):
            begin, end = routed.path_offsets[flow : flow + 2]
            return routed.path_links[begin:end].tolist()

        flows = np.array([1, 4, 5, 9])
        spliced = reroute_flows(base, tables, rows, flows)
        assert spliced.table is table
        for flow in range(table.flow_count):
            source = full if flow in flows else base
            assert segment(spliced, flow) == segment(source, flow)
            assert spliced.latency_ms[flow] == source.latency_ms[flow]
            assert spliced.reachable[flow] == source.reachable[flow]
        assert any(segment(base, flow) != segment(full, flow) for flow in flows)
        everything = reroute_flows(base, tables, rows, np.arange(table.flow_count))
        nothing = reroute_flows(base, tables, rows, np.empty(0, dtype=np.intp))
        for expected, got in ((full, everything), (base, nothing)):
            for name in (
                "reachable",
                "latency_ms",
                "path_offsets",
                "path_links",
            ):
                assert np.array_equal(getattr(got, name), getattr(expected, name))


SCENARIOS = [
    Scenario(name="proportional_array", allocator="proportional_array"),
    Scenario(name="max_min_array", allocator="max_min_array"),
    Scenario(name="budget", flows_per_step=4, telemetry="exact"),
    Scenario(
        name="subset",
        ground_station_names=("London", "Tokyo", "New York"),
        telemetry="sketch",
    ),
]


class TestEngineEquivalence:
    def test_executors_agree_with_serial_columnar(self, simulator, epoch):
        serial = simulator.run_scenarios(SCENARIOS, epoch, duration_hours=2.0)
        pooled = simulator.run_scenarios(
            SCENARIOS, epoch, duration_hours=2.0, max_workers=2
        )
        for scenario in SCENARIOS:
            assert pooled[scenario.name].steps == serial[scenario.name].steps
            # Telemetry aggregates, the "subset" sketch included, merge to
            # the same summary in worker processes.
            for name in ("telemetry", "link_telemetry"):
                want = getattr(serial[scenario.name], name)
                got = getattr(pooled[scenario.name], name)
                assert (got is None) == (want is None)
                if want is not None:
                    assert got.top_pairs(64) == want.top_pairs(64)
                    assert got.total() == want.total()

    def test_invalid_flow_engine_rejected(self, simulator, epoch):
        with pytest.raises(ValueError):
            Scenario(name="x", telemetry="census")
        for engine in ("objects", "rows"):
            with pytest.raises(ValueError, match="'columnar'"):
                simulator.run_scenarios([Scenario(name="a")], epoch, 1.0, flow_engine=engine)


class _FixedTrafficModel:
    """Serves one constructed traffic matrix at every hour."""

    def __init__(self, matrix: TrafficMatrix):
        self.matrix = matrix

    def matrix_at(self, utc_hour: float) -> TrafficMatrix:
        return self.matrix


class TestMixedMultiplierSweep:
    """A sweep whose multipliers round, over a matrix where one of them ties."""

    SCENARIOS = [
        Scenario(name="x1", telemetry="exact"),
        Scenario(name="x3", demand_multiplier=3.0, telemetry="exact"),
        Scenario(name="third", demand_multiplier=1.0 / 3.0),
        Scenario(name="x1.1", demand_multiplier=1.1, allocator="max_min_array"),
        Scenario(name="half", demand_multiplier=0.5),
        Scenario(name="steered-x3", demand_multiplier=3.0, steering="congestion-aware"),
    ]
    STEPS = 2

    @pytest.fixture(scope="class")
    def tied(self, simulator):
        x, up = _merging_pair(3.0)
        matrix = _tie_matrix(x, up, boundary=True)
        return NetworkSimulator(
            topology=simulator.topology,
            ground_stations=simulator.ground_stations,
            traffic_model=_FixedTrafficModel(matrix),
            flows_per_step=5,
        )

    def _sweep(self, tied, epoch, **kwargs):
        return tied.run_scenarios(
            self.SCENARIOS, epoch, duration_hours=float(self.STEPS), instrument=True, **kwargs
        )

    def test_bit_identical_across_executors(self, tied, epoch):
        serial = self._sweep(tied, epoch)
        process = self._sweep(tied, epoch, max_workers=3)
        for scenario in self.SCENARIOS:
            name = scenario.name
            assert serial[name].steps == process[name].steps
            assert process[name].metrics.counters == serial[name].metrics.counters, name
            alone = tied.run_scenarios([scenario], epoch, float(self.STEPS))[name]
            assert alone.steps == serial[name].steps

    def test_fallback_engages_only_for_the_tied_multiplier(self, tied, epoch):
        results = self._sweep(tied, epoch)
        fallbacks = {
            name: result.metrics.counters["flow_plan_fallbacks"]
            for name, result in results.items()
        }
        assert fallbacks == {
            "x1": 0.0,
            "x3": self.STEPS,
            "third": 0.0,
            "x1.1": 0.0,
            "half": 0.0,
            "steered-x3": self.STEPS,
        }
        # One shared plan per step, credited to the sweep's first scenario,
        # plus each fallback's own plan.
        built = {name: r.metrics.counters["flow_plans_built"] for name, r in results.items()}
        assert built["x1"] == built["x3"] == built["steered-x3"] == self.STEPS
        assert sum(built.values()) == 3 * self.STEPS
        # The tied scenario runs the flows selected on its scaled demand:
        # London -> New York wins the tie at the budget boundary.
        expected = plan_flows(tied.traffic_model.matrix, NAMES, 5, 3.0).table
        pairs = {(NAMES[s], NAMES[d]) for s, d in zip(expected.src, expected.dst)}
        assert ("London", "New York") in pairs and ("Tokyo", "Sao Paulo") not in pairs
        for step in results["x3"].steps:
            assert {(src, dst) for src, dst, _ in step.top_pairs} == pairs


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
        assert result.telemetry.total() == pytest.approx(offered)
        assert result.telemetry.top_pairs(3)
        for step in result.steps:
            assert step.top_pairs
            values = [value for _, _, value in step.top_pairs]
            assert values == sorted(values, reverse=True)

    def test_executors_agree_on_telemetry(self, simulator, epoch):
        serial = self._sweep(simulator, epoch)["t"]
        # A second scenario, so the sweep really runs in two workers.
        process = simulator.run_scenarios(
            [Scenario(name="t", telemetry="exact", allocator="max_min_array"), Scenario(name="u")],
            epoch,
            duration_hours=3.0,
            max_workers=2,
        )["t"]
        assert process.telemetry.top_pairs(5) == serial.telemetry.top_pairs(5)
        assert process.telemetry.total() == serial.telemetry.total()

    def test_scenario_without_telemetry_has_none(self, simulator, epoch):
        result = simulator.run_scenarios([Scenario(name="quiet")], epoch, 1.0)["quiet"]
        assert result.telemetry is None
        assert all(step.top_pairs == () for step in result.steps)
