"""Tests of the array-native allocation engine and the max-min bugfixes.

Three layers of guarantees:

* **equivalence** -- on random graphs (congested, zero-capacity,
  zero-demand, staggered freeze orderings) the array allocators must match
  the dict references within 1e-9, with identical link-utilisation keys;
* **regressions** -- the max-min reference used to burn its 100-round cap
  (one freeze per round on staggered demands silently stopped at round
  100) and to spin without progress once the increment hit zero while
  flows were unfrozen; the negative-headroom clamp must keep rates from
  ever decreasing;
* **integration** -- array-solver sweeps must hit congestion and stay
  bit-identical across serial/thread/process executors.
"""

from __future__ import annotations

import numpy as np
import networkx as nx
import pytest

from repro.coverage.walker import WalkerDelta
from repro.demand.traffic_matrix import City, GravityTrafficModel
from repro.network.alloc_arrays import (
    ARRAY_SOLVERS,
    EdgeListCompileCache,
    FlowLinkSystem,
    allocate_max_min_array,
    allocate_proportional_array,
    compile_flow_link_system,
    compile_system_from_rows,
)
from repro.network.capacity import (
    ALLOCATORS,
    Flow,
    _link_key,
    allocate_max_min,
    allocate_proportional,
    get_allocator,
)
from repro.network.ground_station import GroundStation
from repro.network.simulation import NetworkSimulator, Scenario
from repro.network.topology import ConstellationTopology


def _assert_results_match(reference, candidate, tolerance: float = 1e-9):
    assert set(reference.allocated_gbps) == set(candidate.allocated_gbps)
    for name, rate in reference.allocated_gbps.items():
        assert candidate.allocated_gbps[name] == pytest.approx(rate, abs=tolerance)
    assert set(reference.link_utilisation) == set(candidate.link_utilisation)
    for key, value in reference.link_utilisation.items():
        assert candidate.link_utilisation[key] == pytest.approx(value, abs=tolerance)


def _random_problem(seed: int, congestion: float):
    """A random connected graph plus routed flows, with awkward edges mixed in.

    ``congestion`` scales demand against capacity; above ~1 most links
    saturate, exercising deep progressive-filling orderings.
    """
    rng = np.random.default_rng(seed)
    nodes = int(rng.integers(8, 24))
    graph = nx.Graph()
    # Random spanning tree keeps every destination reachable.
    order = rng.permutation(nodes)
    for position in range(1, nodes):
        a = int(order[position])
        b = int(order[int(rng.integers(0, position))])
        graph.add_edge(a, b)
    extra = int(rng.integers(nodes, 3 * nodes))
    for _ in range(extra):
        a, b = (int(x) for x in rng.integers(0, nodes, size=2))
        if a != b:
            graph.add_edge(a, b)
    for a, b in graph.edges:
        capacity = float(rng.uniform(1.0, 20.0))
        if rng.random() < 0.08:
            capacity = 0.0  # dead link: starvation convention must match
        graph.edges[a, b]["capacity_gbps"] = capacity
        graph.edges[a, b]["delay_ms"] = float(rng.uniform(1.0, 5.0))
    flows = []
    flow_count = int(rng.integers(4, 30))
    for index in range(flow_count):
        source, destination = (int(x) for x in rng.integers(0, nodes, size=2))
        if source == destination:
            continue
        path = tuple(nx.shortest_path(graph, source, destination, weight="delay_ms"))
        demand = float(rng.uniform(0.5, 8.0)) * congestion
        if rng.random() < 0.1:
            demand = 0.0  # zero-demand flows must stay frozen at zero
        flows.append(Flow(f"flow{index}", path, demand))
    return graph, flows


class TestEquivalenceOnRandomGraphs:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("congestion", [0.3, 1.5, 6.0])
    def test_proportional_matches_reference(self, seed, congestion):
        graph, flows = _random_problem(seed, congestion)
        _assert_results_match(
            allocate_proportional(graph, flows),
            allocate_proportional_array(graph, flows),
        )

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("congestion", [0.3, 1.5, 6.0])
    def test_max_min_matches_reference(self, seed, congestion):
        graph, flows = _random_problem(seed, congestion)
        _assert_results_match(
            allocate_max_min(graph, flows),
            allocate_max_min_array(graph, flows),
        )

    def test_staggered_demands_freeze_in_order(self):
        """Demand-sorted freezing order: each round retires one flow."""
        graph = nx.Graph()
        graph.add_edge(0, 1, capacity_gbps=1000.0)
        flows = [Flow(f"f{k}", (0, 1), float(k)) for k in range(1, 30)]
        _assert_results_match(
            allocate_max_min(graph, flows), allocate_max_min_array(graph, flows)
        )

    def test_empty_flow_list(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, capacity_gbps=1.0)
        result = allocate_max_min_array(graph, [])
        assert result.allocated_gbps == {}
        assert result.link_utilisation == {}
        assert allocate_proportional_array(graph, []).allocated_gbps == {}

    def test_missing_link_rejected_like_reference(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, capacity_gbps=1.0)
        flows = [Flow("ghost", (0, 2), 1.0)]
        with pytest.raises(ValueError, match="not present"):
            allocate_proportional_array(graph, flows)
        with pytest.raises(ValueError, match="not present"):
            allocate_max_min_array(graph, flows)

    def test_duplicate_flow_names_rejected(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, capacity_gbps=1.0)
        flows = [Flow("dup", (0, 1), 1.0), Flow("dup", (0, 1), 2.0)]
        with pytest.raises(ValueError, match="unique"):
            allocate_max_min_array(graph, flows)


class TestSolverCertificates:
    """Invariants every allocation must satisfy, checked without a second
    implementation: conservation, capacity feasibility and, for max-min,
    the bottleneck condition that defines max-min fairness."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("solver", sorted(ARRAY_SOLVERS))
    def test_allocation_is_feasible(self, seed, solver):
        graph, flows = _random_problem(seed, congestion=3.0)
        system = compile_flow_link_system(graph, flows)
        rates, _ = ARRAY_SOLVERS[solver](system)
        assert np.all(rates >= 0.0)
        assert np.all(rates <= system.demand + 1e-9)
        load = system.link_loads(rates)
        assert np.all(load <= np.maximum(system.capacity, 0.0) + 1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_max_min_bottleneck_certificate(self, seed):
        """Every flow below its demand crosses a saturated link on which no
        other flow gets a larger rate."""
        graph, flows = _random_problem(seed, congestion=3.0)
        system = compile_flow_link_system(graph, flows)
        rates, _ = ARRAY_SOLVERS["max_min_array"](system)
        load = system.link_loads(rates)
        saturated = load >= system.capacity - 1e-9
        largest = np.zeros(system.link_count)
        np.maximum.at(largest, system.link_ids, rates[system.flow_ids])
        for flow in np.flatnonzero(rates < system.demand - 1e-9):
            links = system.link_ids[system.flow_ids == flow]
            assert np.any(saturated[links] & (rates[flow] >= largest[links] - 1e-9)), flow


class TestMaxMinRegressions:
    def test_converges_beyond_former_iteration_cap(self):
        """150 staggered demands need 150 freeze rounds; the old 100-round
        cap silently returned the largest flows stuck near rate 100."""
        demands = list(range(1, 151))
        graph = nx.Graph()
        graph.add_edge(0, 1, capacity_gbps=float(sum(demands)) + 10.0)
        flows = [Flow(f"f{k}", (0, 1), float(k)) for k in demands]
        for allocator in (allocate_max_min, allocate_max_min_array):
            result = allocator(graph, flows)
            for k in demands:
                assert result.allocated_gbps[f"f{k}"] == pytest.approx(float(k))

    def test_explicit_iteration_cap_still_respected(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, capacity_gbps=10000.0)
        flows = [Flow(f"f{k}", (0, 1), float(k)) for k in range(1, 20)]
        for allocator in (allocate_max_min, allocate_max_min_array):
            capped = allocator(graph, flows, iterations=3)
            # Three rounds retire the three smallest flows; the rest remain
            # at the uniform fill level of round three.
            assert capped.allocated_gbps["f19"] == pytest.approx(3.0)

    def test_zero_increment_with_unfrozen_flows_terminates(self):
        """A bottleneck whose tiny positive headroom spreads below 1e-12 per
        flow never trips the absolute saturation tolerance; the allocator
        must freeze it directly instead of spinning (the reference now runs
        uncapped, so spinning would hang)."""
        member_count = 1200
        capacity = member_count * 1.0 + 1.15e-9
        graph = nx.Graph()
        graph.add_edge(1, 2, capacity_gbps=capacity)
        graph.add_edge(3, 4, capacity_gbps=1e6)
        flows = [Flow(f"m{k}", (1, 2), 2.0) for k in range(member_count)]
        # Demand exactly 1.0 makes the first round's increment bind on this
        # flow, leaving the shared link at headroom 1.15e-9 (> the 1e-9
        # saturation tolerance) with share ~9.6e-13 (< the 1e-12 floor).
        flows.append(Flow("pace", (3, 4), 1.0))
        for allocator in (allocate_max_min, allocate_max_min_array):
            result = allocator(graph, flows)
            assert result.allocated_gbps["pace"] == pytest.approx(1.0)
            for k in range(member_count):
                assert result.allocated_gbps[f"m{k}"] == pytest.approx(1.0, abs=1e-8)
            assert result.worst_link_utilisation() <= 1.0 + 1e-9

    def test_negative_headroom_never_drives_rates_down(self):
        """A (mis)configured negative-capacity link makes the raw increment
        negative; it must clamp at zero -- flows elsewhere keep filling and
        no rate ever goes negative."""
        graph = nx.Graph()
        graph.add_edge(0, 1, capacity_gbps=-5.0)
        graph.add_edge(2, 3, capacity_gbps=10.0)
        flows = [Flow("doomed", (0, 1), 4.0), Flow("fine", (2, 3), 4.0)]
        for allocator in (allocate_max_min, allocate_max_min_array):
            result = allocator(graph, flows)
            assert result.allocated_gbps["doomed"] == 0.0
            assert result.allocated_gbps["fine"] == pytest.approx(4.0)
            assert all(rate >= 0.0 for rate in result.allocated_gbps.values())

    def test_zero_capacity_link_convention(self):
        graph = nx.Graph()
        for a, b in ((0, 1), (1, 2)):
            graph.add_edge(a, b, capacity_gbps=10.0)
        graph.edges[1, 2]["capacity_gbps"] = 0.0
        flows = [Flow("dead", (0, 1, 2), 4.0), Flow("live", (0, 1), 6.0)]
        for allocator in (allocate_max_min_array, allocate_proportional_array):
            result = allocator(graph, flows)
            assert result.allocated_gbps["dead"] == pytest.approx(0.0, abs=1e-9)
            assert result.allocated_gbps["live"] == pytest.approx(6.0, abs=1e-6)
            assert result.link_utilisation[(1, 2)] == 1.0


class TestLinkKeyNormalisation:
    def test_numeric_pairs_order_numerically(self):
        # str-ordering placed 10 before 2 ("10" < "2"); the normalised key
        # orders satellite ids numerically.
        assert _link_key(10, 2) == (2, 10)
        assert _link_key(2, 10) == (2, 10)

    def test_mixed_pairs_place_numbers_first(self):
        assert _link_key("gs:London", 7) == (7, "gs:London")
        assert _link_key(7, "gs:London") == (7, "gs:London")

    def test_string_pairs_order_lexicographically(self):
        assert _link_key("gs:b", "gs:a") == ("gs:a", "gs:b")

    def test_reference_and_array_produce_identical_keys(self):
        graph = nx.Graph()
        graph.add_edge(2, 10, capacity_gbps=5.0)
        graph.add_edge(10, 11, capacity_gbps=5.0)
        flows = [Flow("f", (2, 10, 11), 3.0)]
        reference = allocate_proportional(graph, flows)
        candidate = allocate_proportional_array(graph, flows)
        assert set(reference.link_utilisation) == {(2, 10), (10, 11)}
        assert set(candidate.link_utilisation) == {(2, 10), (10, 11)}


class TestCompilation:
    def test_registry_exposes_array_allocators(self):
        assert get_allocator("proportional_array") is allocate_proportional_array
        assert get_allocator("max_min_array") is allocate_max_min_array
        assert ALLOCATORS["max_min_array"].uses_arrays

    def test_system_shape(self):
        graph = nx.Graph()
        for a, b in ((0, 1), (1, 2), (2, 3)):
            graph.add_edge(a, b, capacity_gbps=7.0)
        flows = [Flow("a", (0, 1, 2), 1.0), Flow("b", (1, 2, 3), 1.0)]
        system = compile_flow_link_system(graph, flows)
        assert isinstance(system, FlowLinkSystem)
        assert system.flow_count == 2
        assert system.link_count == 3  # (0,1), (1,2) shared, (2,3)
        assert system.flow_ids.size == 4
        assert np.all(system.capacity == 7.0)
        loads = system.link_loads(np.array([1.0, 1.0]))
        assert loads[list(system.link_keys).index((1, 2))] == pytest.approx(2.0)

    def test_index_path_matches_graph_path(self):
        """Compiling from path_rows against an edge list must produce the
        same allocation as label-path compilation over the graph."""
        from repro.network.backends import SnapshotEdgeList

        labels = (0, 1, 2, 3, "gs:x")
        a = np.array([0, 1, 2, 0], dtype=np.intp)
        b = np.array([1, 2, 3, 4], dtype=np.intp)
        capacity = np.array([4.0, 2.0, 6.0, 8.0])
        edge_list = SnapshotEdgeList(
            labels=labels,
            a=a,
            b=b,
            distance_km=np.ones(4),
            delay_ms=np.ones(4),
            capacity_gbps=capacity,
        )
        flows_rows = [
            Flow("f1", ("gs:x", 0, 1, 2), 5.0, path_rows=(4, 0, 1, 2)),
            Flow("f2", (1, 2, 3), 3.0, path_rows=(1, 2, 3)),
        ]
        flows_labels = [
            Flow("f1", ("gs:x", 0, 1, 2), 5.0),
            Flow("f2", (1, 2, 3), 3.0),
        ]
        graph = edge_list.graph()
        for allocator in (allocate_max_min_array, allocate_proportional_array):
            _assert_results_match(
                allocator(graph, flows_labels), allocator(edge_list, flows_rows)
            )

    def test_index_path_rejects_foreign_rows(self):
        from repro.network.backends import SnapshotEdgeList

        edge_list = SnapshotEdgeList(
            labels=(0, 1),
            a=np.array([0], dtype=np.intp),
            b=np.array([1], dtype=np.intp),
            distance_km=np.ones(1),
            delay_ms=np.ones(1),
            capacity_gbps=np.array([1.0]),
        )
        # Rows point at the wrong labels for this snapshot.
        flows = [Flow("f", (1, 0), 1.0, path_rows=(0, 1))]
        with pytest.raises(ValueError, match="label table"):
            allocate_max_min_array(edge_list, flows)

    def test_compile_cache_matches_edge_list_compile(self):
        """A shared compile cache compiles exactly like its edge list, and
        anything else is rejected."""
        from repro.network.backends import SnapshotEdgeList

        edge_list = SnapshotEdgeList(
            labels=(0, 1, 2),
            a=np.array([0, 1], dtype=np.intp),
            b=np.array([1, 2], dtype=np.intp),
            distance_km=np.ones(2),
            delay_ms=np.ones(2),
            capacity_gbps=np.array([3.0, 5.0]),
        )
        demand = np.array([2.0, 4.0])
        offsets = np.array([0, 3, 5])
        rows = np.array([0, 1, 2, 2, 1])
        direct = compile_system_from_rows(edge_list, demand, offsets, rows)
        cached = compile_system_from_rows(
            EdgeListCompileCache(edge_list), demand, offsets, rows
        )
        for name in ("capacity", "flow_ids", "link_ids", "link_rows"):
            assert np.array_equal(getattr(direct, name), getattr(cached, name))
        with pytest.raises(ValueError, match="SnapshotEdgeList"):
            compile_system_from_rows(edge_list.graph(), demand, offsets, rows)

    def test_flow_path_rows_validation(self):
        with pytest.raises(ValueError, match="mirror"):
            Flow("f", (0, 1, 2), 1.0, path_rows=(0, 1))
        # path_rows never affect flow equality.
        assert Flow("f", (0, 1), 1.0, path_rows=(0, 1)) == Flow("f", (0, 1), 1.0)


CITIES = (
    City("London", 51.5, -0.1, 9.6),
    City("New York", 40.7, -74.0, 20.0),
    City("Tokyo", 35.7, 139.7, 37.0),
    City("Sao Paulo", -23.6, -46.6, 22.0),
)


@pytest.fixture(scope="module")
def simulator(epoch) -> NetworkSimulator:
    wd = WalkerDelta(
        altitude_km=560.0, inclination_deg=65.0, total_satellites=180, planes=10, phasing=1
    )
    elements = wd.satellite_elements()
    per_plane = wd.satellites_per_plane
    topology = ConstellationTopology(
        planes=[elements[i * per_plane : (i + 1) * per_plane] for i in range(wd.planes)],
        epoch=epoch,
    )
    stations = [GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in CITIES]
    return NetworkSimulator(
        topology=topology,
        ground_stations=stations,
        # High total demand congests the snapshot links, so the allocator
        # actually shapes the delivered traffic.
        traffic_model=GravityTrafficModel(cities=CITIES, total_demand=400.0),
        flows_per_step=10,
    )


SCENARIOS = [
    Scenario(name="prop_array", allocator="proportional_array"),
    Scenario(name="mm_array", allocator="max_min_array"),
]


class TestSweepIntegration:
    def test_array_policy_identical_across_executors(self, simulator, epoch):
        serial = simulator.run_scenarios(SCENARIOS, epoch, duration_hours=2.0)
        threaded = simulator.run_scenarios(
            SCENARIOS, epoch, duration_hours=2.0, max_workers=3
        )
        pooled = simulator.run_scenarios(
            SCENARIOS, epoch, duration_hours=2.0, max_workers=2, executor="process"
        )
        for name in ("prop_array", "mm_array"):
            assert threaded[name].steps == serial[name].steps
            assert pooled[name].steps == serial[name].steps
        # The sweep must actually hit congestion for this to mean much.
        assert any(
            step.worst_link_utilisation >= 1.0 - 1e-6 for step in serial["mm_array"].steps
        )

    def test_run_accepts_array_allocator(self, simulator, epoch):
        single = simulator.run(epoch, duration_hours=2.0, allocator="max_min_array")
        sweep = simulator.run_scenarios([SCENARIOS[1]], epoch, duration_hours=2.0)
        assert single.steps == sweep["mm_array"].steps
