"""Tests of the array-native allocation engine and the max-min bugfixes.

Four layers of guarantees:

* **equivalence** -- on random graphs (congested, zero-capacity,
  zero-demand, staggered freeze orderings) the array allocators must match
  the dict references within 1e-9, with identical link-utilisation keys;
* **regressions** -- the max-min reference used to burn its 100-round cap
  (one freeze per round on staggered demands silently stopped at round
  100) and to spin without progress once the increment hit zero while
  flows were unfrozen; the negative-headroom clamp must keep rates from
  ever decreasing;
* **workload scale** -- thousands of routed flows on a real snapshot,
  compiled as the simulator compiles a step, must match the dict reference
  (also under an iteration cap) and satisfy the solver certificates;
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
from repro.network.backends import bulk_path_rows_many
from repro.network.capacity import (
    ALLOCATORS,
    AllocationResult,
    Flow,
    _link_key,
    allocate_max_min,
    allocate_proportional,
    get_allocator,
)
from repro.network.ground_station import GroundStation
from repro.network.routing import SnapshotRouter
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


def _assert_feasible(system: FlowLinkSystem, rates: np.ndarray) -> None:
    """Rates within demand and non-negative; loads within capacity."""
    assert np.all(rates >= 0.0)
    assert np.all(rates <= system.demand + 1e-9)
    load = system.link_loads(rates)
    assert np.all(load <= np.maximum(system.capacity, 0.0) + 1e-9)


def _assert_max_min_bottlenecks(system: FlowLinkSystem, rates: np.ndarray) -> None:
    """Every flow below its demand crosses a saturated link on which no
    other flow gets a larger rate."""
    load = system.link_loads(rates)
    saturated = load >= system.capacity - 1e-9
    largest = np.zeros(system.link_count)
    np.maximum.at(largest, system.link_ids, rates[system.flow_ids])
    bottleneck = saturated[system.link_ids] & (
        rates[system.flow_ids] >= largest[system.link_ids] - 1e-9
    )
    has_bottleneck = np.bincount(
        system.flow_ids, weights=bottleneck, minlength=system.flow_count
    ) > 0
    unsatisfied = np.flatnonzero(rates < system.demand - 1e-9)
    assert np.all(has_bottleneck[unsatisfied]), unsatisfied[~has_bottleneck[unsatisfied]]


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
        _assert_feasible(system, rates)

    @pytest.mark.parametrize("seed", range(6))
    def test_max_min_bottleneck_certificate(self, seed):
        graph, flows = _random_problem(seed, congestion=3.0)
        system = compile_flow_link_system(graph, flows)
        rates, _ = ARRAY_SOLVERS["max_min_array"](system)
        _assert_max_min_bottlenecks(system, rates)

    @pytest.mark.parametrize("solver", sorted(ARRAY_SOLVERS))
    def test_allocation_is_feasible_at_workload_scale(self, workload_problem, solver):
        system, _, _ = workload_problem
        rates, _ = ARRAY_SOLVERS[solver](system)
        _assert_feasible(system, rates)

    def test_max_min_bottleneck_certificate_at_workload_scale(self, workload_problem):
        system, _, _ = workload_problem
        rates, _ = ARRAY_SOLVERS["max_min_array"](system)
        _assert_max_min_bottlenecks(system, rates)


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

    def test_links_saturating_together_freeze_in_one_round(self):
        """Two links filling at the same level both freeze in that round, so
        one round later the remaining flow has already reached its demand."""
        graph = nx.Graph()
        graph.add_edge(0, 1, capacity_gbps=2.0)
        graph.add_edge(2, 3, capacity_gbps=4.0)
        graph.add_edge(4, 5, capacity_gbps=100.0)
        flows = [Flow(f"a{k}", (0, 1), 5.0) for k in range(2)]
        flows += [Flow(f"b{k}", (2, 3), 5.0) for k in range(4)]
        flows.append(Flow("c", (4, 5), 10.0))
        for allocator in (allocate_max_min, allocate_max_min_array):
            capped = allocator(graph, flows, iterations=2)
            assert capped.allocated_gbps["c"] == pytest.approx(10.0)
            assert capped.allocated_gbps["a0"] == pytest.approx(1.0)
            assert capped.allocated_gbps["b0"] == pytest.approx(1.0)

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

    def test_demand_missed_by_rounding_freezes_the_binding_flow(self):
        """At large magnitudes ``level + (demand - level)`` can fall an ulp
        short of ``demand``, beyond the absolute 1e-9 tolerance, while no
        link binds; the binding flow must then be frozen directly."""
        small, large = 212758959.39241698, 530330166.0223189
        assert small + (large - small) < large - 1e-9
        graph = nx.Graph()
        graph.add_edge(0, 1, capacity_gbps=1e12)
        flows = [Flow("small", (0, 1), small), Flow("large", (0, 1), large)]
        for allocator in (allocate_max_min, allocate_max_min_array):
            result = allocator(graph, flows)
            assert result.allocated_gbps["small"] == small
            assert result.allocated_gbps["large"] == small + (large - small)

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


@pytest.fixture(scope="module")
def workload_routes(simulator, epoch):
    """About 2,400 random node pairs routed by csgraph on a real snapshot.

    Returns ``(edge_list, demand, offsets, rows, flows)``: the ragged
    row-index paths the simulator compiles, plus the equivalent ``Flow``
    objects carrying both label paths and ``path_rows``.  Demands take a few
    values only, so tied flows freeze together, and are scaled so that many
    links saturate while other flows freeze at their demand.
    """
    edge_list = simulator.topology.snapshot_sequence(
        [epoch], simulator.ground_stations
    ).edge_list(0)
    labels = edge_list.labels
    rng = np.random.default_rng(11)
    src = rng.integers(0, len(labels), size=2400)
    dst = rng.integers(0, len(labels), size=2400)
    src, dst = src[src != dst], dst[src != dst]
    sources = np.unique(src)
    router = SnapshotRouter(backend="csgraph", arrays=edge_list.arrays())
    tables = router.routes_from_many([labels[row] for row in sources])
    offsets, rows, _ = bulk_path_rows_many(
        [tables[labels[row]] for row in sources], np.searchsorted(sources, src), dst
    )
    assert np.all(np.diff(offsets) >= 2), "every pair must be routed"
    demand = rng.choice([0.0, 0.1, 0.2, 0.5, 1.0, 4.0], size=src.size)
    flows = []
    for index in range(demand.size):
        path_rows = tuple(rows[offsets[index] : offsets[index + 1]].tolist())
        flows.append(
            Flow(
                f"f{index}",
                tuple(labels[row] for row in path_rows),
                float(demand[index]),
                path_rows=path_rows,
            )
        )
    return edge_list, demand, offsets, rows, flows


@pytest.fixture(scope="module")
def workload_problem(workload_routes):
    """A step-sized max-min problem on a real snapshot.

    Returns ``(system, graph, flows)``: the routed pairs compiled through
    :func:`compile_system_from_rows`, as the simulator compiles a step, plus
    the ``Flow`` objects and capacity graph for the dict reference.
    """
    edge_list, demand, offsets, rows, flows = workload_routes
    system = compile_system_from_rows(edge_list, demand, offsets, rows, with_keys=True)
    return system, edge_list.graph(), flows


def _named_result(system, flows, rates, utilisation) -> AllocationResult:
    return AllocationResult(
        allocated_gbps={flow.name: float(rate) for flow, rate in zip(flows, rates)},
        link_utilisation={
            key: float(value) for key, value in zip(system.link_keys, utilisation)
        },
    )


class TestWorkloadScale:
    """Max-min at the size of a sweep step, against the dict reference.

    The random problems above hold at most 30 flows; here thousands of flows
    freeze over dozens of rounds, in tied groups and on links saturating in
    different rounds, which is what the incremental waterfilling state
    (per-link frozen loads and active counts) has to get right.
    """

    def test_problem_reaches_the_incremental_bookkeeping(self, workload_problem):
        system, _, _ = workload_problem
        rates, utilisation = ARRAY_SOLVERS["max_min_array"](system)
        demand = system.demand
        assert system.flow_count >= 2000
        assert np.unique(demand).size <= 6
        assert np.count_nonzero(utilisation >= 1.0 - 1e-9) >= 30
        assert np.count_nonzero(rates < demand - 1e-9) >= 500
        assert np.count_nonzero((demand > 0.0) & (rates >= demand - 1e-9)) >= 500

    def test_max_min_matches_reference(self, workload_problem):
        system, graph, flows = workload_problem
        _assert_results_match(
            allocate_max_min(graph, flows),
            _named_result(system, flows, *ARRAY_SOLVERS["max_min_array"](system)),
        )

    def test_flow_object_compile_matches_row_compile(self, workload_routes):
        """``Flow`` objects with ``path_rows`` compile to exactly the system
        the simulator's ragged-row compile builds."""
        edge_list, demand, offsets, rows, flows = workload_routes
        objects = compile_flow_link_system(edge_list, flows)
        ragged = compile_system_from_rows(edge_list, demand, offsets, rows, with_keys=True)
        assert objects.flow_names == tuple(flow.name for flow in flows)
        assert ragged.flow_names is None
        for name in ("demand", "capacity", "flow_ids", "link_ids", "link_rows"):
            got, want = getattr(objects, name), getattr(ragged, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        assert objects.link_keys == ragged.link_keys

    @pytest.mark.parametrize("iterations", [1, 2, 5, 20, 60])
    def test_iteration_cap_matches_capped_reference(self, workload_problem, iterations):
        system, graph, flows = workload_problem
        _assert_results_match(
            allocate_max_min(graph, flows, iterations=iterations),
            _named_result(
                system, flows, *ARRAY_SOLVERS["max_min_array"](system, iterations)
            ),
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
