"""Tests of the array-native allocation engine and the max-min bugfixes.

Six layers of guarantees:

* **equivalence** -- on random graphs (congested, zero-capacity,
  zero-demand, staggered freeze orderings) the array solvers, fed through
  the oracles' label-flow compile, must match the dict references of
  ``flow_oracles`` within 1e-9, with identical link-utilisation keys;
* **regressions** -- the max-min reference used to burn its 100-round cap
  (one freeze per round on staggered demands silently stopped at round
  100) and to spin without progress once the increment hit zero while
  flows were unfrozen; the negative-headroom clamp must keep rates from
  ever decreasing;
* **workload scale** -- thousands of routed flows on a real snapshot,
  compiled as the simulator compiles a step, must match the dict reference
  (also under an iteration cap) and satisfy the solver certificates;
* **integration** -- array-solver sweeps must hit congestion and stay
  bit-identical between serial and worker-process sweeps;
* **batched waterfilling** -- the library max-min solver replays runs of
  demand-only rounds in one pass; its rates and utilisation must equal
  the round-by-round oracle bit for bit (random systems, the workload
  problem, real sweep steps), and a traced sweep counts both the logical
  rounds and the passes;
* **validation** -- a :class:`FlowLinkSystem` with NaN, infinite or
  negative demand or capacity, or incidence indices that do not fit,
  is rejected naming the parameter and the first bad index.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np
import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from flow_oracles import (
    Flow,
    allocate_array,
    allocate_max_min,
    allocate_proportional,
    compile_flows,
    edge_list_from_graph,
    graph_from_edge_list,
    hop_links,
    link_key,
    link_keys,
    named_result,
    path_links,
    rows_from_links,
    waterfill_by_rounds,
)
from repro.coverage.walker import WalkerDelta
from repro.demand.traffic_matrix import City, GravityTrafficModel
from repro.network.alloc_arrays import (
    ARRAY_SOLVERS,
    FlowLinkSystem,
    compile_system_from_rows,
)
from repro.network.backends import RouteTables, SnapshotEdgeList
from repro.network.ground_station import GroundStation
from repro.network.simulation import NetworkSimulator, Scenario
from repro.network.topology import ConstellationTopology
from repro.obs import NULL_TRACER, Tracer

allocate_proportional_array = partial(allocate_array, "proportional_array")
allocate_max_min_array = partial(allocate_array, "max_min_array")


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
        """The compile names a flow crossing a missing link (or a node the
        snapshot does not know) by its index, as the reference names it."""
        graph = nx.Graph()
        graph.add_edge(0, 1, capacity_gbps=1.0)
        graph.add_node(2)
        for path in ((0, 2), (0, 1, 2), (0, 1, "nowhere")):
            flows = [Flow("ok", (1, 0), 1.0), Flow("ghost", path, 1.0)]
            with pytest.raises(
                ValueError, match="flow 'ghost' uses a link not present in the graph"
            ):
                allocate_proportional(graph, flows)
            for capacity in (graph, edge_list_from_graph(graph)):
                with pytest.raises(
                    ValueError, match="flow 1 uses a link not present in the snapshot"
                ):
                    compile_flows(capacity, flows)

    def test_duplicate_flow_names_rejected(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, capacity_gbps=1.0)
        flows = [Flow("dup", (0, 1), 1.0), Flow("dup", (0, 1), 2.0)]
        with pytest.raises(ValueError, match="unique"):
            compile_flows(graph, flows)


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
        system, _ = compile_flows(graph, flows)
        rates, _ = ARRAY_SOLVERS[solver](system)
        _assert_feasible(system, rates)

    @pytest.mark.parametrize("seed", range(6))
    def test_max_min_bottleneck_certificate(self, seed):
        graph, flows = _random_problem(seed, congestion=3.0)
        system, _ = compile_flows(graph, flows)
        rates, _ = ARRAY_SOLVERS["max_min_array"](system)
        _assert_max_min_bottlenecks(system, rates)

    @pytest.mark.parametrize("solver", sorted(ARRAY_SOLVERS))
    def test_allocation_is_feasible_at_workload_scale(self, workload_problem, solver):
        system = workload_problem[0]
        rates, _ = ARRAY_SOLVERS[solver](system)
        _assert_feasible(system, rates)

    def test_max_min_bottleneck_certificate_at_workload_scale(self, workload_problem):
        system = workload_problem[0]
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
        negative; the reference clamps it at zero -- flows elsewhere keep
        filling and no rate ever goes negative.  The library rejects such a
        link when it builds the system, before any solver runs."""
        graph = nx.Graph()
        graph.add_edge(0, 1, capacity_gbps=-5.0)
        graph.add_edge(2, 3, capacity_gbps=10.0)
        flows = [Flow("doomed", (0, 1), 4.0), Flow("fine", (2, 3), 4.0)]
        result = allocate_max_min(graph, flows)
        assert result.allocated_gbps["doomed"] == 0.0
        assert result.allocated_gbps["fine"] == pytest.approx(4.0)
        assert all(rate >= 0.0 for rate in result.allocated_gbps.values())
        with pytest.raises(ValueError, match=r"capacity\[0\] = -5\.0 must be finite"):
            allocate_max_min_array(graph, flows)

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


def _proportional_with_full_scan(system: FlowLinkSystem) -> tuple[np.ndarray, np.ndarray]:
    """The proportional solver scanning for starved flows even when no link
    is starved: the oracle of the solver's skip."""
    demand, capacity = system.demand, system.capacity
    load = system.link_loads(demand)
    starved_links = (capacity <= 0.0) & (load > 0.0)
    starved_flows = system.flows_touching(starved_links)
    if starved_flows.any():
        load = system.link_loads(np.where(starved_flows, 0.0, demand))
    scale = 1.0
    congested = (load > capacity) & (capacity > 0.0)
    if congested.any():
        scale = min(1.0, float((capacity[congested] / load[congested]).min()))
    allocated = np.where(starved_flows, 0.0, demand * scale)
    utilisation = np.zeros(system.link_count)
    positive = capacity > 0.0
    utilisation[positive] = load[positive] * scale / capacity[positive]
    utilisation[starved_links] = 1.0
    return allocated, utilisation


class TestProportionalStarvedScan:
    """The starved-flow scan runs only when some link is starved."""

    @staticmethod
    def solve_counting_scans(system, monkeypatch):
        scans = []
        flows_touching = FlowLinkSystem.flows_touching

        def counting(self, link_mask):
            scans.append(int(link_mask.sum()))
            return flows_touching(self, link_mask)

        monkeypatch.setattr(FlowLinkSystem, "flows_touching", counting)
        solved = ARRAY_SOLVERS["proportional_array"](system)
        monkeypatch.undo()
        return solved, scans

    @pytest.mark.parametrize("dead_capacity", [0.0, 10.0])
    def test_with_and_without_a_starved_link(self, dead_capacity, monkeypatch):
        graph = nx.Graph()
        for a, b in ((0, 1), (1, 2), (2, 3)):
            graph.add_edge(a, b, capacity_gbps=8.0)
        graph.edges[1, 2]["capacity_gbps"] = dead_capacity
        flows = [Flow("through", (0, 1, 2, 3), 4.0), Flow("near", (0, 1), 6.0)]
        system, _ = compile_flows(graph, flows)
        (rates, utilisation), scans = self.solve_counting_scans(system, monkeypatch)
        expected = _proportional_with_full_scan(system)
        np.testing.assert_array_equal(rates, expected[0])
        np.testing.assert_array_equal(utilisation, expected[1])
        assert scans == ([1] if dead_capacity == 0.0 else [])
        assert (rates[0] == 0.0) == (dead_capacity == 0.0)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("congestion", [0.3, 6.0])
    def test_random_problems_equal_the_full_scan(self, seed, congestion, monkeypatch):
        graph, flows = _random_problem(seed, congestion)
        system, _ = compile_flows(graph, flows)
        (rates, utilisation), scans = self.solve_counting_scans(system, monkeypatch)
        expected = _proportional_with_full_scan(system)
        np.testing.assert_array_equal(rates, expected[0])
        np.testing.assert_array_equal(utilisation, expected[1])
        starved = (system.capacity <= 0.0) & (system.link_loads(system.demand) > 0.0)
        assert len(scans) == int(starved.any())


class TestLinkKeyNormalisation:
    def test_numeric_pairs_order_numerically(self):
        # str-ordering placed 10 before 2 ("10" < "2"); the normalised key
        # orders satellite ids numerically.
        assert link_key(10, 2) == (2, 10)
        assert link_key(2, 10) == (2, 10)

    def test_mixed_pairs_place_numbers_first(self):
        assert link_key("gs:London", 7) == (7, "gs:London")
        assert link_key(7, "gs:London") == (7, "gs:London")

    def test_string_pairs_order_lexicographically(self):
        assert link_key("gs:b", "gs:a") == ("gs:a", "gs:b")

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
    @pytest.mark.parametrize(
        "name, oracle",
        [("proportional_array", allocate_proportional), ("max_min_array", allocate_max_min)],
    )
    def test_solver_table_resolves_each_allocator_name(self, name, oracle):
        """``Scenario.allocator`` resolves through ``ARRAY_SOLVERS``; each name
        must select the solver that matches its dict oracle on a congested
        problem (where the two allocation rules disagree)."""
        assert sorted(ARRAY_SOLVERS) == ["max_min_array", "proportional_array"]
        graph, flows = _random_problem(0, congestion=3.0)
        system, _ = compile_flows(graph, flows)
        rates, _ = ARRAY_SOLVERS[name](system)
        reference = oracle(graph, flows).allocated_gbps
        names = [flow.name for flow in flows]
        assert dict(zip(names, rates)) == pytest.approx(reference, abs=1e-9)

    def test_system_shape(self):
        graph = nx.Graph()
        for a, b in ((0, 1), (1, 2), (2, 3)):
            graph.add_edge(a, b, capacity_gbps=7.0)
        flows = [Flow("a", (0, 1, 2), 1.0), Flow("b", (1, 2, 3), 1.0)]
        system, keys = compile_flows(graph, flows)
        assert isinstance(system, FlowLinkSystem)
        assert system.flow_count == 2
        assert system.link_count == 3  # (0,1), (1,2) shared, (2,3)
        assert system.flow_ids.size == 4
        assert np.all(system.capacity == 7.0)
        loads = system.link_loads(np.array([1.0, 1.0]))
        assert loads[list(keys).index((1, 2))] == pytest.approx(2.0)

    def test_edge_list_compile_matches_graph_compile(self):
        """Label flows compile to the same allocation against an edge list
        and against its graph view."""
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
        flows = [
            Flow("f1", ("gs:x", 0, 1, 2), 5.0),
            Flow("f2", (1, 2, 3), 3.0),
        ]
        graph = graph_from_edge_list(edge_list)
        for allocator in (allocate_max_min_array, allocate_proportional_array):
            _assert_results_match(allocator(graph, flows), allocator(edge_list, flows))

    def test_graph_edge_without_capacity_raises(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, capacity_gbps=1.0)
        graph.add_edge(1, 2)
        allocate_max_min_array(graph, [Flow("f", (0, 1), 1.0)])
        with pytest.raises(ValueError, match=r"link \(1, 2\) has no capacity_gbps"):
            allocate_max_min_array(graph, [Flow("f", (0, 1, 2), 1.0)])


def _random_ragged_paths(rng) -> tuple[SnapshotEdgeList, np.ndarray, np.ndarray]:
    """A random edge list and ragged walks on it.

    Links are stored in random order and orientation.  Segments are empty,
    single-node or random walks, which on a small graph cross some links
    more than once.
    """
    n = int(rng.integers(2, 25))
    pairs = sorted(
        {(min(u, v), max(u, v)) for u, v in rng.integers(0, n, (2 * n, 2)) if u != v}
    )
    rng.shuffle(pairs)
    a = np.array([pair[0] for pair in pairs], dtype=np.intp)
    b = np.array([pair[1] for pair in pairs], dtype=np.intp)
    flip = rng.random(a.size) < 0.5
    a, b = np.where(flip, b, a), np.where(flip, a, b)
    ones = np.ones(a.size)
    edge_list = SnapshotEdgeList(
        tuple(range(n)), a, b, ones, ones, rng.uniform(0.0, 10.0, a.size)
    )
    neighbours = [[] for _ in range(n)]
    for u, v in zip(a.tolist(), b.tolist()):
        neighbours[u].append(v)
        neighbours[v].append(u)
    segments = []
    for _ in range(int(rng.integers(0, 12))):
        length = int(rng.choice([0, 1, rng.integers(2, 10)]))
        walk = [int(rng.integers(0, n))] if length else []
        while 0 < len(walk) < length and neighbours[walk[-1]]:
            walk.append(int(rng.choice(neighbours[walk[-1]])))
        segments.append(walk)
    offsets = np.zeros(len(segments) + 1, dtype=np.intp)
    np.cumsum([len(walk) for walk in segments], out=offsets[1:])
    rows = np.array([row for walk in segments for row in walk], dtype=np.intp)
    return edge_list, offsets, rows


class TestCompileFromEdgeRows:
    """The compile from per-hop edge rows equals the oracle that sorts and
    searches every hop's link code (:func:`flow_oracles.hop_links`)."""

    def test_matches_the_sorting_oracle(self):
        rng = np.random.default_rng(21)
        repeated = 0
        for _ in range(300):
            edge_list, offsets, rows = _random_ragged_paths(rng)
            demand = rng.uniform(0.0, 5.0, offsets.size - 1)
            hop_offsets, links = path_links(edge_list, offsets, rows)
            system = compile_system_from_rows(edge_list, demand, hop_offsets, links)
            flow_ids, link_ids, link_rows = hop_links(edge_list, offsets, rows)
            for name, want in (
                ("flow_ids", flow_ids),
                ("link_ids", link_ids),
                ("link_rows", link_rows),
            ):
                got = getattr(system, name)
                assert got.dtype == want.dtype, name
                assert np.array_equal(got, want), name
            assert np.array_equal(system.capacity, edge_list.capacity_gbps[link_rows])
            repeated += link_ids.size > np.unique(link_ids).size
        assert repeated > 50

    def test_hop_without_link_names_the_flow(self):
        rng = np.random.default_rng(22)
        checked = 0
        for _ in range(300):
            edge_list, offsets, rows = _random_ragged_paths(rng)
            lengths = np.diff(offsets)
            walks = np.flatnonzero(lengths >= 2)
            if not walks.size:
                continue
            flow = int(rng.choice(walks))
            hop = int(offsets[flow] + rng.integers(1, lengths[flow]))
            # A node the previous one has no link to, or one outside the
            # label table.
            linked = set(edge_list.b[edge_list.a == rows[hop - 1]].tolist())
            linked |= set(edge_list.a[edge_list.b == rows[hop - 1]].tolist())
            strangers = sorted(set(range(len(edge_list.labels))) - linked)
            rows = rows.copy()
            rows[hop] = rng.choice(strangers + [len(edge_list.labels)])
            message = f"flow {flow} uses a link not present in the snapshot"
            with pytest.raises(ValueError, match=message):
                hop_links(edge_list, offsets, rows)
            hop_offsets, links = path_links(edge_list, offsets, rows)
            with pytest.raises(ValueError, match=message):
                compile_system_from_rows(
                    edge_list, np.ones(offsets.size - 1), hop_offsets, links
                )
            checked += 1
        assert checked > 100

    def test_negative_hop_row_names_the_flow(self):
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(200):
            edge_list, offsets, rows = _random_ragged_paths(rng)
            hop_offsets, links = path_links(edge_list, offsets, rows)
            walks = np.flatnonzero(np.diff(hop_offsets))
            if not walks.size:
                continue
            flow = int(rng.choice(walks))
            links = links.copy()
            links[rng.integers(hop_offsets[flow], hop_offsets[flow + 1])] = -1
            with pytest.raises(
                ValueError, match=f"flow {flow} uses a link not present in the snapshot"
            ):
                compile_system_from_rows(
                    edge_list, np.ones(offsets.size - 1), hop_offsets, links
                )
            checked += 1
        assert checked > 100

    def test_offsets_must_end_at_the_hop_count(self):
        edge_list, offsets, rows = _random_ragged_paths(np.random.default_rng(24))
        hop_offsets, links = path_links(edge_list, offsets, rows)
        demand = np.ones(offsets.size - 1)
        with pytest.raises(ValueError, match="offsets end at"):
            compile_system_from_rows(edge_list, demand, hop_offsets, np.append(links, 0))


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

    Returns ``(edge_list, demand, offsets, links, flows)``: the ragged
    paths' edge rows the simulator compiles, as the walk records them,
    plus the equivalent ``Flow`` objects with label paths.  Demands take a few
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
    tables = RouteTables.solve(edge_list.arrays(), sources)
    paths = tables.paths(np.searchsorted(sources, src), dst)
    offsets, links = paths.offsets, paths.links
    assert np.all(np.diff(offsets) >= 1), "every pair must be routed"
    row_offsets, rows = rows_from_links(edge_list, src, offsets, links, paths.latency_ms)
    demand = rng.choice([0.0, 0.1, 0.2, 0.5, 1.0, 4.0], size=src.size)
    flows = []
    for index in range(demand.size):
        path = rows[row_offsets[index] : row_offsets[index + 1]].tolist()
        flows.append(
            Flow(f"f{index}", tuple(labels[row] for row in path), float(demand[index]))
        )
    return edge_list, demand, offsets, links, flows


@pytest.fixture(scope="module")
def workload_problem(workload_routes):
    """A step-sized max-min problem on a real snapshot.

    Returns ``(system, keys, graph, flows)``: the routed pairs compiled
    through :func:`compile_system_from_rows`, as the simulator compiles a
    step, each link's label key for the result dict, plus the ``Flow``
    objects and capacity graph for the dict reference.
    """
    edge_list, demand, offsets, links, flows = workload_routes
    system = compile_system_from_rows(edge_list, demand, offsets, links)
    keys = link_keys(edge_list, system.link_rows)
    return system, keys, graph_from_edge_list(edge_list), flows


class TestWorkloadScale:
    """Max-min at the size of a sweep step, against the dict reference.

    The random problems above hold at most 30 flows; here thousands of flows
    freeze over dozens of rounds, in tied groups and on links saturating in
    different rounds, which is what the incremental waterfilling state
    (per-link frozen loads and active counts) has to get right.
    """

    def test_problem_reaches_the_incremental_bookkeeping(self, workload_problem):
        system = workload_problem[0]
        rates, utilisation = ARRAY_SOLVERS["max_min_array"](system)
        demand = system.demand
        assert system.flow_count >= 2000
        assert np.unique(demand).size <= 6
        assert np.count_nonzero(utilisation >= 1.0 - 1e-9) >= 30
        assert np.count_nonzero(rates < demand - 1e-9) >= 500
        assert np.count_nonzero((demand > 0.0) & (rates >= demand - 1e-9)) >= 500

    def test_max_min_matches_reference(self, workload_problem):
        system, keys, graph, flows = workload_problem
        _assert_results_match(
            allocate_max_min(graph, flows),
            named_result(flows, keys, *ARRAY_SOLVERS["max_min_array"](system)),
        )

    def test_flow_object_compile_matches_row_compile(self, workload_routes):
        """Label-only ``Flow`` objects, compiled by the oracles on the edge
        list or on its graph view, give exactly the system the simulator's
        ragged-row compile builds."""
        edge_list, demand, offsets, links, flows = workload_routes
        graph = graph_from_edge_list(edge_list)
        ragged = compile_system_from_rows(edge_list, demand, offsets, links)
        on_edge_list, edge_list_keys = compile_flows(edge_list, flows)
        on_graph, graph_keys = compile_flows(graph, flows)
        for objects in (on_edge_list, on_graph):
            for name in ("demand", "capacity", "flow_ids", "link_ids"):
                got, want = getattr(objects, name), getattr(ragged, name)
                assert got.dtype == want.dtype, name
                assert np.array_equal(got, want), name
        # The graph's edge rows follow its own edge order; links match by key.
        assert np.array_equal(on_edge_list.link_rows, ragged.link_rows)
        assert graph_keys == edge_list_keys

    @pytest.mark.parametrize("iterations", [1, 2, 5, 20, 60])
    def test_iteration_cap_matches_capped_reference(self, workload_problem, iterations):
        system, keys, graph, flows = workload_problem
        _assert_results_match(
            allocate_max_min(graph, flows, iterations=iterations),
            named_result(
                flows, keys, *ARRAY_SOLVERS["max_min_array"](system, iterations)
            ),
        )


SCENARIOS = [
    Scenario(name="prop_array", allocator="proportional_array"),
    Scenario(name="mm_array", allocator="max_min_array"),
]


class TestSweepIntegration:
    def test_array_policy_identical_across_executors(self, simulator, epoch):
        serial = simulator.run_scenarios(SCENARIOS, epoch, duration_hours=2.0)
        pooled = simulator.run_scenarios(
            SCENARIOS, epoch, duration_hours=2.0, max_workers=2
        )
        for name in ("prop_array", "mm_array"):
            assert pooled[name].steps == serial[name].steps
        # The sweep must actually hit congestion for this to mean much.
        assert any(
            step.worst_link_utilisation >= 1.0 - 1e-6 for step in serial["mm_array"].steps
        )

    def test_run_accepts_array_allocator(self, simulator, epoch):
        single = simulator.run(epoch, duration_hours=2.0, allocator="max_min_array")
        sweep = simulator.run_scenarios([SCENARIOS[1]], epoch, duration_hours=2.0)
        assert single.steps == sweep["mm_array"].steps


def _assert_bit_identical(system: FlowLinkSystem, iterations=None) -> None:
    """The library max-min solver equals the round-by-round oracle exactly."""
    want_rates, want_utilisation = waterfill_by_rounds(system, iterations)
    rates, utilisation = ARRAY_SOLVERS["max_min_array"](system, iterations)
    assert np.array_equal(rates, want_rates)
    assert np.array_equal(utilisation, want_utilisation)


def _sweep_simulator(
    epoch,
    satellites: int,
    planes: int,
    stations: int,
    flows: int,
    total_demand: float = 4000.0,
) -> NetworkSimulator:
    """The end-to-end max-min sweep's inputs at a given size.

    A 560 km, 65 degree Walker shell; ``stations`` synthetic stations
    placed on a golden-ratio lattice within +/-55 degrees latitude with
    seeded Pareto weights; ``total_demand`` Gbps of gravity demand;
    ``flows`` flows per step.
    """
    rng = np.random.default_rng(3)
    golden = (1.0 + 5.0**0.5) / 2.0
    index = np.arange(stations)
    latitudes = -55.0 + 110.0 * ((index * golden) % 1.0)
    longitudes = -180.0 + 360.0 * ((index * golden * golden) % 1.0)
    weights = rng.pareto(1.5, size=stations) + 1.0
    cities = tuple(
        City(f"S{i:03d}", float(latitudes[i]), float(longitudes[i]), float(weights[i]))
        for i in range(stations)
    )
    walker = WalkerDelta(
        altitude_km=560.0,
        inclination_deg=65.0,
        total_satellites=satellites,
        planes=planes,
        phasing=1,
    )
    elements = walker.satellite_elements()
    per_plane = walker.satellites_per_plane
    topology = ConstellationTopology(
        planes=[elements[i * per_plane : (i + 1) * per_plane] for i in range(planes)],
        epoch=epoch,
    )
    return NetworkSimulator(
        topology=topology,
        ground_stations=[
            GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in cities
        ],
        traffic_model=GravityTrafficModel(cities=cities, total_demand=total_demand),
        flows_per_step=flows,
    )


MAX_MIN = Scenario(name="max-min", allocator="max_min_array")


@pytest.fixture(scope="module")
def sweep_step_systems(epoch):
    """The systems the first two steps of the full-size max-min sweep solve.

    360 satellites, 335 stations and 5,000 flows per step: about 3,600 and
    4,900 routed flows over ~850 links, captured as the simulator hands
    them to the solver.
    """
    simulator = _sweep_simulator(epoch, satellites=360, planes=18, stations=335, flows=5000)
    systems = []
    solver = ARRAY_SOLVERS["max_min_array"]

    def capture(system, obs=NULL_TRACER):
        systems.append(system)
        return solver(system, obs=obs)

    ARRAY_SOLVERS["max_min_array"] = capture
    try:
        simulator.run_scenarios([MAX_MIN], epoch, duration_hours=2.0)
    finally:
        ARRAY_SOLVERS["max_min_array"] = solver
    return systems


def _random_system(data) -> tuple[FlowLinkSystem, "int | None"]:
    """A random system plus an iteration cap, drawn from hypothesis ``data``.

    Demands are tied (a few values), continuous or rounded, with zeros
    mixed in; some links have zero capacity; caps run from 0 to twice the
    flow count, so many land inside a span of demand-only rounds.
    """
    flow_count = data.draw(st.integers(1, 60))
    link_count = data.draw(st.integers(1, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["tied", "continuous", "rounded"]))
    if kind == "tied":
        demand = rng.choice([0.5, 1.0, 2.0, 3.0, 7.5], size=flow_count)
    elif kind == "continuous":
        demand = rng.uniform(0.0, 10.0, size=flow_count)
    else:
        demand = np.round(rng.uniform(0.0, 5.0, size=flow_count), 1)
    demand[rng.random(flow_count) < 0.15] = 0.0
    capacity = rng.uniform(0.0, 30.0, size=link_count) * data.draw(
        st.sampled_from([0.1, 1.0, 10.0])
    )
    capacity[rng.random(link_count) < 0.15] = 0.0
    hops = rng.integers(0, min(link_count, 5) + 1, size=flow_count)
    flow_ids = np.repeat(np.arange(flow_count), hops)
    link_ids = np.concatenate(
        [rng.choice(link_count, size=k, replace=False) for k in hops]
    ).astype(np.intp)
    system = FlowLinkSystem(
        demand, capacity, flow_ids, link_ids, np.arange(link_count, dtype=np.intp)
    )
    iterations = data.draw(st.none() | st.integers(0, 2 * flow_count))
    return system, iterations


class TestBatchedWaterfilling:
    """The span-batched max-min solver against the round-by-round oracle.

    Equality is ``np.array_equal``, not a tolerance: the batched solver
    performs every float operation of the oracle in the same order.
    """

    def test_workload_problem_bit_identical(self, workload_problem):
        _assert_bit_identical(workload_problem[0])

    @pytest.mark.parametrize("iterations", [1, 2, 5, 20, 60, 300])
    def test_workload_problem_capped_bit_identical(self, workload_problem, iterations):
        _assert_bit_identical(workload_problem[0], iterations)

    def test_full_size_sweep_steps_bit_identical(self, sweep_step_systems):
        assert len(sweep_step_systems) == 2
        assert max(system.flow_count for system in sweep_step_systems) >= 4500
        for system in sweep_step_systems:
            _assert_bit_identical(system)

    def test_full_size_step_batches_its_rounds(self, sweep_step_systems):
        """Most rounds of a real step are demand-only and share a pass."""
        for system in sweep_step_systems:
            batched, oracle = Tracer(), Tracer()
            ARRAY_SOLVERS["max_min_array"](system, obs=batched)
            waterfill_by_rounds(system, obs=oracle)
            rounds = batched.metrics.counters["waterfill_rounds"]
            assert rounds == oracle.metrics.counters["waterfill_rounds"]
            assert batched.metrics.counters["waterfill_passes"] * 5 <= rounds

    def test_link_within_saturation_tolerance_ends_the_span(self):
        """A demand binds the round, but the shared link then sits within
        the 1e-9 saturation tolerance, so that round must also freeze the
        link's other flow at the same level (a span running up to the exact
        link share would let it creep 5e-10 higher)."""
        system = _system(
            demand=(1.0, 5.0), capacity=(2.0 + 0.5e-9,), flow_ids=(0, 1), link_ids=(0, 0)
        )
        _assert_bit_identical(system)
        assert np.array_equal(ARRAY_SOLVERS["max_min_array"](system)[0], [1.0, 1.0])

    def test_demand_missed_by_rounding_inside_a_span(self):
        """``level + (demand - level)`` can stop an ulp short of a large
        demand's tolerance; the span must end there and leave the binding
        flow to the single-round fallback, then carry on."""
        small, large = 212758959.39241698, 530330166.0223189
        system = _system(
            demand=(small, large, 2.0 * large, 3.0 * large),
            capacity=(1e12,),
            flow_ids=(0, 1, 2, 3),
            link_ids=(0, 0, 0, 0),
        )
        _assert_bit_identical(system)
        batched, oracle = Tracer(), Tracer()
        ARRAY_SOLVERS["max_min_array"](system, obs=batched)
        waterfill_by_rounds(system, obs=oracle)
        assert batched.metrics.counters == {"waterfill_rounds": 4.0, "waterfill_passes": 3.0}
        assert oracle.metrics.counters["waterfill_rounds"] == 4.0

    def test_tiny_increment_clamps_inside_a_span(self):
        """An increment of at most 1e-12 is clamped to 0 in a span as in a
        single round: the 5e-13 demand freezes at rate 0.0."""
        system = _system(demand=(5e-13, 1.0, 2.0), capacity=(10.0,))
        _assert_bit_identical(system)
        assert ARRAY_SOLVERS["max_min_array"](system)[0][0] == 0.0

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_systems_bit_identical(self, data):
        system, iterations = _random_system(data)
        _assert_bit_identical(system, iterations)

    def test_traced_sweep_counts_rounds_and_passes(self, epoch, monkeypatch):
        """A traced max-min sweep records the oracle's round count as
        ``waterfill_rounds`` and fewer ``waterfill_passes``.  Demand is
        light enough that most rounds only meet demands, yet two of the
        three steps saturate a link."""
        simulator = _sweep_simulator(
            epoch, satellites=120, planes=8, stations=40, flows=200, total_demand=400.0
        )
        oracle = Tracer()
        solver = ARRAY_SOLVERS["max_min_array"]

        def checked(system, obs=NULL_TRACER):
            waterfill_by_rounds(system, obs=oracle)
            return solver(system, obs=obs)

        monkeypatch.setitem(ARRAY_SOLVERS, "max_min_array", checked)
        result = simulator.run_scenarios([MAX_MIN], epoch, 3.0, instrument=True)
        counters = result["max-min"].metrics.counters
        assert counters["waterfill_rounds"] == oracle.metrics.counters["waterfill_rounds"]
        assert 0 < counters["waterfill_passes"] < counters["waterfill_rounds"]
        assert max(step.worst_link_utilisation for step in result["max-min"].steps) >= 1.0


def _system(demand=(1.0, 2.0, 3.0), capacity=(2.0,), flow_ids=(0, 1, 2), link_ids=(0, 0, 0)):
    """Three flows over one link of capacity 2, with fields overridable."""
    return FlowLinkSystem(
        demand=np.array(demand, dtype=float),
        capacity=np.array(capacity, dtype=float),
        flow_ids=np.array(flow_ids, dtype=np.intp),
        link_ids=np.array(link_ids, dtype=np.intp),
        link_rows=np.arange(len(capacity), dtype=np.intp),
    )


class TestSystemValidation:
    """Bad input used to allocate silently wrong rates (a NaN-demand flow got
    0.667 under max-min, a negative demand cancelled link load, a NaN link
    let every flow through); now construction rejects it."""

    def test_valid_system_accepted(self):
        system = _system(demand=(0.0, 2.0, 3.0), capacity=(0.0,))
        rates, utilisation = ARRAY_SOLVERS["max_min_array"](system)
        assert np.array_equal(rates, np.zeros(3))
        assert np.array_equal(utilisation, [1.0])

    @pytest.mark.parametrize(
        "values, message",
        [
            ((1.0, float("nan"), 2.0), r"demand\[1\] = nan must be finite and >= 0"),
            ((1.0, -1.0, 2.0), r"demand\[1\] = -1\.0 must be finite and >= 0"),
            ((float("inf"), 1.0, 2.0), r"demand\[0\] = inf must be finite and >= 0"),
        ],
    )
    def test_bad_demand_rejected(self, values, message):
        with pytest.raises(ValueError, match=message):
            _system(demand=values)

    @pytest.mark.parametrize(
        "values, message",
        [
            ((float("nan"),), r"capacity\[0\] = nan must be finite and >= 0"),
            ((2.0, -2.0), r"capacity\[1\] = -2\.0 must be finite and >= 0"),
            ((2.0, float("inf")), r"capacity\[1\] = inf must be finite and >= 0"),
        ],
    )
    def test_bad_capacity_rejected(self, values, message):
        with pytest.raises(ValueError, match=message):
            _system(capacity=values)

    def test_unequal_incidence_lengths_rejected(self):
        with pytest.raises(
            ValueError, match="flow_ids and link_ids must have equal length, got 3 and 2"
        ):
            _system(link_ids=(0, 0))

    @pytest.mark.parametrize(
        "field, ids, message",
        [
            ("flow_ids", (0, 3, 2), r"flow_ids\[1\] = 3 is out of range for 3 flows"),
            ("flow_ids", (0, 1, -1), r"flow_ids\[2\] = -1 is out of range for 3 flows"),
            ("link_ids", (0, 1, 0), r"link_ids\[1\] = 1 is out of range for 1 links"),
        ],
    )
    def test_out_of_range_ids_rejected(self, field, ids, message):
        with pytest.raises(ValueError, match=message):
            _system(**{field: ids})

    def test_scaled_plan_revalidates(self):
        """Replacing a field re-runs the check (flow plans scale demand so)."""
        with pytest.raises(ValueError, match=r"demand\[0\] = -1\.0"):
            replace(_system(), demand=-_system().demand)
