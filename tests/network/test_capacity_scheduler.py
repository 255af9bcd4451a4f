"""Tests of the dict allocation oracles and the peak-shifting scheduler."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from flow_oracles import Flow, allocate_max_min, allocate_proportional
from repro.network.scheduler import PeakShiftScheduler


def _line_graph(capacity: float = 10.0) -> nx.Graph:
    graph = nx.Graph()
    for a, b in ((0, 1), (1, 2), (2, 3)):
        graph.add_edge(a, b, capacity_gbps=capacity, delay_ms=1.0, distance_km=300.0)
    return graph


class TestFlows:
    def test_flow_validation(self):
        with pytest.raises(ValueError):
            Flow(name="bad", path=(0,), demand_gbps=1.0)
        with pytest.raises(ValueError):
            Flow(name="bad", path=(0, 1), demand_gbps=-1.0)

    def test_links(self):
        flow = Flow(name="f", path=(0, 1, 2), demand_gbps=1.0)
        assert flow.links() == [(0, 1), (1, 2)]


class TestProportionalAllocation:
    def test_no_congestion_full_allocation(self):
        graph = _line_graph(10.0)
        flows = [Flow("a", (0, 1, 2), 3.0), Flow("b", (2, 3), 4.0)]
        result = allocate_proportional(graph, flows)
        assert result.allocated_gbps["a"] == pytest.approx(3.0)
        assert result.allocated_gbps["b"] == pytest.approx(4.0)
        assert result.worst_link_utilisation() <= 1.0

    def test_congestion_scales_down(self):
        graph = _line_graph(10.0)
        flows = [Flow("a", (0, 1, 2), 8.0), Flow("b", (1, 2), 8.0)]
        result = allocate_proportional(graph, flows)
        # Link (1,2) carries 16 demand over 10 capacity -> scale 0.625.
        assert result.allocated_gbps["a"] == pytest.approx(5.0)
        assert result.allocated_gbps["b"] == pytest.approx(5.0)
        assert result.worst_link_utilisation() == pytest.approx(1.0)

    def test_unknown_link_rejected(self):
        graph = _line_graph(10.0)
        with pytest.raises(ValueError):
            allocate_proportional(graph, [Flow("a", (0, 3), 1.0)])

    def test_zero_capacity_link_starves_flow(self):
        # Regression: a flow over a capacity-0 link used to be allocated its
        # full demand while the link reported utilisation 0.0.
        graph = _line_graph(10.0)
        graph.edges[1, 2]["capacity_gbps"] = 0.0
        flows = [Flow("dead", (0, 1, 2), 4.0), Flow("live", (0, 1), 6.0)]
        result = allocate_proportional(graph, flows)
        assert result.allocated_gbps["dead"] == 0.0
        assert result.allocated_gbps["live"] == pytest.approx(6.0)
        assert result.link_utilisation[(1, 2)] == 1.0
        # The starved flow must not count against the links it shares either.
        assert result.link_utilisation[(0, 1)] == pytest.approx(0.6)

    def test_zero_capacity_link_without_load_idle(self):
        graph = _line_graph(10.0)
        graph.edges[2, 3]["capacity_gbps"] = 0.0
        flows = [Flow("zero", (2, 3), 0.0), Flow("live", (0, 1), 6.0)]
        result = allocate_proportional(graph, flows)
        assert result.allocated_gbps["live"] == pytest.approx(6.0)
        assert result.link_utilisation[(2, 3)] == 0.0


class TestMaxMinAllocation:
    def test_fair_share_on_shared_link(self):
        graph = _line_graph(10.0)
        flows = [Flow("a", (0, 1, 2), 20.0), Flow("b", (1, 2), 20.0)]
        result = allocate_max_min(graph, flows)
        assert result.allocated_gbps["a"] == pytest.approx(5.0, abs=0.01)
        assert result.allocated_gbps["b"] == pytest.approx(5.0, abs=0.01)

    def test_small_flow_unconstrained(self):
        graph = _line_graph(10.0)
        flows = [Flow("small", (0, 1), 1.0), Flow("big", (0, 1), 100.0)]
        result = allocate_max_min(graph, flows)
        assert result.allocated_gbps["small"] == pytest.approx(1.0, abs=0.01)
        assert result.allocated_gbps["big"] == pytest.approx(9.0, abs=0.05)

    def test_total_not_exceeding_capacity(self):
        graph = _line_graph(10.0)
        flows = [Flow("a", (0, 1, 2, 3), 30.0), Flow("b", (1, 2), 30.0), Flow("c", (2, 3), 2.0)]
        result = allocate_max_min(graph, flows)
        assert result.worst_link_utilisation() <= 1.0 + 1e-6

    def test_zero_capacity_link_reported_saturated(self):
        # Same convention as allocate_proportional: the starved flow gets
        # nothing and the dead link shows up as saturated, not idle.
        graph = _line_graph(10.0)
        graph.edges[1, 2]["capacity_gbps"] = 0.0
        flows = [Flow("dead", (0, 1, 2), 4.0), Flow("live", (0, 1), 6.0)]
        result = allocate_max_min(graph, flows)
        assert result.allocated_gbps["dead"] == pytest.approx(0.0, abs=1e-9)
        assert result.allocated_gbps["live"] == pytest.approx(6.0, abs=0.01)
        assert result.link_utilisation[(1, 2)] == 1.0


class TestScheduler:
    def test_peak_reduced_by_shifting(self):
        scheduler = PeakShiftScheduler(max_delay_slots=4)
        urgent = np.array([1.0, 1.0, 1.0, 5.0, 1.0, 1.0])
        deferrable = np.array([0.0, 0.0, 0.0, 4.0, 0.0, 0.0])
        capacity = np.full(6, 6.0)
        result = scheduler.schedule(urgent, deferrable, capacity)
        assert result.peak_after < result.peak_before
        assert result.dropped == pytest.approx(0.0)
        assert result.peak_reduction_percent > 0.0

    def test_conservation(self):
        scheduler = PeakShiftScheduler(max_delay_slots=6)
        rng = np.random.default_rng(5)
        urgent = rng.uniform(0.0, 2.0, 12)
        deferrable = rng.uniform(0.0, 2.0, 12)
        capacity = np.full(12, 5.0)
        result = scheduler.schedule(urgent, deferrable, capacity)
        served_total = result.served.sum()
        assert served_total + result.dropped == pytest.approx(
            urgent.sum() + deferrable.sum()
        )

    def test_drops_when_capacity_insufficient(self):
        scheduler = PeakShiftScheduler(max_delay_slots=1)
        urgent = np.array([3.0, 3.0, 3.0])
        deferrable = np.array([3.0, 3.0, 3.0])
        capacity = np.array([3.0, 3.0, 3.0])
        result = scheduler.schedule(urgent, deferrable, capacity)
        assert result.dropped > 0.0

    def test_validation(self):
        scheduler = PeakShiftScheduler()
        with pytest.raises(ValueError):
            scheduler.schedule(np.ones(3), np.ones(4), np.ones(3))
        with pytest.raises(ValueError):
            scheduler.schedule(-np.ones(3), np.ones(3), np.ones(3))

    def test_negative_max_delay_rejected(self):
        # range(0) used to skip even the own-slot transmit and drop everything.
        with pytest.raises(ValueError, match=r"must be non-negative, got -1"):
            PeakShiftScheduler(max_delay_slots=-1)

    def test_fractional_max_delay_rejected(self):
        with pytest.raises(ValueError, match=r"max_delay_slots .* got 2\.5"):
            PeakShiftScheduler(max_delay_slots=2.5)

    def test_bool_max_delay_rejected(self):
        with pytest.raises(ValueError, match=r"max_delay_slots .* got True"):
            PeakShiftScheduler(max_delay_slots=True)

    def test_numpy_integer_max_delay_accepted(self):
        scheduler = PeakShiftScheduler(max_delay_slots=np.int64(3))
        assert scheduler.max_delay_slots == 3
        assert type(scheduler.max_delay_slots) is int

    def test_zero_max_delay_serves_own_slot(self):
        result = PeakShiftScheduler(max_delay_slots=0).schedule(
            np.zeros(24), np.ones(24), np.ones(24)
        )
        assert result.dropped == 0.0
        assert result.deferred.sum() == 0.0

    def test_nan_traffic_rejected(self):
        urgent = np.array([1.0, np.nan, 1.0])
        with pytest.raises(ValueError, match=r"urgent\[1\] must be finite .* got nan"):
            PeakShiftScheduler().schedule(urgent, np.ones(3), np.ones(3))

    def test_empty_series_rejected(self):
        empty = np.array([])
        with pytest.raises(ValueError, match=r"urgent must be .* shape \(0,\)"):
            PeakShiftScheduler().schedule(empty, empty, empty)

    def test_two_dimensional_series_rejected(self):
        square = np.ones((2, 2))
        with pytest.raises(ValueError, match=r"urgent must be .* shape \(2, 2\)"):
            PeakShiftScheduler().schedule(square, square, square)
