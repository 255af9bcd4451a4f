"""Link-capacity allocation.

Given a set of flows routed over a snapshot graph, allocate bandwidth subject
to per-link capacities.  Two allocation policies are provided: proportional
scaling (every flow gets the same fraction of its demand, set by the most
congested link) and progressive-filling max-min fairness.

Each policy exists in two equivalent implementations:

* the **reference** allocators in this module (:func:`allocate_proportional`
  / :func:`allocate_max_min`) walk per-flow python dicts keyed by normalised
  link tuples -- easy to read, easy to single-step, the ground truth of the
  equivalence tests;
* the **array-native** allocators of :mod:`repro.network.alloc_arrays`
  compile the same problem into a sparse (flow x link) incidence matrix plus
  per-link capacity and per-flow demand vectors, and run the identical
  fixed-point iterations as whole-array numpy operations.  Their solver
  cores (:data:`repro.network.alloc_arrays.ARRAY_SOLVERS`) are the only
  allocators a :class:`repro.network.simulation.Scenario` accepts.

Both produce the same :class:`AllocationResult` (rates within 1e-9, identical
link keys).

**Max-min as a fixed point.**  Progressive filling grows all unfrozen rates
by the largest uniform increment any constraint allows: a flow's remaining
demand, or a link's remaining headroom split over its unfrozen flows.  The
binding constraint freezes (flow at demand, or every flow of a saturated
link at its current rate) and the filling repeats until no flow is unfrozen.
Because every round freezes at least one flow, the loop needs no iteration
cap -- it converges in at most ``len(flows)`` rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

__all__ = [
    "Flow",
    "AllocationResult",
    "allocate_proportional",
    "allocate_max_min",
]


@dataclass(frozen=True)
class Flow:
    """A routed traffic flow: a name, a node-label path and a demand.

    The dict allocators walk ``path`` link by link; the array allocators of
    :mod:`repro.network.alloc_arrays` map it to snapshot rows through the
    snapshot's label table, so the same flows feed both.
    """

    name: str
    path: tuple[int | str, ...]
    demand_gbps: float

    def __post_init__(self) -> None:
        if self.demand_gbps < 0:
            raise ValueError("demand must be non-negative")
        if len(self.path) < 2 and self.demand_gbps > 0:
            raise ValueError("a flow with demand needs a path of at least two nodes")

    def links(self) -> list[tuple[int | str, int | str]]:
        """Return the (unordered) links the flow traverses."""
        return [
            (self.path[index], self.path[index + 1]) for index in range(len(self.path) - 1)
        ]


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of a capacity allocation."""

    allocated_gbps: dict[str, float]
    link_utilisation: dict[tuple, float]

    def total_allocated(self) -> float:
        """Return the sum of allocated rates.

        Summed as a float64 numpy reduction (not a sequential python
        ``sum``) so the total is bit-identical to the columnar engine's
        ``rates.sum()`` over the same values in the same order.
        """
        values = self.allocated_gbps.values()
        return float(
            np.fromiter(values, dtype=float, count=len(values)).sum()
        )

    def worst_link_utilisation(self) -> float:
        """Return the highest link utilisation (1.0 means saturated)."""
        if not self.link_utilisation:
            return 0.0
        return max(self.link_utilisation.values())

    def link_utilisation_array(self, edge_list) -> np.ndarray:
        """Export per-link utilisation in the edge list's link-index order.

        The dict-path counterpart of
        :meth:`repro.network.alloc_arrays.FlowLinkSystem.link_utilisation_array`:
        the label-keyed ``link_utilisation`` dict is mapped onto the
        ``(E,)`` layout feedback consumers (congestion steering, link
        telemetry) share, through the edge list's link lookup
        (:meth:`~repro.network.backends.SnapshotEdgeList.link_rows`), with
        untouched links at 0.0.  Links the snapshot lacks, or whose
        endpoints it does not know, are skipped.
        """
        out = np.zeros(len(edge_list.a))
        keys = self.link_utilisation
        ends = edge_list.node_index.rows_of(label for key in keys for label in key)
        rows = edge_list.link_rows(ends[0::2], ends[1::2])
        present = rows >= 0
        values = np.fromiter(keys.values(), dtype=float, count=len(keys))
        out[rows[present]] = values[present]
        return out


def _node_order_key(node) -> tuple:
    """Total order over mixed node labels: numbers first, then strings.

    Numbers compare numerically among themselves and strings
    lexicographically, with every number ordering before every string.
    """
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return (1, 0.0, str(node))
    return (0, float(node), "")


def _link_key(a, b) -> tuple:
    """Return an order-independent key for an undirected link.

    Endpoints are normalised with :func:`_node_order_key`: satellite ids
    (ints) order numerically and ahead of ground-station labels
    (``"gs:<name>"`` strings), matching the row order of the snapshot
    array views.  Earlier revisions ordered by ``str(a) <= str(b)``, which
    made the key of e.g. link ``(2, 10)`` depend on the lexicographic
    accident ``"10" < "2"`` -- harmless to the max/total statistics but a
    trap for anyone indexing ``link_utilisation`` and a mismatch against
    the index-ordered keys of the array path.
    """
    return (a, b) if _node_order_key(a) <= _node_order_key(b) else (b, a)


def _link_capacities(graph: nx.Graph, flows: list[Flow]) -> dict[tuple, float]:
    capacities: dict[tuple, float] = {}
    for flow in flows:
        for a, b in flow.links():
            if not graph.has_edge(a, b):
                raise ValueError(f"flow {flow.name!r} uses a link not present in the graph")
            capacities[_link_key(a, b)] = float(graph.edges[a, b]["capacity_gbps"])
    return capacities


def allocate_proportional(graph: nx.Graph, flows: list[Flow]) -> AllocationResult:
    """Scale every flow by the same factor so no link exceeds its capacity.

    Flows routed over a zero-capacity link cannot carry anything: they are
    allocated zero (rather than dragging every other flow's scale to zero),
    and the link is reported saturated (utilisation 1.0).
    """
    capacities = _link_capacities(graph, flows)

    def _link_loads(excluded: set[str]) -> dict[tuple, float]:
        loads = {key: 0.0 for key in capacities}
        for flow in flows:
            if flow.name in excluded:
                continue
            for a, b in flow.links():
                loads[_link_key(a, b)] += flow.demand_gbps
        return loads

    loads = _link_loads(set())
    starved_links = {
        key for key, load in loads.items() if capacities[key] <= 0.0 and load > 0.0
    }
    starved_flows = {
        flow.name
        for flow in flows
        if any(_link_key(a, b) in starved_links for a, b in flow.links())
    }
    if starved_flows:
        loads = _link_loads(starved_flows)

    scale = 1.0
    for key, load in loads.items():
        if load > capacities[key] > 0:
            scale = min(scale, capacities[key] / load)

    allocated = {
        flow.name: 0.0 if flow.name in starved_flows else flow.demand_gbps * scale
        for flow in flows
    }
    utilisation = {}
    for key, load in loads.items():
        if capacities[key] > 0:
            utilisation[key] = (load * scale) / capacities[key]
        else:
            utilisation[key] = 1.0 if key in starved_links else 0.0
    return AllocationResult(allocated_gbps=allocated, link_utilisation=utilisation)


def allocate_max_min(
    graph: nx.Graph, flows: list[Flow], iterations: int | None = None
) -> AllocationResult:
    """Max-min fair allocation by progressive filling.

    Rates of all unfrozen flows grow together; whenever a link saturates, the
    flows crossing it are frozen at their current rate.  Flows are also frozen
    once they reach their own demand.

    The filling runs to its fixed point: every round freezes at least one
    flow, because when the float tolerances fail to catch the binding
    constraint (a link whose headroom is exhausted but spreads to less than
    1e-12 per flow, or float noise at large magnitudes) that constraint is
    frozen directly -- headroom can never grow, so spinning further could
    not make progress.  ``iterations`` survives as an optional explicit
    bound; the default ``None`` runs to convergence.  (Earlier revisions
    capped the loop at 100 rounds unconditionally, silently returning
    unconverged rates whenever more than 100 freeze events were needed, and
    spun through the whole cap doing nothing once the increment hit zero
    with flows still unfrozen.)
    """
    capacities = _link_capacities(graph, flows)
    rates = {flow.name: 0.0 for flow in flows}
    frozen = {flow.name: flow.demand_gbps == 0.0 for flow in flows}
    flows_by_link: dict[tuple, list[Flow]] = {key: [] for key in capacities}
    for flow in flows:
        for a, b in flow.links():
            flows_by_link[_link_key(a, b)].append(flow)

    rounds = 0
    while iterations is None or rounds < iterations:
        rounds += 1
        active = [flow for flow in flows if not frozen[flow.name]]
        if not active:
            break
        # Largest uniform increment every active flow can still take, and
        # the constraint that binds it.
        increment = float("inf")
        binding_flow: Flow | None = None
        for flow in active:
            remaining = flow.demand_gbps - rates[flow.name]
            if remaining < increment:
                increment = remaining
                binding_flow = flow
        binding_link: tuple | None = None
        for key, capacity in capacities.items():
            link_active = [f for f in flows_by_link[key] if not frozen[f.name]]
            if not link_active:
                continue
            headroom = capacity - sum(rates[f.name] for f in flows_by_link[key])
            share = headroom / len(link_active)
            if share < increment:
                increment = share
                binding_link = key
        # Accumulated tolerance can leave a congested link's headroom
        # slightly negative; the increment must never drive rates down.
        if increment <= 1e-12:
            increment = 0.0
        for flow in active:
            rates[flow.name] += increment
        # Freeze flows that met their demand or sit on a saturated link.
        progressed = False
        for flow in active:
            if rates[flow.name] >= flow.demand_gbps - 1e-9:
                frozen[flow.name] = True
                progressed = True
        for key, capacity in capacities.items():
            load = sum(rates[f.name] for f in flows_by_link[key])
            if load >= capacity - 1e-9:
                for f in flows_by_link[key]:
                    if not frozen[f.name]:
                        frozen[f.name] = True
                        progressed = True
        if not progressed:
            # The binding constraint escaped the absolute freeze tolerances.
            # Freeze it directly: its headroom cannot recover, so another
            # round would recompute exactly this state.
            if binding_link is not None:
                for f in flows_by_link[binding_link]:
                    frozen[f.name] = True
            elif binding_flow is not None:
                frozen[binding_flow.name] = True
            else:  # pragma: no cover - an active flow implies a binding one
                break

    utilisation = {}
    for key, capacity in capacities.items():
        load = sum(rates[f.name] for f in flows_by_link[key])
        if capacity > 0:
            utilisation[key] = load / capacity
        else:
            # Same convention as allocate_proportional: a zero-capacity link
            # with demand trying to cross it is saturated, not idle.
            demand = sum(f.demand_gbps for f in flows_by_link[key])
            utilisation[key] = 1.0 if demand > 0 else 0.0
    return AllocationResult(allocated_gbps=rates, link_utilisation=utilisation)
