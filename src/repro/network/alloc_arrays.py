"""Array-native capacity allocation over a (flow x link) incidence matrix.

The dict allocators of :mod:`repro.network.capacity` walk per-flow python
structures on every progressive-filling round, which made allocation the
dominant pure-python cost of large congested sweeps once routing went
array-native.  This module compiles a step's routed flows into the sparse
incidence form of the same problem and runs the identical fixed points as
whole-array numpy operations:

* ``demand`` -- per-flow demand vector, shape ``(F,)``;
* ``capacity`` -- per-link capacity vector, shape ``(L,)``, one entry per
  distinct undirected link any flow traverses;
* the 0/1 incidence matrix ``A`` of shape ``(F, L)`` (``A[f, l] = 1`` iff
  flow ``f`` traverses link ``l``), held in COO form as the parallel index
  arrays ``flow_ids`` / ``link_ids`` -- one entry per traversal.

Proportional scaling is a few sparse matrix-vector products: link loads
are ``A.T @ rates`` (``np.bincount`` over ``link_ids`` weighted by
``rates[flow_ids]``) and "flows touching a starved link" is
``A @ starved > 0``.  Max-min progressive filling is incremental
waterfilling: all unfrozen flows share one water level, so each link keeps
its frozen load and active-flow count, updated only from the incidence rows
of flows as they freeze (through flow->link and link->flow CSR indexes built
per solve).  A round costs O(links + entries of newly frozen flows), and the
uniform increment is the minimum over links of headroom over active-flow
count (and of the least remaining demand).  At least one flow freezes per
round, so no iteration cap is needed.

There is one compile: ragged row-index paths (the columnar engine's
``(offsets, rows)`` layout) go through
:meth:`~repro.network.backends.SnapshotEdgeList.hop_links`, which matches
every hop to an edge-list row and numbers the distinct links in link-code
order.  :func:`compile_system_from_rows` is that compile, as the simulator
runs it; :func:`compile_flow_link_system` first turns ``Flow`` label paths
into rows through the snapshot's :class:`~repro.network.backends.NodeIndex`
(a graph argument is converted with
:meth:`~repro.network.backends.SnapshotEdgeList.from_graph`), so both build
bit-identical incidence arrays.

:func:`allocate_proportional_array` and :func:`allocate_max_min_array`
return the same :class:`AllocationResult` structure as the references --
rates within 1e-9 and identical (normalised) link keys.  The simulator calls
their solver cores through :data:`ARRAY_SOLVERS`, the table of allocator
names a :class:`~repro.network.simulation.Scenario` accepts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backends import SnapshotEdgeList
from .capacity import AllocationResult, Flow, _link_key

__all__ = [
    "FlowLinkSystem",
    "compile_flow_link_system",
    "compile_system_from_rows",
    "allocate_proportional_array",
    "allocate_max_min_array",
    "ARRAY_SOLVERS",
]


@dataclass(frozen=True)
class FlowLinkSystem:
    """One allocation problem in compiled (flow x link) incidence form.

    ``flow_names`` and ``link_keys`` are the label-space identities needed
    to build an :class:`AllocationResult` dict; the columnar flow engine
    compiles nameless systems (``None``) and reads the rate/utilisation
    vectors directly, so it never pays for per-flow or per-link labels.
    """

    flow_names: "tuple[str, ...] | None"
    #: Per-flow demand vector, shape ``(F,)``.
    demand: np.ndarray
    #: Per-link capacity vector, shape ``(L,)``.
    capacity: np.ndarray
    #: COO rows of the incidence matrix: flow of each traversal, ``(nnz,)``.
    flow_ids: np.ndarray
    #: COO columns of the incidence matrix: link of each traversal, ``(nnz,)``.
    link_ids: np.ndarray
    #: Normalised label-space key of every link, for :class:`AllocationResult`.
    link_keys: "tuple[tuple, ...] | None"
    #: Edge-list row of every link: ``link_rows[l]`` is the row of link
    #: ``l`` in the snapshot's :class:`SnapshotEdgeList`, letting per-link
    #: outputs scatter straight into link-index order for feedback
    #: consumers (congestion steering, link telemetry) with no label
    #: round-trip.
    link_rows: np.ndarray = field(compare=False)

    @property
    def flow_count(self) -> int:
        return len(self.demand)

    @property
    def link_count(self) -> int:
        return len(self.capacity)

    @property
    def nbytes(self) -> int:
        """Bytes held by the compiled incidence arrays (labels excluded).

        The observability layer gauges this per allocation
        (``gauges["incidence_bytes"]``): the COO traversal arrays are the
        allocation stage's dominant allocation, scaling with total path
        length rather than flow count.
        """
        return int(
            self.demand.nbytes
            + self.capacity.nbytes
            + self.flow_ids.nbytes
            + self.link_ids.nbytes
            + self.link_rows.nbytes
        )

    def link_loads(self, rates: np.ndarray) -> np.ndarray:
        """Return per-link load ``A.T @ rates``, shape ``(L,)``."""
        return np.bincount(
            self.link_ids, weights=rates[self.flow_ids], minlength=self.link_count
        )

    def flows_touching(self, link_mask: np.ndarray) -> np.ndarray:
        """Return the boolean flow mask ``A @ link_mask > 0``, shape ``(F,)``."""
        return (
            np.bincount(
                self.flow_ids,
                weights=link_mask[self.link_ids].astype(float),
                minlength=self.flow_count,
            )
            > 0
        )

    def link_utilisation_array(
        self, utilisation: np.ndarray, edge_count: int
    ) -> np.ndarray:
        """Scatter a per-system-link vector into edge-list link order.

        Links no flow traverses read 0.0.
        """
        out = np.zeros(edge_count)
        out[self.link_rows] = utilisation
        return out


def _link_keys_of(edge_list: SnapshotEdgeList, link_rows: np.ndarray) -> tuple:
    """The normalised label-space key of every compiled link."""
    labels = edge_list.labels
    return tuple(
        _link_key(labels[a], labels[b])
        for a, b in zip(edge_list.a[link_rows].tolist(), edge_list.b[link_rows].tolist())
    )


def _compile(
    edge_list: SnapshotEdgeList,
    demand: np.ndarray,
    offsets: np.ndarray,
    rows: np.ndarray,
    names: "tuple[str, ...] | None" = None,
) -> FlowLinkSystem:
    """The one incidence compile; ``names`` also emits flow names and link keys."""
    if offsets.size != demand.size + 1:
        raise ValueError("offsets must have one entry more than demand")
    flow_ids, link_ids, link_rows = edge_list.hop_links(offsets, rows, names)
    return FlowLinkSystem(
        flow_names=names,
        demand=demand,
        capacity=edge_list.capacity_gbps[link_rows].astype(float),
        flow_ids=flow_ids,
        link_ids=link_ids,
        link_keys=None if names is None else _link_keys_of(edge_list, link_rows),
        link_rows=link_rows,
    )


def compile_flow_link_system(capacity_graph, flows: list[Flow]) -> FlowLinkSystem:
    """Compile routed flows into the incidence form of their allocation.

    ``capacity_graph`` is a :class:`SnapshotEdgeList` or a
    :class:`networkx.Graph` with ``capacity_gbps`` edge attributes
    (converted by :meth:`SnapshotEdgeList.from_graph`).  Each flow's label
    path is mapped to rows through the snapshot's label table and compiled
    like :func:`compile_system_from_rows`; a flow visiting an unknown node
    or crossing a missing link raises :class:`ValueError` naming it, as
    does a used graph edge without ``capacity_gbps``.  Flow
    names must be unique: the result dict is keyed by name, and the dict
    reference's behaviour under duplicates (shared rate entries) is an
    accident not worth reproducing.
    """
    names = tuple(flow.name for flow in flows)
    if len(set(names)) != len(names):
        raise ValueError("array allocators require unique flow names")
    demand = np.array([flow.demand_gbps for flow in flows], dtype=float)
    edge_list = (
        capacity_graph
        if isinstance(capacity_graph, SnapshotEdgeList)
        else SnapshotEdgeList.from_graph(capacity_graph)
    )
    offsets, rows = edge_list.node_index.ragged_rows([flow.path for flow in flows])
    system = _compile(edge_list, demand, offsets, rows, names)
    missing = np.flatnonzero(np.isnan(system.capacity))
    if missing.size:
        raise ValueError(f"link {system.link_keys[missing[0]]} has no capacity_gbps")
    return system


def compile_system_from_rows(
    edge_list: SnapshotEdgeList,
    demand: np.ndarray,
    offsets: np.ndarray,
    rows: np.ndarray,
) -> FlowLinkSystem:
    """Compile ragged row-index paths straight into a nameless system.

    The simulator's compile path: flow ``i`` follows
    ``rows[offsets[i]:offsets[i + 1]]`` (empty segments -- unreachable or
    zero-hop flows -- contribute no traversals) and demands ``demand[i]``.
    No :class:`~repro.network.capacity.Flow` objects, names or label paths
    are ever materialised; the incidence arrays come out bit-identical to
    :func:`compile_flow_link_system` over the equivalent object flows, which
    is what keeps the ``Flow``-level allocators a bit-exact oracle of it.
    """
    if not isinstance(edge_list, SnapshotEdgeList):
        raise ValueError("compile_system_from_rows requires a SnapshotEdgeList")
    return _compile(
        edge_list,
        np.asarray(demand, dtype=float),
        np.asarray(offsets, dtype=np.intp),
        np.asarray(rows, dtype=np.intp),
    )


def _result(
    system: FlowLinkSystem, rates: np.ndarray, utilisation: np.ndarray
) -> AllocationResult:
    return AllocationResult(
        allocated_gbps={
            name: float(rate) for name, rate in zip(system.flow_names, rates)
        },
        link_utilisation={
            key: float(value) for key, value in zip(system.link_keys, utilisation)
        },
    )


def _solve_proportional(system: FlowLinkSystem) -> tuple[np.ndarray, np.ndarray]:
    """Proportional-scaling fixed point; returns ``(rates, utilisation)``."""
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


def _group_by(keys: np.ndarray, values: np.ndarray, size: int):
    """CSR index of ``values`` grouped by ``keys`` in ``range(size)``.

    Returns ``(ptr, grouped)``: group ``k`` is ``grouped[ptr[k]:ptr[k + 1]]``,
    in the original entry order (the sort is stable).
    """
    ptr = np.zeros(size + 1, dtype=np.intp)
    np.cumsum(np.bincount(keys, minlength=size), out=ptr[1:])
    return ptr, values[np.argsort(keys, kind="stable")]


def _gather(ptr: np.ndarray, grouped: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Concatenate the CSR groups ``groups`` of ``(ptr, grouped)``."""
    if groups.size == 1:
        return grouped[ptr[groups[0]] : ptr[groups[0] + 1]]
    starts = ptr[groups]
    lengths = ptr[groups + 1] - starts
    ends = lengths.cumsum()
    index = np.arange(ends[-1] if ends.size else 0)
    index += (starts - ends + lengths).repeat(lengths)
    return grouped[index]


def _solve_max_min(
    system: FlowLinkSystem, iterations: "int | None" = None
) -> tuple[np.ndarray, np.ndarray]:
    """Max-min waterfilling fixed point; returns ``(rates, utilisation)``.

    Every active flow holds the same rate, the water ``level`` (all start at
    0 and take the same increments), so a link's load is its ``frozen_load``
    plus ``active_count * level``.  Both per-link quantities change only when
    flows freeze and are updated from those flows' incidence rows alone; the
    smallest active demand is a cursor over the demand-sorted flows, and a
    saturated link's flows are gathered once (its active count then drops
    to 0).  A round therefore costs O(links + entries of newly frozen flows)
    rather than O(nnz), while freezing the same flows in the same rounds as
    full recomputation: loads agree with it to float reordering (~1e-14).
    """
    demand, capacity = system.demand, system.capacity
    flow_count, link_count = system.flow_count, system.link_count
    rates = np.zeros(flow_count)
    active = demand != 0.0
    flow_ptr, flow_links = _group_by(system.flow_ids, system.link_ids, flow_count)
    link_ptr, link_flows = _group_by(system.link_ids, system.flow_ids, link_count)
    active_count = np.bincount(
        system.link_ids[active[system.flow_ids]], minlength=link_count
    ).astype(float)
    frozen_load = np.zeros(link_count)
    by_demand = np.argsort(demand, kind="stable")
    rank = np.empty(flow_count, dtype=np.intp)
    rank[by_demand] = np.arange(flow_count)
    # ``demand - 1e-9`` is monotone in ``demand``, so the flows a level
    # satisfies form a prefix of ``by_demand``: one searchsorted per round.
    satisfied_at = (demand - 1e-9)[by_demand]
    active_by_demand = active[by_demand]
    active_total = int(np.count_nonzero(active))
    head = 0  # no active flow sorts before ``by_demand[head]``
    level = 0.0
    rounds = 0
    while iterations is None or rounds < iterations:
        rounds += 1
        if not active_total:
            break
        head += int(active_by_demand[head:].argmax())
        remaining = float(demand[by_demand[head]] - level)
        increment = remaining
        binding_link: int | None = None
        live = active_count.nonzero()[0]
        if live.size:
            counts = active_count[live]
            live_capacity = capacity[live]
            live_frozen = frozen_load[live]
            shares = (live_capacity - (live_frozen + counts * level)) / counts
            candidate = int(shares.argmin())
            if shares[candidate] < increment:
                increment = float(shares[candidate])
                binding_link = int(live[candidate])
        if increment <= 1e-12:
            increment = 0.0
        previous, level = level, level + increment
        reach = int(satisfied_at.searchsorted(level, side="right"))
        newly = by_demand[head:reach][active_by_demand[head:reach]]
        if live.size:
            saturated = live[live_frozen + counts * level >= live_capacity - 1e-9]
            if saturated.size:
                on_links = _gather(link_ptr, link_flows, saturated)
                newly = np.union1d(newly, on_links[active[on_links]])
        if not newly.size:
            # No tolerance fired: freeze the binding constraint directly
            # (its headroom cannot recover) instead of spinning without
            # progress.  The binding flow is the lowest-index active flow
            # of least remaining demand, as a full argmin would pick.
            if binding_link is not None:
                on_link = link_flows[link_ptr[binding_link] : link_ptr[binding_link + 1]]
                newly = np.unique(on_link[active[on_link]])
            else:
                tail = by_demand[head:]
                tied = tail[active[tail] & (demand[tail] - previous == remaining)]
                newly = np.array([tied.min()])
        active[newly] = False
        active_by_demand[rank[newly]] = False
        active_total -= newly.size
        rates[newly] = level
        hits = np.bincount(_gather(flow_ptr, flow_links, newly), minlength=link_count)
        active_count -= hits
        frozen_load += hits * level
    rates[active] = level

    utilisation = np.zeros(link_count)
    if link_count:
        load = system.link_loads(rates)
        positive = capacity > 0.0
        utilisation[positive] = load[positive] / capacity[positive]
        # Zero-capacity links with demand trying to cross are saturated,
        # not idle -- the reference allocators' convention.
        utilisation[~positive & (system.link_loads(demand) > 0.0)] = 1.0
    return rates, utilisation


def allocate_proportional_array(capacity_graph, flows: list[Flow]) -> AllocationResult:
    """Array-native proportional scaling; see :func:`allocate_proportional`.

    One incidence compile plus three sparse matrix-vector products: loads
    from demands, the starved-flow mask from zero-capacity links, and the
    common scale from the most congested link.
    """
    system = compile_flow_link_system(capacity_graph, flows)
    return _result(system, *_solve_proportional(system))


def allocate_max_min_array(
    capacity_graph, flows: list[Flow], iterations: int | None = None
) -> AllocationResult:
    """Array-native max-min waterfilling; see :func:`allocate_max_min`.

    Incremental waterfilling over the incidence arrays: each round raises
    the shared level of the unfrozen flows by the minimum of the least
    remaining demand and the per-link headroom-over-active-count shares
    (clamped at 0 -- accumulated tolerance must never drive rates down),
    then freezes flows that met their demand or cross a saturated link,
    touching only per-link totals and the rows of the flows it freezes.
    When the float tolerances miss the binding constraint it is frozen
    directly, so every round retires at least one flow and the loop
    terminates without an iteration cap.  Rates agree with the dict
    reference to float reordering (~1e-14).
    """
    system = compile_flow_link_system(capacity_graph, flows)
    return _result(system, *_solve_max_min(system, iterations))


#: Solver cores by allocator name: the simulator compiles a
#: nameless system and calls these directly, skipping the result-dict
#: round-trip.  These are the only allocators a :class:`Scenario` accepts.
ARRAY_SOLVERS = {
    "proportional_array": _solve_proportional,
    "max_min_array": _solve_max_min,
}
