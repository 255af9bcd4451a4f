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

Two compilation paths produce identical systems:

* the **index path** engages when the capacity argument is a
  :class:`~repro.network.backends.SnapshotEdgeList` (or its
  :class:`EdgeListCompileCache`) and every flow carries
  :attr:`~repro.network.capacity.Flow.path_rows` -- the row-index paths the
  router reconstructs from its predecessor matrix.
  Links are encoded, deduplicated and matched against the edge list
  entirely in numpy, with no python tuple or string-ordered key in sight;
* the **graph path** handles any ``networkx``-style graph and label-only
  flows, walking each flow's links once (the same per-link python work the
  dict allocators' setup does) before the vectorised fixed point.

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
    "EdgeListCompileCache",
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
    #: Edge-list row of every link (``None`` on the graph compile path):
    #: ``link_rows[l]`` is the row of link ``l`` in the snapshot's
    #: :class:`SnapshotEdgeList`, letting per-link outputs scatter straight
    #: into link-index order for feedback consumers (congestion steering,
    #: link telemetry) with no label round-trip.
    link_rows: "np.ndarray | None" = field(default=None, compare=False)

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
        total = (
            self.demand.nbytes
            + self.capacity.nbytes
            + self.flow_ids.nbytes
            + self.link_ids.nbytes
        )
        if self.link_rows is not None:
            total += self.link_rows.nbytes
        return int(total)

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

        Links no flow traverses read 0.0.  Requires the system to have been
        compiled against a :class:`SnapshotEdgeList` (the index paths), which
        is what records :attr:`link_rows`.
        """
        if self.link_rows is None:
            raise ValueError(
                "system was compiled through the graph interface and carries "
                "no edge-list rows"
            )
        out = np.zeros(edge_count)
        out[self.link_rows] = utilisation
        return out


def _missing_link_error(flows: list[Flow], flow_ids: np.ndarray, bad: np.ndarray):
    """Mirror the reference allocators' missing-link ValueError."""
    offender = flows[int(flow_ids[int(np.flatnonzero(bad)[0])])]
    return ValueError(f"flow {offender.name!r} uses a link not present in the graph")


class EdgeListCompileCache:
    """Per-snapshot constants of the index compile path.

    Everything that depends only on the edge list -- the sorted link-code
    table, the capacity column in that order, and whether the label table
    is *row-ordered* (numeric labels form an ascending prefix), which lets
    link keys be emitted as plain ``(labels[lo], labels[hi])`` tuples
    without a per-link :func:`_link_key` call -- is computed once.  Pass
    one instance to every compile over the same snapshot (the simulator
    builds one per snapshot group per step), so a sweep evaluating many
    scenarios over one snapshot pays it once.  Read-only after
    construction, so threads may share it.
    """

    __slots__ = (
        "edge_list",
        "node_count",
        "labels",
        "sorted_codes",
        "sorted_capacity",
        "sorted_rows",
        "numeric_prefix",
        "row_ordered",
    )

    def __init__(self, edge_list: SnapshotEdgeList):
        self.edge_list = edge_list
        labels = edge_list.labels
        node_count = len(labels)
        self.labels = labels
        self.node_count = node_count
        codes = (
            np.minimum(edge_list.a, edge_list.b) * node_count
            + np.maximum(edge_list.a, edge_list.b)
        )
        order = np.argsort(codes)
        self.sorted_codes = codes[order]
        self.sorted_capacity = edge_list.capacity_gbps[order].astype(float)
        #: Sorted position -> edge-list row, so compiled links can be mapped
        #: back to link-index order (the steering feedback signal's layout).
        self.sorted_rows = order
        numeric = np.fromiter(
            (
                isinstance(label, (int, float)) and not isinstance(label, bool)
                for label in labels
            ),
            dtype=bool,
            count=node_count,
        )
        prefix = int(np.argmin(numeric)) if not numeric.all() else node_count
        self.numeric_prefix = prefix
        prefix_values = np.array(labels[:prefix], dtype=float) if prefix else None
        self.row_ordered = bool(
            not numeric[prefix:].any()
            and (prefix < 2 or bool((np.diff(prefix_values) >= 0).all()))
        )


def _compile_cache(capacity) -> "EdgeListCompileCache | None":
    """The compile cache of an edge list or cache argument (else ``None``)."""
    if isinstance(capacity, EdgeListCompileCache):
        return capacity
    if isinstance(capacity, SnapshotEdgeList):
        return EdgeListCompileCache(capacity)
    return None


def _match_links(
    cache: EdgeListCompileCache, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Deduplicate hop endpoint arrays into links matched to the edge list.

    Returns ``(unique_codes, link_ids, positions, matched)``: each hop's
    undirected link encoded as one integer, deduplicated by :func:`np.unique`
    (whose inverse yields the incidence columns), with ``positions`` indexing
    the cache's sorted code/capacity tables and ``matched`` flagging links
    actually present in the edge list.
    """
    codes = np.minimum(u, v) * cache.node_count + np.maximum(u, v)
    unique_codes, link_ids = np.unique(codes, return_inverse=True)
    positions = np.searchsorted(cache.sorted_codes, unique_codes)
    in_range = positions < cache.sorted_codes.size
    matched = np.zeros(unique_codes.size, dtype=bool)
    matched[in_range] = cache.sorted_codes[positions[in_range]] == unique_codes[in_range]
    positions = np.minimum(positions, max(cache.sorted_codes.size - 1, 0))
    return unique_codes, link_ids, positions, matched


def _link_keys_of(cache: EdgeListCompileCache, unique_codes: np.ndarray) -> tuple:
    """Emit the normalised label-space key of every deduplicated link."""
    labels = cache.labels
    node_count = cache.node_count
    los = (unique_codes // node_count).tolist()
    his = (unique_codes % node_count).tolist()
    if cache.row_ordered:
        # A numeric ``lo`` endpoint means the row order already is the
        # normalised key order; only string-string links (absent from
        # satellite snapshots) need the python normalisation.
        prefix = cache.numeric_prefix
        return tuple(
            (labels[lo], labels[hi])
            if lo < prefix
            else _link_key(labels[lo], labels[hi])
            for lo, hi in zip(los, his)
        )
    return tuple(_link_key(labels[lo], labels[hi]) for lo, hi in zip(los, his))


def _compile_ragged(
    cache: EdgeListCompileCache, offsets: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Match ragged row-index paths against an edge list.

    Flow ``i`` follows ``rows[offsets[i]:offsets[i + 1]]``; segments shorter
    than two rows contribute no hops.  Returns each hop's flow id followed
    by :func:`_match_links`' ``(unique_codes, link_ids, positions,
    matched)``.  The one compile core of both the ``Flow``-object and the
    ragged-row path.
    """
    lengths = np.diff(offsets)
    # Hop endpoints: every row except each segment's last (u) / first (v),
    # selected by boolean masks so the global hop order stays flow-by-flow,
    # hop-by-hop.
    keep_u = np.ones(rows.size, dtype=bool)
    keep_v = np.ones(rows.size, dtype=bool)
    nonempty = lengths > 0
    keep_u[offsets[1:][nonempty] - 1] = False
    keep_v[offsets[:-1][nonempty]] = False
    flow_ids = np.repeat(
        np.arange(lengths.size, dtype=np.intp), np.maximum(lengths - 1, 0)
    )
    return (flow_ids, *_match_links(cache, rows[keep_u], rows[keep_v]))


def _compile_from_rows(
    cache: EdgeListCompileCache, flows: list[Flow]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple, np.ndarray]:
    """Index path: compile row-index flow paths against an edge list.

    Validation is deliberately cheap: row bounds plus each flow's *endpoint*
    labels.  Interior rows are trusted to mirror ``flow.path`` -- the
    contract of :attr:`~repro.network.capacity.Flow.path_rows`, which the
    simulator guarantees by deriving routes and capacities from the very
    same edge list; a full per-hop label check would reintroduce the
    per-node python pass this path exists to avoid.  Rows from a different
    snapshot that happen to share both endpoints and valid bounds compile
    silently against the wrong links -- callers assembling flows by hand
    should pass label paths only (the graph path validates every link).
    """
    labels = cache.labels
    rows_per_flow = [np.asarray(flow.path_rows, dtype=np.intp) for flow in flows]
    offsets = np.zeros(len(flows) + 1, dtype=np.intp)
    offsets[1:] = np.cumsum([path.size for path in rows_per_flow])
    rows = np.concatenate(rows_per_flow) if flows else np.empty(0, dtype=np.intp)
    if rows.size and (rows.min() < 0 or rows.max() >= cache.node_count):
        raise ValueError("path_rows do not index this snapshot's label table")
    for flow, begin, end in zip(flows, offsets[:-1].tolist(), offsets[1:].tolist()):
        if end > begin and (
            labels[rows[begin]] != flow.path[0] or labels[rows[end - 1]] != flow.path[-1]
        ):
            raise ValueError(
                f"flow {flow.name!r}: path_rows do not index this snapshot's "
                "label table"
            )
    flow_ids, unique_codes, link_ids, positions, matched = _compile_ragged(
        cache, offsets, rows
    )
    if not matched.all():
        raise _missing_link_error(flows, flow_ids, ~matched[link_ids])
    return (
        flow_ids,
        link_ids,
        cache.sorted_capacity[positions],
        _link_keys_of(cache, unique_codes),
        cache.sorted_rows[positions],
    )


def _compile_from_graph(
    graph, flows: list[Flow]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """Graph path: compile label paths against ``has_edge``/``edges`` lookups."""
    key_ids: dict[tuple, int] = {}
    capacity: list[float] = []
    flow_ids: list[int] = []
    link_ids: list[int] = []
    for index, flow in enumerate(flows):
        for a, b in flow.links():
            if not graph.has_edge(a, b):
                raise ValueError(
                    f"flow {flow.name!r} uses a link not present in the graph"
                )
            key = _link_key(a, b)
            link = key_ids.get(key)
            if link is None:
                link = len(key_ids)
                key_ids[key] = link
                capacity.append(float(graph.edges[a, b]["capacity_gbps"]))
            flow_ids.append(index)
            link_ids.append(link)
    return (
        np.asarray(flow_ids, dtype=np.intp),
        np.asarray(link_ids, dtype=np.intp),
        np.asarray(capacity, dtype=float),
        tuple(key_ids),
    )


def compile_flow_link_system(capacity_graph, flows: list[Flow]) -> FlowLinkSystem:
    """Compile routed flows into the incidence form of their allocation.

    ``capacity_graph`` is a :class:`networkx.Graph` (anything with
    ``has_edge``/``edges[a, b]``), a :class:`SnapshotEdgeList` or an
    :class:`EdgeListCompileCache`.  With an edge list (or its cache) and
    ``path_rows`` on every flow, the compilation runs entirely over index
    arrays; otherwise each flow's links are walked once through the graph
    interface (an edge list is converted with
    :meth:`SnapshotEdgeList.graph`).  Flow names must be unique: the result
    dict is keyed by name, and the dict reference's behaviour under
    duplicates (shared rate entries) is an accident not worth reproducing.
    """
    names = tuple(flow.name for flow in flows)
    if len(set(names)) != len(names):
        raise ValueError("array allocators require unique flow names")
    demand = np.array([flow.demand_gbps for flow in flows], dtype=float)
    cache = _compile_cache(capacity_graph)
    link_rows = None
    if cache is not None and all(flow.path_rows is not None for flow in flows):
        flow_ids, link_ids, capacity, link_keys, link_rows = _compile_from_rows(
            cache, flows
        )
    else:
        graph = cache.edge_list.graph() if cache is not None else capacity_graph
        flow_ids, link_ids, capacity, link_keys = _compile_from_graph(graph, flows)
    return FlowLinkSystem(
        flow_names=names,
        demand=demand,
        capacity=capacity,
        flow_ids=flow_ids,
        link_ids=link_ids,
        link_keys=link_keys,
        link_rows=link_rows,
    )


def compile_system_from_rows(
    capacity: "SnapshotEdgeList | EdgeListCompileCache",
    demand: np.ndarray,
    offsets: np.ndarray,
    rows: np.ndarray,
    with_keys: bool = False,
) -> FlowLinkSystem:
    """Compile ragged row-index paths straight into a nameless system.

    The simulator's compile path: flow ``i`` follows
    ``rows[offsets[i]:offsets[i + 1]]`` (empty segments -- unreachable or
    zero-hop flows -- contribute no traversals) and demands ``demand[i]``.
    No :class:`~repro.network.capacity.Flow` objects, names or label paths
    are ever materialised; the incidence arrays come out bit-identical to
    :func:`compile_flow_link_system` over the equivalent object flows, which
    is what keeps the ``Flow``-level allocators a bit-exact oracle of it.

    ``capacity`` is the snapshot's :class:`SnapshotEdgeList` or, to share
    the per-snapshot constants across many compiles, its
    :class:`EdgeListCompileCache`; ``with_keys`` additionally emits the
    per-link label keys (skipped by default -- the columnar statistics only
    need the utilisation vector).
    """
    cache = _compile_cache(capacity)
    if cache is None:
        raise ValueError(
            "compile_system_from_rows requires a SnapshotEdgeList or an "
            "EdgeListCompileCache"
        )
    demand = np.asarray(demand, dtype=float)
    offsets = np.asarray(offsets, dtype=np.intp)
    rows = np.asarray(rows, dtype=np.intp)
    if offsets.size != demand.size + 1:
        raise ValueError("offsets must have one entry more than demand")
    if rows.size and (rows.min() < 0 or rows.max() >= cache.node_count):
        raise ValueError("path rows do not index this snapshot's label table")
    flow_ids, unique_codes, link_ids, positions, matched = _compile_ragged(
        cache, offsets, rows
    )
    if not matched.all():
        raise ValueError("a flow path uses a link not present in the snapshot")
    return FlowLinkSystem(
        flow_names=None,
        demand=demand,
        capacity=cache.sorted_capacity[positions],
        flow_ids=flow_ids,
        link_ids=link_ids,
        link_keys=_link_keys_of(cache, unique_codes) if with_keys else None,
        link_rows=cache.sorted_rows[positions],
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
