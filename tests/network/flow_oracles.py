"""Reference implementations used as test oracles.

The library knows a snapshot only as arrays
(:class:`repro.network.backends.SnapshotEdgeList` and its CSR view), a flow
only as a segment of ragged ``(offsets, links)`` hop paths, and an
allocation only as rate and utilisation vectors.  These plain-Python
versions spell the same contracts out in the forms a reader checks by eye
-- ``networkx`` graphs, named label-path flows and dicts keyed by flow
name and link -- so tests and benchmarks can check the library against
implementations simple enough to trust by reading:

* flow selection one entry at a time (:func:`select_flows`), and the
  array selection the flat-code pass replaced: the entry export by a 2-D
  mask over a gathered submatrix (:func:`mask_entry_arrays`) and the
  three-key sort of the decoded candidates (:func:`three_key_selection`);
* networkx Dijkstra routing (:func:`networkx_routes_from`);
* edge-list <-> graph converters and the incremental graph stream of a
  snapshot sequence (:func:`graph_stream`, :func:`snapshot_graph`);
* ground visibility of every (step, station, satellite) triple in dense
  ``(T, K, N)`` arrays (:func:`dense_ground_visibility`) and the edge list
  built from them (:func:`dense_edge_list`), the oracles of the sequence's
  sparse store (:func:`sparse_ground_triples`);
* named label flows (:class:`Flow`), their compile into the library's
  incidence form (:func:`compile_flows`) and the dict allocators
  (:func:`allocate_proportional`, :func:`allocate_max_min`);
* max-min waterfilling one round per pass (:func:`waterfill_by_rounds`),
  the bit-for-bit oracle of the library's span-batched solver;
* true path latencies of ragged row paths, matched hop by hop against the
  edge list (:func:`path_delays_from_rows`);
* matching every hop of ragged row paths to a link by sorting and
  searching their link codes (:func:`hop_links`), the oracle of the
  library's compile from the edge rows a route walk records, those hop
  segments looked up pair by pair from node-row paths (:func:`path_links`),
  and the node rows rebuilt from a source row and its hop links
  (:func:`rows_from_links`), which lets walked paths be compared with
  :attr:`~repro.network.backends.RouteResult.path_rows`;
* the near-tie flag and predecessor in-link entry of every (gateway, node)
  pair of a gateway search, computed eagerly for all of them in one
  reduction (:func:`_tight_in_links`), the oracle of the library's scan of
  walked nodes only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import networkx as nx
import numpy as np

from repro.demand.traffic_matrix import TrafficMatrix
from repro.network.alloc_arrays import (
    ARRAY_SOLVERS,
    FlowLinkSystem,
    _gather,
    _group_by,
    compile_system_from_rows,
)
from repro.network.backends import CERTIFICATE_MARGIN, EdgeArrays, SnapshotEdgeList
from repro.network.flows import FlowTable
from repro.network.ground_station import visibility_mask
from repro.network.isl import propagation_delay_ms
from repro.network.routing import RouteResult
from repro.obs import NULL_TRACER, Tracer


def hop_links(
    edge_list: SnapshotEdgeList, offsets: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Match every hop of ragged row paths to an edge-list row.

    Path ``i`` follows ``rows[offsets[i]:offsets[i + 1]]``; a segment
    shorter than two rows has no hops.  Returns ``(flow_ids, link_ids,
    link_rows)``, one ``flow_ids``/``link_ids`` entry per hop, flow by
    flow and hop by hop: hop ``h`` of path ``flow_ids[h]`` uses edge row
    ``link_rows[link_ids[h]]``.  ``link_rows`` holds each distinct link
    once, in ascending link-code order: every hop's code is sorted with
    ``np.unique`` and searched in the edge list's ``link_lookup``.

    Raises :class:`ValueError` on a hop the snapshot has no link for
    (or whose endpoint row is outside the label table), naming the path
    by its index.
    """
    offsets = np.asarray(offsets, dtype=np.intp)
    rows = np.asarray(rows, dtype=np.intp)
    lengths = np.diff(offsets)
    keep_u = np.ones(rows.size, dtype=bool)
    keep_v = np.ones(rows.size, dtype=bool)
    nonempty = lengths > 0
    keep_u[offsets[1:][nonempty] - 1] = False
    keep_v[offsets[:-1][nonempty]] = False
    flow_ids = np.repeat(
        np.arange(lengths.size, dtype=np.intp), np.maximum(lengths - 1, 0)
    )
    n = len(edge_list.labels)
    u, v = rows[keep_u], rows[keep_v]
    lo, hi = np.minimum(u, v).astype(np.int64), np.maximum(u, v).astype(np.int64)
    codes, link_ids = np.unique(
        np.where((lo >= 0) & (hi < n), lo * n + hi, -1), return_inverse=True
    )
    sorted_codes, order = edge_list.link_lookup
    link_rows = np.full(codes.size, -1, dtype=np.intp)
    if sorted_codes.size:
        found = np.minimum(np.searchsorted(sorted_codes, codes), sorted_codes.size - 1)
        link_rows = np.where(sorted_codes[found] == codes, order[found], -1)
    missing = link_rows < 0
    if missing.any():
        path = int(flow_ids[np.flatnonzero(missing[link_ids])[0]])
        raise ValueError(f"flow {path} uses a link not present in the snapshot")
    return flow_ids, link_ids, link_rows


def _tight_in_links(
    arrays: EdgeArrays, distances: np.ndarray, predecessors: np.ndarray, lead: float
) -> tuple[np.ndarray, np.ndarray]:
    """``(in_entry, near_tie)`` of a multi-source search, each ``(G, N)``.

    An in-link ``u -> v`` is tight when ``D[u] + w(u, v)`` is within
    ``CERTIFICATE_MARGIN * (D[v] + lead)`` of ``D[v]``.  A reached node
    other than the source always has one tight in-link, its predecessor's;
    a second one (or any at the source) is a near tie.  Where the
    predecessor's link is the only tight one, the sum of the tight links'
    CSR entries is its entry; ``in_entry`` reads 0 on near-tied nodes.  The
    CSR export is symmetric, so row ``v`` lists ``v``'s in-links.  One
    reduction gives both facts: each tight entry adds ``2**shift`` plus its
    index, and a node's indices sum to less than ``2**shift``.
    """
    indptr, indices, weights = arrays.indptr, arrays.indices, arrays.weights
    count, n = distances.shape
    degree = np.diff(indptr)
    linked = np.flatnonzero(degree)
    reach = np.ascontiguousarray(distances.T)
    offer = reach[indices]
    offer += weights[:, None]
    reach += CERTIFICATE_MARGIN * (reach + lead)
    tight = offer <= np.repeat(reach, degree, axis=0)
    shift = (indices.size * int(degree.max(initial=0))).bit_length()
    tagged = np.arange(indices.size, dtype=np.int64) + (1 << shift)
    sums = np.zeros((n, count), dtype=np.int64)
    sums[linked] = np.add.reduceat(
        np.where(tight, tagged[:, None], 0), indptr[linked], axis=0
    )
    near_tie = (sums >> shift) > (predecessors.T >= 0)
    in_entry = sums & ((1 << shift) - 1)
    in_entry[near_tie] = 0
    return np.ascontiguousarray(in_entry.T), np.ascontiguousarray(near_tie.T)


def path_links(
    edge_list: SnapshotEdgeList, offsets: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ragged row paths as hop segments, their edge rows looked up pair by pair.

    Path ``i`` follows ``rows[offsets[i]:offsets[i + 1]]``.  Returns
    ``(hop_offsets, links)``: its hops are
    ``links[hop_offsets[i]:hop_offsets[i + 1]]``, the edge-list row of each
    (:meth:`~repro.network.backends.SnapshotEdgeList.link_rows`, ``-1``
    where the snapshot lacks the link) in order from the first row, so a
    segment shorter than two rows has none.  The form a route walk records
    and the input of
    :func:`~repro.network.alloc_arrays.compile_system_from_rows`.
    """
    offsets = np.asarray(offsets, dtype=np.intp)
    rows = np.asarray(rows, dtype=np.intp)
    lengths = np.diff(offsets)
    entered = np.ones(rows.size, dtype=bool)
    entered[offsets[:-1][lengths > 0]] = False
    hops = np.flatnonzero(entered)
    hop_offsets = np.zeros(offsets.size, dtype=np.intp)
    np.cumsum(np.maximum(lengths - 1, 0), out=hop_offsets[1:])
    return hop_offsets, edge_list.link_rows(rows[hops - 1], rows[hops])


def rows_from_links(
    edge_list: SnapshotEdgeList,
    sources: np.ndarray,
    offsets: np.ndarray,
    links: np.ndarray,
    latency_ms: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Node rows of hop-segment paths, rebuilt from each path's source row.

    Path ``i`` starts at row ``sources[i]`` and crosses the edge rows
    ``links[offsets[i]:offsets[i + 1]]`` in order; each hop moves to the
    other end (``a`` or ``b``) of its link.  Returns ``(row_offsets,
    rows)``, the form :func:`path_links` reads: a reachable path (finite
    ``latency_ms``) has its source first and one row per hop after it, so
    a zero-hop one is its source alone, and an unreachable path is empty.
    Asserts that unreachable paths have no hops and that every hop's link
    touches the row before it.
    """
    offsets = np.asarray(offsets, dtype=np.intp)
    lengths = np.diff(offsets)
    reachable = np.isfinite(latency_ms)
    assert not lengths[~reachable].any(), "an unreachable path has hops"
    row_offsets = np.zeros(offsets.size, dtype=np.intp)
    np.cumsum(np.where(reachable, lengths + 1, 0), out=row_offsets[1:])
    reached = np.flatnonzero(reachable)
    rows = np.empty(int(row_offsets[-1]), dtype=np.intp)
    node = np.asarray(sources, dtype=np.intp)[reached]
    rows[row_offsets[reached]] = node
    for hop in range(int(lengths.max(initial=0))):
        going = lengths[reached] > hop
        link = links[offsets[reached[going]] + hop]
        a, b, before = edge_list.a[link], edge_list.b[link], node[going]
        assert np.all((a == before) | (b == before)), "a hop leaves from elsewhere"
        node[going] = np.where(a == before, b, a)
        rows[row_offsets[reached[going]] + hop + 1] = node[going]
    return row_offsets, rows


def path_delays_from_rows(
    edge_list: SnapshotEdgeList, offsets: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """True latency [ms] of ragged row paths against unsteered link delays.

    ``rows[offsets[i]:offsets[i + 1]]`` is path ``i``; every hop must exist
    in ``edge_list`` (:func:`hop_links` raises otherwise).  Matches every
    hop again, independently of any compiled incidence, and sums the real
    ``delay_ms`` column per path.
    Empty segments (unreachable flows) read ``inf``.
    """
    offsets = np.asarray(offsets, dtype=np.intp)
    count = offsets.size - 1
    flow_ids, link_ids, link_rows = hop_links(edge_list, offsets, rows)
    totals = np.full(count, np.inf)
    nonempty = np.diff(offsets) > 0
    totals[nonempty] = np.bincount(
        flow_ids, weights=edge_list.delay_ms[link_rows][link_ids], minlength=count
    )[nonempty]
    return totals


def select_flows(
    matrix: TrafficMatrix,
    station_names: tuple[str, ...],
    flows_per_step: int,
    demand_multiplier: float = 1.0,
) -> list[tuple[str, str, float]]:
    """Filter, scale and budget a matrix's flows, one entry at a time.

    The sort key is total -- demand descending, then (src, dst) names -- so
    the budget cut is deterministic even among equal-demand candidates.
    """
    names = set(station_names)
    candidates = []
    for i, source in enumerate(matrix.cities):
        for j, destination in enumerate(matrix.cities):
            demand = float(matrix.demands[i, j])
            if i != j and demand > 0 and source.name in names and destination.name in names:
                candidates.append((source.name, destination.name, demand * demand_multiplier))
    candidates.sort(key=lambda item: (-item[2], item[0], item[1]))
    return candidates[:flows_per_step]


def mask_entry_arrays(
    matrix: TrafficMatrix, names: "tuple[str, ...] | None" = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``TrafficMatrix.entry_arrays`` by a 2-D mask over an ``np.ix_`` copy.

    Every entry is decoded before anything is cut; names with no matching
    city contribute no entries.
    """
    if names is None:
        positions = ids = np.arange(len(matrix.cities))
    else:
        by_name = {city.name: row for row, city in enumerate(matrix.cities)}
        located = [
            (index, by_name[name]) for index, name in enumerate(names) if name in by_name
        ]
        if not located:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), np.empty(0, dtype=float)
        ids = np.array([index for index, _ in located], dtype=np.int64)
        positions = np.array([row for _, row in located], dtype=np.int64)
    sub = matrix.demands[np.ix_(positions, positions)]
    mask = sub > 0.0
    np.fill_diagonal(mask, False)
    src_local, dst_local = np.nonzero(mask)
    return (
        ids[src_local].astype(np.int64),
        ids[dst_local].astype(np.int64),
        sub[src_local, dst_local].astype(float),
    )


def three_key_selection(
    matrix: TrafficMatrix,
    station_names: tuple[str, ...],
    flows_per_step: "int | None",
    demand_multiplier: float = 1.0,
) -> tuple[FlowTable, "float | None"]:
    """``plan_flows``' table and boundary, by a three-key sort of decoded entries.

    Every entry is decoded (:func:`mask_entry_arrays`); the top-k cut keeps
    the candidates at or above the k-th demand and orders them by
    ``np.lexsort`` on ``(-demand, src name rank, dst name rank)``.
    """
    src, dst, demand = mask_entry_arrays(matrix, station_names)
    if demand_multiplier != 1.0:
        demand = demand * demand_multiplier
    keep = np.arange(src.size)
    boundary = None
    if flows_per_step is not None and 0 < flows_per_step < src.size:
        top = np.argpartition(-demand, flows_per_step - 1)[:flows_per_step]
        above = demand >= demand[top].min()
        keep = np.flatnonzero(above)
        if keep.size < src.size:
            boundary = float(np.max(demand, where=~above, initial=-np.inf))
    name_rank = np.empty(len(station_names), dtype=np.intp)
    name_rank[np.argsort(np.asarray(station_names, dtype=object))] = np.arange(
        len(station_names)
    )
    order = keep[np.lexsort((name_rank[dst[keep]], name_rank[src[keep]], -demand[keep]))]
    if flows_per_step is not None:
        order = order[:flows_per_step]
    table = FlowTable(
        station_names=tuple(station_names),
        src=src[order],
        dst=dst[order],
        demand=demand[order],
    )
    return table, boundary


def table_candidates(table: FlowTable) -> list[tuple[str, str, float]]:
    """A :class:`FlowTable` as ``(src name, dst name, demand)`` rows, in order."""
    names = table.station_names
    return [
        (names[src], names[dst], demand)
        for src, dst, demand in zip(
            table.src.tolist(), table.dst.tolist(), table.demand.tolist()
        )
    ]


def networkx_routes_from(graph: nx.Graph, source) -> dict:
    """``{destination: RouteResult}`` from one networkx Dijkstra on ``delay_ms``.

    The same contract as :meth:`repro.network.routing.SnapshotRouter.routes_from`:
    every reachable node (the source included, at zero latency) is a key,
    and an unknown source maps nothing.
    """
    if source not in graph:
        return {}
    distances, paths = nx.single_source_dijkstra(graph, source, weight="delay_ms")
    return {
        destination: RouteResult(
            path=tuple(path),
            latency_ms=float(distances[destination]),
            hop_count=len(path) - 1,
            reachable=True,
        )
        for destination, path in paths.items()
    }


# -- snapshot graphs -------------------------------------------------------------

EDGE_ATTRIBUTES = ("distance_km", "delay_ms", "capacity_gbps")


def edge_list_from_graph(graph: nx.Graph) -> SnapshotEdgeList:
    """A graph's edges as an edge list (the inverse of :func:`graph_from_edge_list`).

    Node rows follow ``graph.nodes`` and link rows ``graph.edges``; an
    attribute an edge lacks reads ``nan``.
    """
    labels = tuple(graph.nodes)
    rows = {label: row for row, label in enumerate(labels)}
    edges = list(graph.edges(data=True))
    columns = [
        np.array([data.get(name, np.nan) for _, _, data in edges], dtype=float)
        for name in EDGE_ATTRIBUTES
    ]
    return SnapshotEdgeList(
        labels,
        np.array([rows[u] for u, _, _ in edges], dtype=np.intp),
        np.array([rows[v] for _, v, _ in edges], dtype=np.intp),
        *columns,
    )


def graph_from_edge_list(edge_list: SnapshotEdgeList) -> nx.Graph:
    """An edge list as a graph: label nodes, edges with every link attribute."""
    graph = nx.Graph()
    graph.add_nodes_from(edge_list.labels)
    labels = edge_list.labels
    columns = [getattr(edge_list, name).tolist() for name in EDGE_ATTRIBUTES]
    for a, b, *values in zip(edge_list.a.tolist(), edge_list.b.tolist(), *columns):
        graph.add_edge(labels[a], labels[b], **dict(zip(EDGE_ATTRIBUTES, values)))
    return graph


def graph_stream(sequence, station_names=None, faults=None) -> Iterator[nx.Graph]:
    """Replay a snapshot sequence as one graph updated in place per step.

    Each step's links are exactly those of ``sequence.edge_list(step,
    station_names, faults)``, added in its row order.  Nodes -- satellites
    with the topology's ``plane``/``slot``/``kind`` (and ``shell``)
    attributes, then the selected stations with ``kind``/``latitude_deg``/
    ``longitude_deg`` -- are inserted once; between steps only the edge
    diff is applied: vanished links are removed, persisting links have
    their attributes refreshed.  Every step yields the same graph object,
    so a consumer that keeps a snapshot must ``copy()`` it.
    """
    wanted = None if station_names is None else set(station_names)
    graph = nx.Graph()
    for node_id, attributes in sequence.topology.graph_nodes():
        graph.add_node(node_id, **attributes)
    for station in sequence.ground_stations:
        if wanted is None or station.name in wanted:
            graph.add_node(
                f"gs:{station.name}",
                kind="ground",
                latitude_deg=station.latitude_deg,
                longitude_deg=station.longitude_deg,
            )
    previous: dict[tuple, list] = {}
    for step in range(len(sequence)):
        links = sequence.edge_list(step, station_names, faults=faults)
        labels = links.labels
        columns = [getattr(links, name).tolist() for name in EDGE_ATTRIBUTES]
        edges = {
            (labels[a], labels[b]): values
            for a, b, *values in zip(links.a.tolist(), links.b.tolist(), *columns)
        }
        for key in previous.keys() - edges.keys():
            graph.remove_edge(*key)
        for (a, b), values in edges.items():
            graph.add_edge(a, b, **dict(zip(EDGE_ATTRIBUTES, values)))
        previous = edges
        yield graph


def snapshot_graph(topology, at=None, ground_stations=None) -> nx.Graph:
    """The topology's links at one epoch (default: its reference epoch) as a graph."""
    sequence = topology.snapshot_sequence([at or topology.epoch], ground_stations)
    return next(graph_stream(sequence))


# -- dense ground visibility -------------------------------------------------------


def dense_ground_visibility(stations, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(T, K, N)`` visibility mask and slant ranges [km] of every station.

    The loop :class:`~repro.network.topology.SnapshotSequence` ran before it
    kept ground visibility sparse: every (step, station, satellite) triple
    through :func:`~repro.network.ground_station.visibility_mask`, one
    station at a time, with no candidate filter.
    """
    shape = (positions.shape[0], len(stations), positions.shape[1])
    visible = np.empty(shape, dtype=bool)
    slant_km = np.empty(shape)
    for row, station in enumerate(stations):
        visible[:, row], slant_km[:, row] = visibility_mask(station, positions)
    return visible, slant_km


def sparse_ground_triples(sequence) -> tuple[np.ndarray, ...]:
    """A sequence's visible ``(step, station, satellite, slant_km)`` rows, CSR expanded."""
    offsets = sequence._ground_offsets
    steps = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    return (
        steps,
        sequence._ground_station,
        sequence._ground_satellite,
        sequence._ground_slant_km,
    )


def dense_edge_list(
    sequence, visible, slant_km, step, station_names=None, faults=None
) -> SnapshotEdgeList:
    """One step's edge list with the ground block read from dense ``(T, K, N)`` arrays.

    The satellite links are the sequence's own (its edge list with no
    station selected); the ground links follow them station-major, in
    sequence order, with satellites ascending, and obey the fault rule: a
    link exists while it is visible and both endpoints are up, and carries
    the ground capacity scaled by the worse endpoint's factor.
    """
    satellites = sequence.edge_list(step, (), faults=faults)
    wanted = None if station_names is None else set(station_names)
    rows = [
        row
        for row, station in enumerate(sequence.ground_stations)
        if wanted is None or station.name in wanted
    ]
    names = [sequence.ground_stations[row].name for row in rows]
    count = sequence.topology.satellite_count
    a = np.tile(np.arange(count, dtype=np.intp), len(rows))
    b = np.repeat(np.arange(count, count + len(rows), dtype=np.intp), count)
    keep = visible[step, rows].ravel()
    factor = np.ones(a.size)
    if faults is not None:
        columns = [faults.station_column(name) for name in names]
        station_up = np.repeat(faults.station_up[step, columns], count)
        keep = keep & np.tile(faults.satellite_up[step], len(rows)) & station_up
        factor = np.minimum(
            np.tile(faults.satellite_factor[step], len(rows)),
            np.repeat(faults.station_factor[step, columns], count),
        )
    capacity = sequence.topology.isl_config.capacity_gbps * factor[keep]
    distances = np.concatenate((satellites.distance_km, slant_km[step, rows].ravel()[keep]))
    return SnapshotEdgeList(
        labels=sequence.node_labels(station_names),
        a=np.concatenate((satellites.a, a[keep])),
        b=np.concatenate((satellites.b, b[keep])),
        distance_km=distances,
        delay_ms=np.asarray(propagation_delay_ms(distances), dtype=float),
        capacity_gbps=np.concatenate((satellites.capacity_gbps, capacity)),
    )


# -- named flows and the dict allocators -----------------------------------------


@dataclass(frozen=True)
class Flow:
    """A routed traffic flow: a name, a node-label path and a demand."""

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
        return list(zip(self.path, self.path[1:]))


@dataclass
class AllocationResult:
    """An allocation keyed by flow name and by :func:`link_key`."""

    allocated_gbps: dict[str, float]
    link_utilisation: dict[tuple, float]

    def worst_link_utilisation(self) -> float:
        """Return the highest link utilisation (1.0 means saturated)."""
        return max(self.link_utilisation.values(), default=0.0)

    def link_utilisation_array(self, edge_list: SnapshotEdgeList) -> np.ndarray:
        """Per-link utilisation in the edge list's row order, untouched links 0.0.

        Links the snapshot lacks, or whose endpoints it does not know, are
        skipped.
        """
        out = np.zeros(len(edge_list.a))
        index = edge_list.node_index
        for (a, b), value in self.link_utilisation.items():
            u, v = index.index_of(a), index.index_of(b)
            if u is not None and v is not None:
                row = int(edge_list.link_rows([u], [v])[0])
                if row >= 0:
                    out[row] = value
        return out


def _node_order_key(node) -> tuple:
    """Total order over mixed node labels: numbers first, then strings."""
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return (1, 0.0, str(node))
    return (0, float(node), "")


def link_key(a, b) -> tuple:
    """Order-independent key of an undirected link.

    Satellite ids (ints) order numerically and ahead of ground-station
    labels (``"gs:<name>"`` strings), matching the row order of the
    snapshot arrays; ``str`` ordering would put link ``(2, 10)`` as
    ``(10, 2)``.
    """
    return (a, b) if _node_order_key(a) <= _node_order_key(b) else (b, a)


def link_keys(edge_list: SnapshotEdgeList, link_rows: np.ndarray) -> tuple:
    """The :func:`link_key` of each edge-list row in ``link_rows``."""
    labels = edge_list.labels
    return tuple(
        link_key(labels[a], labels[b])
        for a, b in zip(edge_list.a[link_rows].tolist(), edge_list.b[link_rows].tolist())
    )


def named_result(flows, keys, rates, utilisation) -> AllocationResult:
    """Rate and utilisation vectors as a dict result keyed by flow name and link."""
    return AllocationResult(
        allocated_gbps={flow.name: float(rate) for flow, rate in zip(flows, rates)},
        link_utilisation={key: float(value) for key, value in zip(keys, utilisation)},
    )


def compile_flows(capacity, flows: list[Flow]) -> tuple[FlowLinkSystem, tuple]:
    """Compile label flows into the library's incidence form.

    ``capacity`` is a :class:`SnapshotEdgeList` or a graph with
    ``capacity_gbps`` edge attributes (converted by
    :func:`edge_list_from_graph`).  Labels map to rows through the
    snapshot's label table -- an unknown label to ``-1``, which no link
    has -- each hop to its link (:func:`hop_links`, so a flow crossing a
    missing link raises naming its index), and
    :func:`compile_system_from_rows` does the rest on the hops' edge rows
    (:func:`path_links`).  Returns ``(system,
    keys)`` with ``keys[l]`` the :func:`link_key` of system link ``l``.
    """
    names = [flow.name for flow in flows]
    if len(set(names)) != len(names):
        raise ValueError("flow names must be unique")
    edge_list = (
        capacity
        if isinstance(capacity, SnapshotEdgeList)
        else edge_list_from_graph(capacity)
    )
    positions = {label: row for row, label in enumerate(edge_list.labels)}
    offsets = np.zeros(len(flows) + 1, dtype=np.intp)
    np.cumsum([len(flow.path) for flow in flows], out=offsets[1:])
    rows = np.fromiter(
        (positions.get(label, -1) for flow in flows for label in flow.path),
        dtype=np.intp,
        count=int(offsets[-1]),
    )
    link_rows = hop_links(edge_list, offsets, rows)[2]
    keys = link_keys(edge_list, link_rows)
    missing = np.flatnonzero(np.isnan(edge_list.capacity_gbps[link_rows]))
    if missing.size:
        raise ValueError(f"link {keys[missing[0]]} has no capacity_gbps")
    demand = [flow.demand_gbps for flow in flows]
    hop_offsets, links = path_links(edge_list, offsets, rows)
    return compile_system_from_rows(edge_list, demand, hop_offsets, links), keys


def waterfill_by_rounds(
    system: FlowLinkSystem, iterations: "int | None" = None, obs: Tracer = NULL_TRACER
) -> tuple[np.ndarray, np.ndarray]:
    """Max-min waterfilling one round per loop pass; returns ``(rates, utilisation)``.

    The library solver (``ARRAY_SOLVERS["max_min_array"]``) before it
    batched demand-only rounds, kept as its bit-for-bit oracle.  Every
    active flow holds the same rate, the water ``level``, so a link's load
    is its ``frozen_load`` plus ``active_count * level``; each round raises
    the level by the least remaining demand or link share, then freezes
    the flows that met their demand and every flow of a saturated link,
    updating both per-link quantities from the frozen flows' incidence rows.
    ``iterations`` caps the number of rounds; the default ``None`` runs to
    the fixed point.  ``obs`` counts the rounds that froze flows as
    ``waterfill_rounds``.
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
    rounds = frozen_rounds = 0
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
        frozen_rounds += 1
        hits = np.bincount(_gather(flow_ptr, flow_links, newly), minlength=link_count)
        active_count -= hits
        frozen_load += hits * level
    rates[active] = level
    obs.counter("waterfill_rounds", frozen_rounds)

    utilisation = np.zeros(link_count)
    if link_count:
        load = system.link_loads(rates)
        positive = capacity > 0.0
        utilisation[positive] = load[positive] / capacity[positive]
        # Zero-capacity links with demand trying to cross are saturated,
        # not idle -- the proportional solver's convention.
        utilisation[~positive & (system.link_loads(demand) > 0.0)] = 1.0
    return rates, utilisation


def allocate_array(solver: str, capacity, flows: list[Flow], **options) -> AllocationResult:
    """Run the library solver ``ARRAY_SOLVERS[solver]`` on label flows."""
    system, keys = compile_flows(capacity, flows)
    return named_result(flows, keys, *ARRAY_SOLVERS[solver](system, **options))


def _link_capacities(graph: nx.Graph, flows: list[Flow]) -> dict[tuple, float]:
    capacities: dict[tuple, float] = {}
    for flow in flows:
        for a, b in flow.links():
            if not graph.has_edge(a, b):
                raise ValueError(f"flow {flow.name!r} uses a link not present in the graph")
            capacities[link_key(a, b)] = float(graph.edges[a, b]["capacity_gbps"])
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
                loads[link_key(a, b)] += flow.demand_gbps
        return loads

    loads = _link_loads(set())
    starved_links = {
        key for key, load in loads.items() if capacities[key] <= 0.0 and load > 0.0
    }
    starved_flows = {
        flow.name
        for flow in flows
        if any(link_key(a, b) in starved_links for a, b in flow.links())
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
    """Max-min fair allocation by progressive filling, recomputed every round.

    Rates of all unfrozen flows grow together by the largest uniform
    increment any constraint allows; whenever a link saturates, the flows
    crossing it are frozen at their current rate, and flows are also frozen
    once they reach their own demand.  Every round freezes at least one
    flow: when the float tolerances miss the binding constraint (headroom
    spreading to less than 1e-12 per flow, or float noise at large
    magnitudes) that constraint is frozen directly.  ``iterations`` caps the
    rounds; the default ``None`` runs to convergence.
    """
    capacities = _link_capacities(graph, flows)
    rates = {flow.name: 0.0 for flow in flows}
    frozen = {flow.name: flow.demand_gbps == 0.0 for flow in flows}
    flows_by_link: dict[tuple, list[Flow]] = {key: [] for key in capacities}
    for flow in flows:
        for a, b in flow.links():
            flows_by_link[link_key(a, b)].append(flow)

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
