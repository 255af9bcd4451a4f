"""Snapshot link arrays and the csgraph shortest-path tables built on them.

Every route in the library comes from one engine: a multi-source
:func:`scipy.sparse.csgraph.dijkstra` over a snapshot's compressed-sparse-row
(CSR) export, :class:`EdgeArrays` (``indptr``, ``indices``, ``weights``, a
:class:`NodeIndex` mapping node labels to row numbers, and the edge row of
every entry).  Snapshot sequences produce the arrays straight from their
link tensors (:meth:`repro.network.topology.SnapshotSequence.edge_arrays`),
a steered snapshot re-weights its base arrays through the entries' edge
rows (:meth:`EdgeArrays.reweighted`), and
:class:`~repro.network.routing.SnapshotRouter` validates the weights of
arrays handed to it from outside.

:class:`SnapshotEdgeList` is also the one owner of the link encoding
(:attr:`SnapshotEdgeList.link_codes`, ``min(a, b) * n + max(a, b)`` over node
rows, sorted in :attr:`SnapshotEdgeList.link_lookup`): the incidence compile
of :mod:`repro.network.alloc_arrays`, congestion steering, true-latency
re-reads and link telemetry all index links through it.

The station-sourced search result is kept in its native matrix form,
:class:`RouteTables`: ``(S, N)`` distance and predecessor matrices plus the
``S`` source rows; :meth:`RouteTables.paths` walks many queries' paths in
one batched layer walk into :class:`Paths`, the ragged edge rows of every
path's hops, and the
:class:`~repro.network.routing.SnapshotRouter` analysis API reads
``{destination: RouteResult}`` mappings as lazy row views of it.

The simulator routes on :class:`GatewayRouteTables` instead, with the same
``paths`` contract.  Stations that share the satellites they link to (their
*gateways*) are searched once from those gateways, on the full graph, and
each query is routed through its best gateway.  A query takes that path
only under a uniqueness certificate: its best gateway wins by
:data:`CERTIFICATE_MARGIN` and no node of the path is near-tied in the
gateway's search, which proves a station-sourced search returns the same
path.  The source of every other query is solved exactly by
:meth:`RouteTables.solve`.  So every path and latency is bit-identical to
the station-sourced tables.  A solve is only the Dijkstra.  Both tables
walk their predecessor rows with the same batched layer walk and then
scan the CSR row of each distinct walked node once, for its in-link from
its predecessor (whose weight and edge row are the hop's) and, on gateway
tables, for a near-tied second one.  No hop is ever sorted or searched.

Because :class:`EdgeArrays` and :class:`SnapshotEdgeList` are plain numpy
containers they pickle cheaply, which is what lets
:meth:`repro.network.simulation.NetworkSimulator.run_scenarios` fan a sweep
out to a real :class:`concurrent.futures.ProcessPoolExecutor`.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "Paths",
    "RouteResult",
    "RouteTables",
    "NodeIndex",
    "EdgeArrays",
    "SnapshotEdgeList",
    "merge_codes",
]


@dataclass(frozen=True)
class RouteResult:
    """A routed path and its figures of merit."""

    path: tuple[int | str, ...]
    latency_ms: float
    hop_count: int
    reachable: bool
    #: Row-index form of ``path`` into the snapshot's array views, set when
    #: the path was rebuilt from a predecessor row (the rows
    #: :meth:`RouteTables.paths` walks).  It never affects equality, so a
    #: result built from labels alone still compares route-equal.
    path_rows: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    @classmethod
    def unreachable(cls) -> "RouteResult":
        """Return the sentinel result for an unreachable destination."""
        return cls(path=(), latency_ms=float("inf"), hop_count=0, reachable=False)


@dataclass(frozen=True)
class NodeIndex:
    """Bidirectional mapping between node labels and CSR row numbers.

    Satellite nodes are integers and ground stations are ``"gs:<name>"``
    strings; row numbers follow the order of ``labels``.
    """

    labels: tuple

    @cached_property
    def _positions(self) -> dict:
        return {label: index for index, label in enumerate(self.labels)}

    def index_of(self, label) -> int | None:
        """Return the CSR row of a node label, or ``None`` if unknown."""
        return self._positions.get(label)

    def label_of(self, index: int):
        """Return the node label of a CSR row."""
        return self.labels[index]

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label) -> bool:
        return label in self._positions


class EdgeArrays(NamedTuple):
    """CSR export of one topology snapshot, weighted by ``delay_ms``.

    The form every route search runs on: row ``i`` of
    the implied ``(n, n)`` sparse matrix holds the out-links of node
    ``node_index.label_of(i)``; the matrix is explicitly symmetric (both
    directions of every undirected link are stored), so consumers should
    treat it as a directed graph and skip any symmetrisation pass.
    ``edge_rows`` maps every entry back to its link's row of the
    :class:`SnapshotEdgeList` the arrays came from, so a route search can
    report the links its paths use without searching for them.
    """

    indptr: np.ndarray  # (n_nodes + 1,)
    indices: np.ndarray  # (nnz,)
    weights: np.ndarray  # (nnz,) delay_ms
    node_index: NodeIndex
    edge_rows: np.ndarray  # (nnz,)

    @property
    def node_count(self) -> int:
        """Number of nodes (rows) of the snapshot."""
        return len(self.node_index)

    def matrix(self):
        """Return the snapshot as a :class:`scipy.sparse.csr_matrix`."""
        csr_matrix = load_csgraph().csr_matrix
        n = self.node_count
        return csr_matrix((self.weights, self.indices, self.indptr), shape=(n, n))

    def reweighted(self, delay_ms: np.ndarray) -> "EdgeArrays":
        """The same CSR, each entry weighted by its edge row of ``delay_ms``.

        A steered snapshot changes only its edge list's ``delay_ms``, so its
        routing view is this gather, bit-identical to exporting it afresh.
        """
        return self._replace(weights=delay_ms[self.edge_rows])


def _csr_from_undirected(
    a: np.ndarray, b: np.ndarray, weights: np.ndarray, node_count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric CSR arrays of undirected edges, plus each entry's edge row."""
    u = np.concatenate([a, b])
    v = np.concatenate([b, a])
    order = np.argsort(u, kind="stable")
    edge_rows = np.concatenate([np.arange(a.size), np.arange(a.size)])[order]
    counts = np.bincount(u, minlength=node_count)
    indptr = np.zeros(node_count + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    return indptr, v[order], weights[edge_rows], edge_rows


@dataclass(frozen=True, eq=False)
class SnapshotEdgeList:
    """Flat, picklable record of one snapshot's links.

    Plain numpy endpoint/attribute arrays plus the label table, cheap to
    pickle across process boundaries.  ``a``/``b`` are row numbers into
    ``labels``; each undirected link appears exactly once.  Instances
    compare by identity: array fields have no single truth value.

    The edge list is also the one owner of the link encoding
    (:attr:`link_codes`, sorted in :attr:`link_lookup`) and of matching
    node pairs to its rows (:meth:`link_rows`): allocation, steering,
    latency re-reads and link telemetry all index links through it.
    """

    labels: tuple
    a: np.ndarray  # (E,) node rows
    b: np.ndarray  # (E,) node rows
    distance_km: np.ndarray  # (E,)
    delay_ms: np.ndarray  # (E,)
    capacity_gbps: np.ndarray  # (E,)

    @cached_property
    def node_index(self) -> NodeIndex:
        """Label table shared by every array view of this snapshot."""
        return NodeIndex(self.labels)

    @property
    def nbytes(self) -> int:
        """Bytes held by the per-step edge arrays (label table excluded).

        The observability layer gauges this per step
        (``gauges["edge_list_bytes"]``), so a sweep's metrics show where
        snapshot memory goes as constellations scale.
        """
        return int(
            self.a.nbytes
            + self.b.nbytes
            + self.distance_km.nbytes
            + self.delay_ms.nbytes
            + self.capacity_gbps.nbytes
        )

    @cached_property
    def link_codes(self) -> np.ndarray:
        """Each row's undirected link as one int64, ``min(a, b) * n + max(a, b)``.

        The key space of the whole feedback path: steering state and the
        link :class:`~repro.network.telemetry.PairTelemetry` agree on it,
        so signals line up by plain integer comparison.
        """
        return self._codes(self.a, self.b)

    @cached_property
    def link_lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sorted link codes, edge row of each)``, in link-code order.

        The table :meth:`link_rows` searches, the order the incidence
        compile numbers links in, and the sorted codes steering merges its
        state into.  Built once per snapshot; the simulator's step kernel builds it
        before any scenario runs, as shared group work timed once in the
        ``snapshot`` span.
        """
        order = np.argsort(self.link_codes)
        return self.link_codes[order], order

    def _codes(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Link codes of endpoint-row pairs; ``-1`` (no link) out of range."""
        n = len(self.labels)
        lo = np.minimum(u, v).astype(np.int64, copy=False)
        hi = np.maximum(u, v).astype(np.int64, copy=False)
        return np.where((lo >= 0) & (hi < n), lo * n + hi, -1)

    def _rows_of_codes(self, codes: np.ndarray) -> np.ndarray:
        """Edge row of each link code, ``-1`` where the snapshot lacks it."""
        sorted_codes, order = self.link_lookup
        if not sorted_codes.size:
            return np.full(codes.size, -1, dtype=np.intp)
        positions = np.minimum(
            np.searchsorted(sorted_codes, codes), sorted_codes.size - 1
        )
        return np.where(sorted_codes[positions] == codes, order[positions], -1)

    def link_rows(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Edge row of each undirected link ``(u[i], v[i])`` of node rows.

        ``-1`` where the snapshot has no such link (an endpoint outside the
        label table included).
        """
        return self._rows_of_codes(self._codes(np.asarray(u), np.asarray(v)))

    def arrays(self) -> EdgeArrays:
        """Return the CSR routing view (``delay_ms`` weighted)."""
        indptr, indices, weights, edge_rows = _csr_from_undirected(
            self.a, self.b, self.delay_ms, len(self.labels)
        )
        return EdgeArrays(indptr, indices, weights, self.node_index, edge_rows)


def merge_codes(state: np.ndarray, snapshot: np.ndarray) -> np.ndarray:
    """Sorted union of two sorted arrays of distinct codes, without a sort.

    ``snapshot`` is the larger side (an edge list's sorted link codes, or a
    batch's consolidated pair keys); only the ``state`` codes it lacks are
    inserted at their sorted places, so nothing is re-sorted.  The result
    is ``snapshot`` or ``state`` itself when the other adds nothing, so
    callers must not write into it.
    """
    if not snapshot.size:
        return state
    found = np.minimum(np.searchsorted(snapshot, state), snapshot.size - 1)
    absent = state[snapshot[found] != state]
    if not absent.size:
        return snapshot
    return np.insert(snapshot, np.searchsorted(snapshot, absent), absent)


def load_csgraph():
    """Import :mod:`scipy.sparse.csgraph` and return :mod:`scipy.sparse`.

    The one place the library loads its routing engine.  The import takes
    ~0.3 s in a fresh process, so nothing imports it at module level:
    :class:`~repro.network.simulation.NetworkSimulator` calls this when it
    is built, which keeps the cost out of the first timed routing call, and
    :meth:`EdgeArrays.matrix` and :func:`_dijkstra` call it for callers that
    route without a simulator (an already loaded module costs a dict lookup).
    """
    import scipy.sparse.csgraph

    return scipy.sparse


class Paths(NamedTuple):
    """Many queries' walked paths as ragged hop arrays, in query order.

    Path ``i``'s hops occupy ``links[offsets[i]:offsets[i + 1]]``: the edge
    row (:attr:`EdgeArrays.edge_rows`) of each hop, in order from the
    source, so a segment's length is the path's hop count.  A zero-hop
    query (source equals destination) and an unreachable one both have an
    empty segment; ``latency_ms`` tells them apart, 0 for the first and
    ``inf`` for the second.
    """

    offsets: np.ndarray  # (Q + 1,)
    links: np.ndarray  # (offsets[-1],) edge rows
    latency_ms: np.ndarray  # (Q,)
    #: Sources the walk solved exactly because a certificate failed
    #: (:class:`GatewayRouteTables`); :class:`RouteTables` solve up front.
    exact_sources: int = 0


class RouteTables(NamedTuple):
    """Multi-source shortest-path tables of one snapshot, as matrices.

    Row ``i`` holds the single-source search from node row
    ``source_rows[i]``: ``distances[i, n]`` is the lowest delay [ms] to
    node row ``n`` (``inf`` when unreachable) and ``predecessors[i, n]`` the
    row before ``n`` on that path (scipy's ``-9999`` at the source and at
    unreachable nodes).  A negative source row marks a source absent from
    the snapshot, whose row reaches nothing.  This is the only form the
    simulator routes on: :meth:`paths` walks the matrices directly, and the
    analysis APIs read single rows through :class:`_PredecessorRoutes`.
    """

    arrays: EdgeArrays
    source_rows: np.ndarray  # (S,)
    distances: np.ndarray  # (S, N)
    predecessors: np.ndarray  # (S, N)

    @property
    def node_index(self) -> NodeIndex:
        """Label table of the searched snapshot."""
        return self.arrays.node_index

    @classmethod
    def solve(cls, arrays: EdgeArrays, source_rows) -> "RouteTables":
        """Solve every non-negative source row in one multi-source Dijkstra.

        Each row of a multi-source :func:`scipy.sparse.csgraph.dijkstra`
        result is its own single-source search, so a row is the same
        however many other sources share the call.
        """
        source_rows = np.asarray(source_rows, dtype=np.intp)
        known = source_rows >= 0
        if known.all():
            distances, predecessors = _dijkstra(arrays, source_rows)
        else:
            shape = (source_rows.size, arrays.node_count)
            distances = np.full(shape, np.inf)
            predecessors = np.full(shape, -9999, dtype=np.int32)
            if known.any():
                distances[known], predecessors[known] = _dijkstra(
                    arrays, source_rows[known]
                )
        return cls(arrays, source_rows, distances, predecessors)

    def paths(self, group_of: np.ndarray, dest_rows: np.ndarray) -> Paths:
        """One layer walk over many queries' predecessor rows at once.

        Query ``i`` walks table row ``group_of[i]`` toward node row
        ``dest_rows[i]``.  Negative ``group_of`` or ``dest_rows`` entries,
        like unreachable destinations, yield an empty segment with ``inf``
        latency.  Path ``i``'s hops join the rows of
        :meth:`_PredecessorRoutes._reconstruct`, walked by
        :func:`_walk_layers`; each hop's link is its node's in-link from
        its predecessor (:func:`_in_links`).
        """
        group_of = np.asarray(group_of, dtype=np.intp)
        dest_rows = np.asarray(dest_rows, dtype=np.intp)
        latency = np.full(dest_rows.size, np.inf)
        known = (group_of >= 0) & (dest_rows >= 0)
        safe_group = np.where(known, group_of, 0)
        safe_rows = np.where(known, dest_rows, 0)
        reachable = known & np.isfinite(self.distances[safe_group, safe_rows])
        latency[reachable] = self.distances[safe_group[reachable], safe_rows[reachable]]
        walk = np.flatnonzero(reachable)
        roots = self.source_rows[safe_group[walk]]
        layers, depth = _walk_layers(
            self.predecessors, safe_group[walk], roots, safe_rows[walk]
        )
        entries, _ = _in_links(
            self.arrays, self.distances, self.predecessors, [at for _, at in layers], None
        )
        lengths = np.zeros(dest_rows.size, dtype=np.intp)
        lengths[walk] = depth
        offsets = np.zeros(dest_rows.size + 1, dtype=np.intp)
        np.cumsum(lengths, out=offsets[1:])
        links = np.empty(int(offsets[-1]), dtype=np.intp)
        edge_rows = self.arrays.edge_rows
        _place_layers(
            links, offsets[walk] + depth - 1, layers, [edge_rows[e] for e in entries]
        )
        return Paths(offsets, links, latency)


#: Relative margin by which a gateway route must beat every alternative
#: before :class:`GatewayRouteTables` walks it.  A path sum carries ~1e-16
#: relative float error per hop, so a path that wins by this margin is the
#: one any tie-break of a station-sourced search returns.
CERTIFICATE_MARGIN = 1e-9


@dataclass(frozen=True, eq=False)
class GatewayRouteTables:
    """Station-sourced shortest paths, searched from the stations' gateways.

    Every path out of a source station starts on one of its links, so its
    shortest path to ``t`` runs through ``argmin over gateways g of
    w(s, g) + D[g, t]``, where the gateways are the station's CSR
    neighbours and ``D`` comes from a search on the full graph (other
    stations stay transit nodes).  When a snapshot's stations share their
    gateways, one multi-source Dijkstra from the distinct gateways replaces
    one from every station.

    A query takes its gateway's tree path only under a uniqueness
    certificate: (a) its best gateway beats every other gateway of the
    source by :data:`CERTIFICATE_MARGIN`, and (b) no node on the tree path
    (the gateway included) has a near-tied second in-link in the gateway's
    search.  Together they make the source's shortest path unique by a
    margin far above float error, so a station-sourced
    :meth:`RouteTables.solve` returns that same path, with the path's
    in-order hop sum as its distance -- which is the latency reported here.
    The sources of all other reachable queries are solved exactly by
    :meth:`RouteTables.solve` (the *fallback*), so :meth:`paths` equals the
    station-sourced :meth:`RouteTables.paths` bit for bit.

    Certificate (b) is checked as :meth:`paths` walks, on the walked nodes
    only, so a solve is the one gateway search.  ``arrays`` must be
    symmetric, as every snapshot's :class:`EdgeArrays` is: the near-tie
    check reads a node's in-links from its own CSR row.
    """

    arrays: EdgeArrays
    source_rows: np.ndarray  # (S,)
    #: Distinct gateway node rows: the sources of the Dijkstra search.
    gateway_rows: np.ndarray  # (G,)
    #: Each source's gateways as indices into ``gateway_rows`` (0 where padded).
    gateways: np.ndarray  # (S, K)
    #: Weight of each source-to-gateway link (``inf`` where padded).
    gateway_weights: np.ndarray  # (S, K)
    #: Edge row of each source-to-gateway link (``-1`` where padded).
    gateway_links: np.ndarray  # (S, K)
    distances: np.ndarray  # (G, N)
    predecessors: np.ndarray  # (G, N)

    @classmethod
    def solve(cls, arrays: EdgeArrays, source_rows) -> "GatewayRouteTables":
        """Search from the gateways of every non-negative source row."""
        source_rows = np.asarray(source_rows, dtype=np.intp)
        indptr, indices, weights = arrays.indptr, arrays.indices, arrays.weights
        known = source_rows >= 0
        safe = np.where(known, source_rows, 0)
        first = indptr[safe]
        degree = np.where(known, indptr[safe + 1] - first, 0)
        slot = np.arange(max(int(degree.max(initial=0)), 1))
        padded = slot < degree[:, None]
        position = (first[:, None] + slot)[padded]
        gateway_rows, gateway_of = np.unique(indices[position], return_inverse=True)
        gateways = np.zeros(padded.shape, dtype=np.intp)
        gateways[padded] = gateway_of
        gateway_weights = np.full(padded.shape, np.inf)
        gateway_weights[padded] = weights[position]
        gateway_links = np.full(padded.shape, -1, dtype=np.intp)
        gateway_links[padded] = arrays.edge_rows[position]
        return cls(
            arrays,
            source_rows,
            gateway_rows,
            gateways,
            gateway_weights,
            gateway_links,
            *_dijkstra(arrays, gateway_rows),
        )

    def paths(self, group_of: np.ndarray, dest_rows: np.ndarray) -> Paths:
        """Same contract and result as :meth:`RouteTables.paths`.

        Query ``i`` routes from ``source_rows[group_of[i]]`` to node row
        ``dest_rows[i]``.  The queries that pass certificate (a) are walked
        on their best gateway's tree in one batched layer walk, and one scan
        of the walked nodes' in-links (:func:`_in_links`) checks certificate
        (b) and gives each hop's weight and edge row.  The sources of the
        other reachable queries are solved exactly and walked by
        :meth:`RouteTables.paths` (no solve runs when there are none), and
        their count is :attr:`Paths.exact_sources`.
        """
        group_of = np.asarray(group_of, dtype=np.intp)
        dest_rows = np.asarray(dest_rows, dtype=np.intp)
        known = (group_of >= 0) & (dest_rows >= 0)
        safe_group = np.where(known, group_of, 0)
        source = self.source_rows[safe_group]
        known &= source >= 0
        dest = np.where(known, dest_rows, 0)
        at_source = known & (dest == source)
        walk, gateway, hop0, gateway_links, rejected = self._best_gateways(
            np.flatnonzero(known & ~at_source), safe_group, dest
        )
        roots = self.gateway_rows[gateway]
        layers, depth = _walk_layers(self.predecessors, gateway, roots, dest[walk])
        # A source adds at most its heaviest gateway link in front of a
        # gateway's distances; near ties are judged on that whole sum.
        lead = np.max(self.gateway_weights, where=self.gateway_links >= 0, initial=0.0)
        entries, ties = _in_links(
            self.arrays,
            self.distances,
            self.predecessors,
            [gateway * self.arrays.node_count + roots] + [at for _, at in layers],
            float(lead),
        )
        # Certificate (b) on every tree node, the gateway included, and the
        # in-order hop sums from the source, as Dijkstra accumulates them:
        # layer k holds the node k hops back from the destination, which hop
        # depth - k enters (hop 0 is source -> gateway), so the deepest layer
        # adds first.  A node that is not near-tied has one tight in-link,
        # its predecessor's, so a certified path is the only shortest one.
        tied = ties[0]
        tree_latency = hop0.copy()
        for k in range(len(layers) - 1, -1, -1):
            where = layers[k][0]
            tied[where] |= ties[k + 1]
            tree_latency[where] += self.arrays.weights[entries[k + 1]]
        certified = ~tied
        fallback = np.concatenate([rejected, walk[tied]])
        sources, table_of = np.unique(source[fallback], return_inverse=True)
        exact = Paths(np.zeros(1, dtype=np.intp), walk[:0], np.empty(0))
        if sources.size:
            exact = RouteTables.solve(self.arrays, sources).paths(table_of, dest[fallback])
        latency = np.where(at_source, 0.0, np.inf)
        latency[walk[certified]] = tree_latency[certified]
        latency[fallback] = exact.latency_ms
        lengths = np.zeros(dest.size, dtype=np.intp)
        lengths[walk[certified]] = depth[certified] + 1
        lengths[fallback] = np.diff(exact.offsets)
        offsets = np.zeros(dest.size + 1, dtype=np.intp)
        np.cumsum(lengths, out=offsets[1:])
        links = np.empty(int(offsets[-1]), dtype=np.intp)
        start = offsets[:-1]
        links[start[walk[certified]]] = gateway_links[certified]
        edge_rows = self.arrays.edge_rows
        _place_layers(
            links,
            start[walk] + depth,
            layers,
            [edge_rows[entry] for entry in entries[1:]],
            certified,
        )
        spliced = np.arange(exact.links.size) + np.repeat(
            start[fallback] - exact.offsets[:-1], lengths[fallback]
        )
        links[spliced] = exact.links
        return Paths(offsets, links, latency, int(sources.size))

    def _best_gateways(
        self, asked: np.ndarray, group_of: np.ndarray, dest: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each query of ``asked``'s best gateway, under certificate (a).

        Returns ``(walk, gateway, hop0, link, rejected)``: the queries whose
        best gateway wins by the margin, that gateway (an index into
        ``gateway_rows``) and the weight and edge row of the link to it,
        and the reachable queries whose best gateway does not win.
        Unreachable queries are in neither; without gateways every query is.
        """
        if not self.gateway_rows.size:
            return asked[:0], asked[:0], np.empty(0), asked[:0], asked[:0]
        group = group_of[asked]
        candidates = self.gateway_weights[group] + self.distances[
            self.gateways[group], dest[asked, None]
        ]
        choice = candidates.argmin(axis=1)
        picked = (np.arange(asked.size), choice)
        best = candidates[picked]
        candidates[picked] = np.inf
        unique = candidates.min(axis=1) > best + CERTIFICATE_MARGIN * best
        reached = np.isfinite(best)
        walk = reached & unique
        return (
            asked[walk],
            self.gateways[group, choice][walk],
            self.gateway_weights[group, choice][walk],
            self.gateway_links[group, choice][walk],
            asked[reached & ~unique],
        )


def _walk_layers(
    predecessors: np.ndarray,
    table_of: np.ndarray,
    roots: np.ndarray,
    dest_rows: np.ndarray,
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """One layer walk up many queries' predecessor rows at once.

    Query ``i`` follows row ``table_of[i]`` of ``predecessors`` from node
    row ``dest_rows[i]`` up to its search root ``roots[i]``, ``depth[i]``
    hops.  Returns ``(layers, depth)``: ``layers[k]`` is ``(queries, at)``,
    the queries still walking at step ``k`` and the flat index into
    ``predecessors`` of their nodes ``k`` hops back from the destination.
    Every walking query steps one hop per iteration, so the Python-level
    work is O(longest path) across the whole batch.
    """
    flat = predecessors.ravel()
    where = np.arange(dest_rows.size)
    base = table_of * predecessors.shape[1]
    node = dest_rows
    root = roots
    depth = np.zeros(dest_rows.size, dtype=np.intp)
    layers: list[tuple[np.ndarray, np.ndarray]] = []
    while True:
        moving = node != root
        if not moving.all():
            where, base, node, root = where[moving], base[moving], node[moving], root[moving]
        if not where.size:
            break
        at = base + node
        layers.append((where, at))
        depth[where] = len(layers)
        node = np.take(flat, at)
    return layers, depth


def _place_layers(
    links: np.ndarray,
    ends: np.ndarray,
    layers: list[tuple[np.ndarray, np.ndarray]],
    layer_links: list[np.ndarray],
    keep: np.ndarray | None = None,
) -> None:
    """Write the walked layers of :func:`_walk_layers` into a hop buffer.

    The edge row of the hop into query ``i``'s destination goes to
    ``links[ends[i]]`` and that of the hop into the node ``k`` hops back
    from it (``layer_links[k]``) to ``links[ends[i] - k]``; only the
    queries where ``keep`` is set are written, when it is given.
    """
    for k, ((where, _), link) in enumerate(zip(layers, layer_links)):
        if keep is not None:
            kept = keep[where]
            where, link = where[kept], link[kept]
        links[ends[where] - k] = link


def _in_links(
    arrays: EdgeArrays,
    distances: np.ndarray,
    predecessors: np.ndarray,
    walked: list[np.ndarray],
    lead: float | None,
) -> tuple[list[np.ndarray], list[np.ndarray] | None]:
    """The in-link facts of walked nodes, each distinct one scanned once.

    Every array of ``walked`` holds flat indices into ``predecessors``
    (``table * N + node``).  Returns ``(entries, ties)``, aligned with each
    of them: the CSR entry of the link from the node's predecessor, whose
    weight and edge row are its hop's (0 at a search root), and whether
    the node is near-tied (``ties`` is ``None`` when ``lead`` is: the
    station-sourced tables read only the entries).  An in-link ``u -> v``
    is tight when ``D[u] + w(u, v)`` is within ``CERTIFICATE_MARGIN * (D[v]
    + lead)`` of ``D[v]``; a reached node other than the root always has
    one, its predecessor's, so a second one (or any at the root) is a near
    tie.  The CSR export is symmetric, so row ``v`` lists ``v``'s in-links.
    The walked nodes are marked in one boolean table and each is scanned
    once, since walks share many of their nodes; the work is the distinct
    nodes' degrees, with no sort or search.
    """
    indptr, indices = arrays.indptr, arrays.indices
    marked = np.zeros(predecessors.size, dtype=bool)
    for at in walked:
        marked[at] = True
    at = np.flatnonzero(marked)
    node = at % predecessors.shape[1]
    first = indptr[node]
    # Every walked node has a link (to its predecessor, or at a gateway root
    # from its station), so no segment of the tie count below is empty.
    degree = indptr[node + 1] - first
    start = np.cumsum(degree) - degree
    entry = np.arange(int(degree.sum())) + np.repeat(first - start, degree)
    neighbour = indices[entry]
    before = np.take(predecessors, at)
    found = np.flatnonzero(neighbour == np.repeat(before, degree))
    in_entry = np.zeros(predecessors.size, dtype=np.intp)
    in_entry[np.repeat(at, degree)[found]] = entry[found]
    entries = [np.take(in_entry, positions) for positions in walked]
    if lead is None:
        return entries, None
    offer = np.take(distances, np.repeat(at - node, degree) + neighbour)
    offer += arrays.weights[entry]
    reach = np.take(distances, at)
    reach += CERTIFICATE_MARGIN * (reach + lead)
    tight = np.add.reduceat(offer <= np.repeat(reach, degree), start, dtype=np.intp)
    near_tie = marked
    near_tie[at] = tight > (before >= 0)
    return entries, [np.take(near_tie, positions) for positions in walked]


def _dijkstra(arrays: EdgeArrays, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(distances, predecessors)`` of one multi-source csgraph search."""
    return load_csgraph().csgraph.dijkstra(
        arrays.matrix(),
        directed=True,  # the CSR export is explicitly symmetric
        indices=rows,
        return_predecessors=True,
    )


class _PredecessorRoutes(Mapping):
    """Read-only view of one row of :class:`RouteTables`.

    Behaves like a ``{destination: RouteResult}`` dict -- keys are the
    reachable destinations, values are :class:`RouteResult` -- but each path
    is rebuilt from the predecessor row only when first requested, so asking
    for a handful of station-to-station routes out of an N-node snapshot
    pays for exactly those paths.
    """

    def __init__(self, tables: RouteTables, index: int):
        self._node_index = tables.node_index
        self._distances = tables.distances[index]
        self._predecessors = tables.predecessors[index]
        self._source_row = int(tables.source_rows[index])
        self._reachable = np.flatnonzero(np.isfinite(self._distances))
        self._built: dict = {}

    def _reconstruct(self, row: int) -> RouteResult:
        path_rows = [row]
        while path_rows[-1] != self._source_row:
            path_rows.append(int(self._predecessors[path_rows[-1]]))
        path_rows.reverse()
        label_of = self._node_index.label_of
        return RouteResult(
            path=tuple(label_of(node) for node in path_rows),
            latency_ms=float(self._distances[row]),
            hop_count=len(path_rows) - 1,
            reachable=True,
            path_rows=tuple(path_rows),
        )

    def __getitem__(self, destination) -> RouteResult:
        result = self._built.get(destination)
        if result is not None:
            return result
        row = self._node_index.index_of(destination)
        if row is None or not np.isfinite(self._distances[row]):
            raise KeyError(destination)
        result = self._reconstruct(int(row))
        self._built[destination] = result
        return result

    def __iter__(self) -> Iterator:
        label_of = self._node_index.label_of
        return (label_of(int(row)) for row in self._reachable)

    def __len__(self) -> int:
        return len(self._reachable)
