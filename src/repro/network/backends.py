"""Snapshot link arrays and the csgraph shortest-path tables built on them.

Every route in the library comes from one engine: a multi-source
:func:`scipy.sparse.csgraph.dijkstra` over a snapshot's compressed-sparse-row
(CSR) export, :class:`EdgeArrays` (``indptr``, ``indices``, ``weights`` plus a
:class:`NodeIndex` mapping node labels to row numbers).  Snapshot sequences
produce the arrays straight from their link tensors
(:meth:`repro.network.topology.SnapshotSequence.edge_arrays`), and
:class:`~repro.network.routing.SnapshotRouter` validates the weights of
arrays handed to it from outside.

:class:`SnapshotEdgeList` is also the one owner of the link encoding
(:attr:`SnapshotEdgeList.link_codes`, ``min(a, b) * n + max(a, b)`` over node
rows) and of matching path hops to its rows
(:meth:`SnapshotEdgeList.hop_links`): the incidence compile of
:mod:`repro.network.alloc_arrays`, congestion steering, true-latency re-reads
and link telemetry all look links up through it.

The search result is kept in its native matrix form, :class:`RouteTables`:
``(S, N)`` distance and predecessor matrices plus the ``S`` source rows.  The
simulator routes on it directly -- :meth:`RouteTables.paths` walks every
flow's path in one batched layer walk -- and the
:class:`~repro.network.routing.SnapshotRouter` analysis API reads
``{destination: RouteResult}`` mappings as lazy row views of it.

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
    "RouteResult",
    "RouteTables",
    "NodeIndex",
    "EdgeArrays",
    "SnapshotEdgeList",
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
    """

    indptr: np.ndarray  # (n_nodes + 1,)
    indices: np.ndarray  # (nnz,)
    weights: np.ndarray  # (nnz,) delay_ms
    node_index: NodeIndex

    @property
    def node_count(self) -> int:
        """Number of nodes (rows) of the snapshot."""
        return len(self.node_index)

    def matrix(self):
        """Return the snapshot as a :class:`scipy.sparse.csr_matrix`."""
        csr_matrix = load_csgraph().csr_matrix
        n = self.node_count
        return csr_matrix((self.weights, self.indices, self.indptr), shape=(n, n))


def _csr_from_undirected(
    a: np.ndarray, b: np.ndarray, weights: np.ndarray, node_count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build symmetric CSR arrays from undirected edge endpoint arrays."""
    u = np.concatenate([a, b])
    v = np.concatenate([b, a])
    w = np.concatenate([weights, weights])
    order = np.argsort(u, kind="stable")
    counts = np.bincount(u, minlength=node_count)
    indptr = np.zeros(node_count + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    return indptr, v[order], w[order]


@dataclass(frozen=True, eq=False)
class SnapshotEdgeList:
    """Flat, picklable record of one snapshot's links.

    Plain numpy endpoint/attribute arrays plus the label table, cheap to
    pickle across process boundaries.  ``a``/``b`` are row numbers into
    ``labels``; each undirected link appears exactly once.  Instances
    compare by identity: array fields have no single truth value.

    The edge list is also the one owner of the link encoding
    (:attr:`link_codes`) and of matching path hops to its rows
    (:meth:`hop_links`, :meth:`link_rows`): allocation, steering, latency
    re-reads and link telemetry all index links through it.
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

        The key space of the whole feedback path: steering state and
        :class:`~repro.network.telemetry.LinkTelemetry` agree on it, so
        signals line up by plain integer comparison.
        """
        return self._codes(self.a, self.b)

    @cached_property
    def link_lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sorted link codes, edge row of each)``, the table lookups search.

        Built once per snapshot; the simulator's step kernel builds it
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

    def hop_links(
        self, offsets: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Match every hop of ragged row paths to an edge-list row.

        Path ``i`` follows ``rows[offsets[i]:offsets[i + 1]]``; a segment
        shorter than two rows has no hops.  Returns ``(flow_ids, link_ids,
        link_rows)``, one ``flow_ids``/``link_ids`` entry per hop, flow by
        flow and hop by hop: hop ``h`` of path ``flow_ids[h]`` uses edge row
        ``link_rows[link_ids[h]]``.  ``link_rows`` holds each distinct link
        once, in ascending link-code order, so ``link_ids`` are the columns
        of the paths' (flow x link) incidence matrix.

        Raises :class:`ValueError` on a hop the snapshot has no link for
        (or whose endpoint row is outside the label table), naming the path
        by its index.
        """
        offsets = np.asarray(offsets, dtype=np.intp)
        rows = np.asarray(rows, dtype=np.intp)
        lengths = np.diff(offsets)
        # Hop endpoints: every row except each segment's last (u) / first
        # (v), selected by masks so hops stay flow by flow, hop by hop.
        keep_u = np.ones(rows.size, dtype=bool)
        keep_v = np.ones(rows.size, dtype=bool)
        nonempty = lengths > 0
        keep_u[offsets[1:][nonempty] - 1] = False
        keep_v[offsets[:-1][nonempty]] = False
        flow_ids = np.repeat(
            np.arange(lengths.size, dtype=np.intp), np.maximum(lengths - 1, 0)
        )
        codes, link_ids = np.unique(
            self._codes(rows[keep_u], rows[keep_v]), return_inverse=True
        )
        link_rows = self._rows_of_codes(codes)
        missing = link_rows < 0
        if missing.any():
            path = int(flow_ids[np.flatnonzero(missing[link_ids])[0]])
            raise ValueError(f"flow {path} uses a link not present in the snapshot")
        return flow_ids, link_ids, link_rows

    def arrays(self) -> EdgeArrays:
        """Return the CSR routing view (``delay_ms`` weighted)."""
        indptr, indices, weights = _csr_from_undirected(
            self.a, self.b, self.delay_ms, len(self.labels)
        )
        return EdgeArrays(indptr, indices, weights, self.node_index)


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

    node_index: NodeIndex
    source_rows: np.ndarray  # (S,)
    distances: np.ndarray  # (S, N)
    predecessors: np.ndarray  # (S, N)

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
        return cls(arrays.node_index, source_rows, distances, predecessors)

    def paths(
        self, group_of: np.ndarray, dest_rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One layer walk over many queries' predecessor rows at once.

        Query ``i`` walks table row ``group_of[i]`` toward node row
        ``dest_rows[i]``.  Negative ``group_of`` or ``dest_rows`` entries,
        like unreachable destinations, yield an empty segment with ``inf``
        latency.

        Returns ``(offsets, rows_buffer, latency_ms)`` in query order: path
        ``i`` occupies ``rows_buffer[offsets[i]:offsets[i + 1]]`` (source
        first, destination last -- the rows of
        :meth:`_PredecessorRoutes._reconstruct`).  Every pending query steps
        one hop per iteration, so the Python-level work is O(longest path)
        across the whole batch.
        """
        group_of = np.asarray(group_of, dtype=np.intp)
        dest_rows = np.asarray(dest_rows, dtype=np.intp)
        count = dest_rows.size
        latency = np.full(count, np.inf)
        lengths = np.zeros(count, dtype=np.intp)
        known = (group_of >= 0) & (dest_rows >= 0)
        safe_group = np.where(known, group_of, 0)
        safe_rows = np.where(known, dest_rows, 0)
        reachable = known & np.isfinite(self.distances[safe_group, safe_rows])
        latency[reachable] = self.distances[safe_group[reachable], safe_rows[reachable]]
        # Walk predecessors for all reachable queries at once, recording each
        # layer; depth[i] counts hops from destination i back to its source.
        source_of = self.source_rows[safe_group]
        cursor = safe_rows.copy()
        depth = np.zeros(count, dtype=np.intp)
        pending = reachable.copy()
        layers: list[tuple[np.ndarray, np.ndarray]] = []
        while True:
            pending = pending & (cursor != source_of)
            if not pending.any():
                break
            layers.append((np.flatnonzero(pending), cursor[pending].copy()))
            depth[pending] += 1
            cursor[pending] = self.predecessors[safe_group[pending], cursor[pending]]
        lengths[reachable] = depth[reachable] + 1
        offsets = np.zeros(count + 1, dtype=np.intp)
        np.cumsum(lengths, out=offsets[1:])
        buffer = np.empty(int(offsets[-1]), dtype=np.intp)
        # Each source sits at its segment's start; the layer recorded at walk
        # step k holds the node depth[i]-k hops along path i, i.e. position
        # offsets[i] + depth[i] - k (destination itself at k=0).
        buffer[offsets[:-1][reachable]] = source_of[reachable]
        for step, (where, nodes) in enumerate(layers):
            buffer[offsets[:-1][where] + depth[where] - step] = nodes
        return offsets, buffer, latency


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
