"""Columnar flow stages: select, route and compile flows without objects.

Materialising one Python object per routed demand pair is fine at a
50-flow budget, but at the 10^5-10^6 flows per step of
hypergrowth-scale traffic matrices the per-flow Python (tuple building,
list sorts, dataclass construction, generator sums) dominates every
array-native stage around it.  The simulator of
:mod:`repro.network.simulation` therefore keeps the whole flow population
columnar end-to-end:

* :func:`plan_flows` -- stage 2 as array ops: the traffic matrix's
  non-zero off-diagonal entries as flat codes in one boolean pass
  (:meth:`~repro.demand.traffic_matrix.TrafficMatrix.entry_codes`), an
  :func:`np.partition` top-k cut on demand, station ids decoded for the
  kept candidates only, and a deterministic order by ``-demand`` and a
  pair key that sorts as ``(src name, dst name)``;
* :func:`route_flow_table` -- stage 3 as gather ops: the step's route
  tables (indexed by station id) are walked for *every* flow in a single
  batched layer walk straight into one ragged ``(offsets, links)`` buffer
  in table order, the edge-list row of every hop of every path -- no
  per-source loop, no scatter pass, and no node rows, which nothing
  downstream reads.  The simulator's tables are
  :class:`~repro.network.backends.GatewayRouteTables`: one multi-source
  Dijkstra from the satellites the stations link to, each flow walked on
  its best gateway's tree when a uniqueness certificate proves that is the
  station-sourced path, and the sources of the other flows solved exactly
  by :class:`~repro.network.backends.RouteTables`.  Either kind has the
  same ``paths`` method and gives the same bits;
  :func:`reroute_flows` re-walks a subset of an already routed table on
  other tables and splices the new paths in;
* :meth:`RoutedFlowTable.compact` -- stage 4 input: the reachable slice of
  the ragged hop edge rows feeds
  :func:`repro.network.alloc_arrays.compile_system_from_rows` directly,
  which numbers the links without sorting or searching any hop;
* :class:`FlowPlan` -- the demand-independent part of stages 2-4, kept so
  that scenarios differing only in demand multiplier share it:
  :func:`plan_flows` selects once, and :meth:`FlowPlan.scaled` rescales the
  demand with the same elementwise product selection would have used.
  The plan also carries its station-pair telemetry keys
  (:class:`~repro.network.telemetry.KeyBatch`), so every user's store
  sums its scaled demand over keys consolidated and hashed once.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..demand.traffic_matrix import TrafficMatrix
from .backends import GatewayRouteTables, NodeIndex, RouteTables

if TYPE_CHECKING:
    from .alloc_arrays import FlowLinkSystem
    from .telemetry import KeyBatch

__all__ = [
    "FlowTable",
    "RoutedFlowTable",
    "FlowPlan",
    "plan_flows",
    "station_rows",
    "route_flow_table",
    "reroute_flows",
]


@dataclass(frozen=True)
class FlowTable:
    """One step's selected flows in columnar (structure-of-arrays) form.

    Row ``i`` is the flow from station ``station_names[src[i]]`` to
    ``station_names[dst[i]]`` with demand ``demand[i]`` [Gbps], rows ordered
    by the deterministic selection key ``(-demand, src name, dst name)``.
    """

    station_names: tuple[str, ...]
    #: Source station ids (rows into ``station_names``), shape ``(F,)``.
    src: np.ndarray = field(compare=False)
    #: Destination station ids, shape ``(F,)``.
    dst: np.ndarray = field(compare=False)
    #: Per-flow demand [Gbps], shape ``(F,)``.
    demand: np.ndarray = field(compare=False)

    @property
    def flow_count(self) -> int:
        return len(self.demand)

    @property
    def nbytes(self) -> int:
        """Bytes held by the columnar flow arrays (station names excluded)."""
        return int(self.src.nbytes + self.dst.nbytes + self.demand.nbytes)


@dataclass(frozen=True)
class RoutedFlowTable:
    """A :class:`FlowTable` plus its routing outcome as ragged hop arrays.

    Flow ``i`` of ``table`` crosses the edge-list rows
    ``path_links[path_offsets[i]:path_offsets[i + 1]]``, one per hop, in
    order from its source (:class:`~repro.network.backends.Paths`).  An
    unreachable flow has an empty segment and ``inf`` latency; so would a
    zero-hop one, with latency 0.
    """

    table: FlowTable
    #: Whether each flow found a route, shape ``(F,)``.
    reachable: np.ndarray = field(compare=False)
    #: Per-flow path latency [ms] (``inf`` when unreachable), shape ``(F,)``.
    latency_ms: np.ndarray = field(compare=False)
    #: Ragged path index, shape ``(F + 1,)``.
    path_offsets: np.ndarray = field(compare=False)
    #: Concatenated edge-list rows of every flow's hops.
    path_links: np.ndarray = field(compare=False)
    #: Sources the walk that produced the latest paths solved exactly
    #: (:attr:`~repro.network.backends.Paths.exact_sources`).
    exact_sources: int = field(compare=False)

    @property
    def nbytes(self) -> int:
        """Bytes held by the table plus its ragged routing arrays."""
        return int(
            self.table.nbytes
            + self.reachable.nbytes
            + self.latency_ms.nbytes
            + self.path_offsets.nbytes
            + self.path_links.nbytes
        )

    def compact(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(demand, offsets, links)`` of the reachable flows only.

        Unreachable segments are empty, so the links buffer is shared as-is;
        only the demand vector and offsets are re-indexed.  This triple is
        the direct input of
        :func:`repro.network.alloc_arrays.compile_system_from_rows`.
        """
        reachable = self.reachable
        lengths = np.diff(self.path_offsets)[reachable]
        offsets = np.zeros(lengths.size + 1, dtype=np.intp)
        np.cumsum(lengths, out=offsets[1:])
        return self.table.demand[reachable], offsets, self.path_links


class FlowPlan(NamedTuple):
    """One step's flows with the work that does not depend on demand scale.

    ``table`` is the selection of :func:`plan_flows`.  ``routed`` (its
    paths) and ``system`` (their compiled incidence, ``None`` when no flow
    is reachable) are attached by whoever routes the plan, and
    ``pair_keys`` by whoever keeps its telemetry.  None of them changes
    when every demand is multiplied by the same positive factor, *except*
    where the product rounds two different demands to one value:
    :meth:`scaled` detects exactly that case.
    """

    table: FlowTable
    #: Largest demand the budget left out that is strictly below the last
    #: selected one (``None`` when the budget cut nothing).
    boundary: "float | None"
    routed: "RoutedFlowTable | None" = None
    system: "FlowLinkSystem | None" = None
    #: The table's station-pair telemetry keys, consolidated and hashed
    #: once for every user of the plan; attached by the step kernel only
    #: when a user keeps telemetry.
    pair_keys: "KeyBatch | None" = None

    def scaled(self, multiplier: float) -> "FlowPlan | None":
        """This plan with every demand multiplied by ``multiplier``.

        The products are the ones :func:`plan_flows` computes with
        ``demand_multiplier=multiplier``, so the result's table equals
        selecting on the scaled matrix bit for bit -- provided scaling
        keeps the selection's order.  A positive product is monotone but
        may round two adjacent demands to the same value, which the name
        tie-break could then reorder or swap across the budget.  So every
        strictly ordered adjacent pair of the selection, and the last
        selected demand against :attr:`boundary`, must stay distinct (if
        those do, every pair does); otherwise this returns ``None`` and the
        caller must select on the scaled demand itself.
        O(flows); paths, incidence and :attr:`pair_keys` (the stations
        of every flow are unchanged) are shared, not copied.
        """
        if multiplier == 1.0:
            return self
        unscaled = self.table.demand
        demand = unscaled * multiplier
        if np.any((unscaled[:-1] != unscaled[1:]) & (demand[:-1] == demand[1:])):
            return None
        boundary = self.boundary
        if boundary is not None:
            boundary = boundary * multiplier
            if unscaled.size and demand[-1] == boundary:
                return None
        table = replace(self.table, demand=demand)
        return self._replace(
            table=table,
            boundary=boundary,
            routed=None if self.routed is None else replace(self.routed, table=table),
            system=(
                None
                if self.system is None
                else replace(self.system, demand=self.system.demand * multiplier)
            ),
        )


def _count(name: str, value: "int | None", minimum: int = 1) -> "int | None":
    """Validate a count (a flow budget, a worker count) as an ``int``.

    ``bool`` and non-integral values (``2.5``, and ``3.0`` too) are
    rejected here, naming ``name``, rather than failing later mid-sweep
    (inside the selection's partition, or the process pool), as are values
    below ``minimum``; numpy integers are accepted.  ``None`` passes
    through.
    """
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        bound = "positive" if minimum == 1 else f"at least {minimum}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return int(value)


def plan_flows(
    matrix: TrafficMatrix,
    station_names: tuple[str, ...],
    flows_per_step: "int | None",
    demand_multiplier: float = 1.0,
) -> FlowPlan:
    """Columnar stage 2: filter, scale and budget one step's flows.

    ``flows_per_step=None`` selects every positive entry ("all flows" mode);
    ``0`` selects none, and a negative, non-integral or ``bool`` budget
    raises ``ValueError``.  The matrix's entries arrive as flat codes
    (:meth:`~repro.demand.traffic_matrix.TrafficMatrix.entry_codes`).  With
    a budget the top-k cut runs first: an :func:`np.partition` finds the
    k-th largest demand, and every candidate at or above it is kept, ties
    included; only the kept candidates are decoded into station ids.  They
    are ordered by ``-demand`` and then a pair key, ``rank(src) * n +
    rank(dst)`` over the names' sorted ranks, which is unique per pair and
    sorts as ``(src name, dst name)``, in one two-key ``np.lexsort``: the
    boundary is decided by that deterministic order, never by matrix
    iteration order.  Returns an unrouted :class:`FlowPlan` that also
    records the largest demand the cut left out below the k-th value.
    """
    flows_per_step = _count("flows_per_step", flows_per_step, minimum=0)
    ids, codes, demand = matrix.entry_codes(station_names)
    if demand_multiplier != 1.0:
        demand = demand * demand_multiplier
    boundary = None
    if flows_per_step is not None and 0 < flows_per_step < codes.size:
        cut = codes.size - flows_per_step
        threshold = np.partition(demand, cut)[cut]  # the k-th largest demand
        # Everyone above the k-th value is in; ties *at* the value are kept
        # for the ordering below to cut deterministically.
        above = demand >= threshold
        if not above.all():
            boundary = float(np.where(above, -np.inf, demand).max())
            codes = codes[above]
            demand = demand[above]
    rows, columns = np.divmod(codes, ids.size)
    src, dst = ids[rows], ids[columns]
    # Rank of each station id in name order, so integer keys reproduce
    # string comparisons of the names.
    size = len(station_names)
    name_rank = np.empty(size, dtype=np.int64)
    name_rank[np.argsort(np.asarray(station_names, dtype=object))] = np.arange(size)
    pair_key = name_rank[src] * size + name_rank[dst]
    order = np.lexsort((pair_key, -demand))
    if flows_per_step is not None:
        order = order[:flows_per_step]
    table = FlowTable(
        station_names=tuple(station_names),
        src=src[order],
        dst=dst[order],
        demand=demand[order],
    )
    return FlowPlan(table=table, boundary=boundary)


def station_rows(node_index: NodeIndex, station_names: tuple[str, ...]) -> np.ndarray:
    """Snapshot row of every station, indexed by station id.

    Station ``i`` (``station_names[i]``) is the node ``"gs:<name>"``; a
    station absent from the snapshot gets row ``-1``, which routes nowhere.
    """
    return np.array(
        [
            -1 if (row := node_index.index_of(f"gs:{name}")) is None else row
            for name in station_names
        ],
        dtype=np.intp,
    )


def route_flow_table(
    tables: "RouteTables | GatewayRouteTables",
    station_rows: np.ndarray,
    table: FlowTable,
) -> RoutedFlowTable:
    """Columnar stage 3: route every flow in one batched predecessor walk.

    ``tables`` holds one row per station id (a station that no flow starts
    at may have a negative, unsolved row), and ``station_rows`` maps station
    ids to snapshot rows (:func:`station_rows`).  The walk's output is
    already in table order; flows from or to a station absent from the
    snapshot are unreachable.
    """
    paths = tables.paths(table.src, station_rows[table.dst])
    return RoutedFlowTable(
        table=table,
        reachable=np.isfinite(paths.latency_ms),
        latency_ms=paths.latency_ms,
        path_offsets=paths.offsets,
        path_links=paths.links,
        exact_sources=paths.exact_sources,
    )


def reroute_flows(
    routed: RoutedFlowTable,
    tables: "RouteTables | GatewayRouteTables",
    station_rows: np.ndarray,
    flows: np.ndarray,
) -> RoutedFlowTable:
    """``routed`` with the flows ``flows`` re-walked on ``tables``.

    ``flows`` are flow indices of ``routed.table``; they are walked in one
    batched layer walk, as :func:`route_flow_table` walks a whole table, and
    their new hop segments replace the old ones in the ragged hop buffer.
    Every other flow keeps its path and latency, so the result equals
    walking the whole table on ``tables`` wherever those tables route the
    other flows the same way.  ``tables`` needs rows only for the sources
    of ``flows``.
    """
    table = routed.table
    paths = tables.paths(table.src[flows], station_rows[table.dst[flows]])
    lengths = np.diff(routed.path_offsets)
    lengths[flows] = np.diff(paths.offsets)
    # Start of every segment in the old buffer followed by the new one.
    starts = routed.path_offsets[:-1].copy()
    starts[flows] = routed.path_links.size + paths.offsets[:-1]
    path_offsets = np.zeros(lengths.size + 1, dtype=np.intp)
    np.cumsum(lengths, out=path_offsets[1:])
    gather = np.repeat(starts - path_offsets[:-1], lengths) + np.arange(
        path_offsets[-1]
    )
    latency_ms = routed.latency_ms.copy()
    latency_ms[flows] = paths.latency_ms
    return RoutedFlowTable(
        table=table,
        reachable=np.isfinite(latency_ms),
        latency_ms=latency_ms,
        path_offsets=path_offsets,
        path_links=np.concatenate([routed.path_links, paths.links])[gather],
        exact_sources=paths.exact_sources,
    )
