"""Capacity allocation over a (flow x link) incidence matrix.

A step's routed flows are compiled into the sparse incidence form of the
allocation problem, and both policies -- proportional scaling (every flow
gets the same fraction of its demand, set by the most congested link) and
progressive-filling max-min fairness -- run as whole-array numpy fixed
points over it:

* ``demand`` -- per-flow demand vector, shape ``(F,)``;
* ``capacity`` -- per-link capacity vector, shape ``(L,)``, one entry per
  distinct undirected link any flow traverses;
* the 0/1 incidence matrix ``A`` of shape ``(F, L)`` (``A[f, l] = 1`` iff
  flow ``f`` traverses link ``l``), held in COO form as the parallel index
  arrays ``flow_ids`` / ``link_ids`` -- one entry per traversal.

Proportional scaling is a few sparse matrix-vector products: link loads
are ``A.T @ rates`` (``np.bincount`` over ``link_ids`` weighted by
``rates[flow_ids]``) and "flows touching a starved link" is
``A @ starved > 0``.  Flows routed over a zero-capacity link are allocated
zero (rather than dragging every other flow's scale to zero), and the link
is reported saturated.

Max-min progressive filling grows all unfrozen rates by the largest uniform
increment any constraint allows -- a flow's remaining demand, or a link's
remaining headroom split over its unfrozen flows -- and freezes the binding
constraint (flow at demand, or every flow of a saturated link).  It runs as
incremental waterfilling: all unfrozen flows share one water level, so each
link keeps its frozen load and active-flow count, updated only from the
incidence rows of flows as they freeze (through flow->link and link->flow
CSR indexes built per solve).  At least one flow freezes per round, so no
iteration cap is needed.  Most rounds only freeze flows whose demand is
met; the solver replays each run of them between two link events as a
scalar level recurrence and freezes the run's flows in one vectorised
pass, so a Python-level pass costs O(links + entries of the flows it
freezes) and a step of a few thousand flows takes tens of passes rather
than hundreds of rounds, with rates bit-identical to round-by-round
filling.

There is one compile, :func:`compile_system_from_rows`: ragged paths in
the columnar engine's layout, the edge-list row of every hop that the
route walk recorded, become the incidence directly.  The distinct links
are numbered in link-code order through the edge list's sorted link
table, with one mark and one running count over its links; no hop is
sorted or searched.  The simulator calls the solver cores through
:data:`ARRAY_SOLVERS`, the table of allocator names a
:class:`~repro.network.simulation.Scenario` accepts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from ..obs import NULL_TRACER, Tracer
from .backends import SnapshotEdgeList

__all__ = [
    "FlowLinkSystem",
    "compile_system_from_rows",
    "ARRAY_SOLVERS",
]


@dataclass(frozen=True, eq=False)
class FlowLinkSystem:
    """One allocation problem in compiled (flow x link) incidence form.

    Flows and links are identified by position only; the solvers return
    per-flow rate and per-link utilisation vectors in that order.
    Instances compare by identity: array fields have no single truth value.
    """

    #: Per-flow demand vector, shape ``(F,)``.
    demand: np.ndarray
    #: Per-link capacity vector, shape ``(L,)``.
    capacity: np.ndarray
    #: COO rows of the incidence matrix: flow of each traversal, ``(nnz,)``.
    flow_ids: np.ndarray
    #: COO columns of the incidence matrix: link of each traversal, ``(nnz,)``.
    link_ids: np.ndarray
    #: Edge-list row of every link: ``link_rows[l]`` is the row of link
    #: ``l`` in the snapshot's :class:`SnapshotEdgeList`, letting per-link
    #: outputs scatter straight into link-index order for feedback
    #: consumers (congestion steering, link telemetry) with no label
    #: round-trip.
    link_rows: np.ndarray

    def __post_init__(self) -> None:
        # NaN or negative demand and capacity would allocate silently
        # wrong rates (and break the demand order max-min relies on);
        # zero capacity stays legal: it marks a dead link.
        for name in ("demand", "capacity"):
            values = getattr(self, name)
            if values.size and not (values.min() >= 0.0 and values.max() < np.inf):
                index = int(np.flatnonzero(~(np.isfinite(values) & (values >= 0.0)))[0])
                raise ValueError(
                    f"{name}[{index}] = {float(values[index])!r} must be finite and >= 0"
                )
        if len(self.flow_ids) != len(self.link_ids):
            raise ValueError(
                f"flow_ids and link_ids must have equal length, got "
                f"{len(self.flow_ids)} and {len(self.link_ids)}"
            )
        for name, size in (("flow_ids", self.flow_count), ("link_ids", self.link_count)):
            ids = getattr(self, name)
            if ids.size and not (ids.min() >= 0 and ids.max() < size):
                index = int(np.flatnonzero((ids < 0) | (ids >= size))[0])
                raise ValueError(
                    f"{name}[{index}] = {int(ids[index])} is out of range for {size} "
                    f"{name.partition('_')[0]}s"
                )

    @property
    def flow_count(self) -> int:
        return len(self.demand)

    @property
    def link_count(self) -> int:
        return len(self.capacity)

    @property
    def nbytes(self) -> int:
        """Bytes held by the compiled incidence arrays.

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

    def flow_totals(self, link_values: np.ndarray) -> np.ndarray:
        """Return the per-flow path sums ``A @ link_values``, shape ``(F,)``.

        Each flow's sum runs hop by hop from its source, so per-link delays
        read back as path latencies (a flow without hops reads 0.0).
        """
        return np.bincount(
            self.flow_ids, weights=link_values[self.link_ids], minlength=self.flow_count
        )

    def flows_touching(self, link_mask: np.ndarray) -> np.ndarray:
        """Return the boolean flow mask ``A @ link_mask > 0``, shape ``(F,)``."""
        return self.flow_totals(link_mask.astype(float)) > 0

    def link_utilisation_array(
        self, utilisation: np.ndarray, edge_count: int
    ) -> np.ndarray:
        """Scatter a per-system-link vector into edge-list link order.

        Links no flow traverses read 0.0.
        """
        out = np.zeros(edge_count)
        out[self.link_rows] = utilisation
        return out


def compile_system_from_rows(
    edge_list: SnapshotEdgeList,
    demand: np.ndarray,
    offsets: np.ndarray,
    links: np.ndarray,
) -> FlowLinkSystem:
    """Compile ragged edge-row paths into the incidence form of their allocation.

    Flow ``i`` demands ``demand[i]`` and crosses the edge-list rows
    ``links[offsets[i]:offsets[i + 1]]``, one per hop in order from its
    source, as :attr:`~repro.network.flows.RoutedFlowTable.path_links`
    holds them.  Empty segments -- unreachable or zero-hop flows --
    contribute no traversals.  The distinct links are numbered in ascending
    link-code order, read from the edge list's
    :attr:`~repro.network.backends.SnapshotEdgeList.link_lookup` with one
    mark and one running count over its links, so no hop is sorted or
    searched.  A hop without a link (a negative or out-of-range edge row)
    raises :class:`ValueError` naming the flow's index.
    """
    demand = np.asarray(demand, dtype=float)
    offsets = np.asarray(offsets, dtype=np.intp)
    links = np.asarray(links, dtype=np.intp)
    if offsets.size != demand.size + 1:
        raise ValueError("offsets must have one entry more than demand")
    if offsets[-1] != links.size:
        raise ValueError(f"offsets end at {int(offsets[-1])}, not at {links.size} hops")
    flow_ids = np.repeat(np.arange(demand.size, dtype=np.intp), np.diff(offsets))
    edge_count = edge_list.a.size
    if links.size and not (0 <= links.min() and links.max() < edge_count):
        missing = (links < 0) | (links >= edge_count)
        flow = int(flow_ids[np.flatnonzero(missing)[0]])
        raise ValueError(f"flow {flow} uses a link not present in the snapshot")
    order = edge_list.link_lookup[1]
    used = np.zeros(edge_count, dtype=bool)
    used[links] = True
    in_order = used[order]
    column = np.empty(edge_count, dtype=np.intp)
    column[order] = np.cumsum(in_order) - 1
    link_rows = order[in_order]
    return FlowLinkSystem(
        demand=demand,
        capacity=edge_list.capacity_gbps[link_rows].astype(float),
        flow_ids=flow_ids,
        link_ids=column[links],
        link_rows=link_rows,
    )


def _solve_proportional(
    system: FlowLinkSystem, obs: Tracer = NULL_TRACER
) -> tuple[np.ndarray, np.ndarray]:
    """Proportional-scaling fixed point; returns ``(rates, utilisation)``.

    ``obs`` completes the solver table's common signature; one fixed pass
    has no work to count.
    """
    demand, capacity = system.demand, system.capacity
    load = system.link_loads(demand)
    starved_links = (capacity <= 0.0) & (load > 0.0)
    # With no starved link no flow touches one; skip the incidence pass.
    starved_flows = np.zeros(system.flow_count, dtype=bool)
    if starved_links.any():
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
    in the original entry order (the sort is stable).  Keys are sorted in
    the narrowest unsigned type that holds them: numpy radix-sorts 16-bit
    keys, several times faster than its stable sort of ``intp``.
    """
    ptr = np.zeros(size + 1, dtype=np.intp)
    np.cumsum(np.bincount(keys, minlength=size), out=ptr[1:])
    narrow = keys.astype(np.min_scalar_type(max(size - 1, 0)), copy=False)
    return ptr, values[np.argsort(narrow, kind="stable")]


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


def _replay_demand_rounds(
    sorted_demand: list[float],
    satisfied: list[float],
    starts: list[int],
    level: float,
    limit: float,
    budget: int,
) -> tuple[list[float], list[int]]:
    """Replay a span of demand-bound rounds as a scalar level recurrence.

    ``sorted_demand`` and ``satisfied`` (demand less the 1e-9 freeze
    tolerance) are in demand order; ``starts`` lists, ascending, the
    demand-order positions of the active flows the span may reach.  A
    round's head is the first of them at or past the previous round's
    reach: the level rises by the head's remaining demand, clamped as in a
    single round, and the active flows in ``[head, reach)`` freeze at it.
    The replay stops before a round whose level would not stay below
    ``limit``, before one that freezes nothing (rounding left the level
    short of the head's tolerance, which a single round resolves), and
    after ``budget`` rounds.  Returns each replayed round's level and reach.
    """
    levels: list[float] = []
    reaches: list[int] = []
    index = 0
    while index < len(starts) and len(levels) < budget:
        head = starts[index]
        increment = sorted_demand[head] - level
        if increment <= 1e-12:
            increment = 0.0
        if not level + increment < limit:
            break
        reach = bisect_right(satisfied, level + increment, head)
        if reach == head:
            break
        level = level + increment
        levels.append(level)
        reaches.append(reach)
        index = bisect_left(starts, reach, index)
    return levels, reaches


def _solve_max_min(
    system: FlowLinkSystem,
    iterations: "int | None" = None,
    obs: Tracer = NULL_TRACER,
) -> tuple[np.ndarray, np.ndarray]:
    """Max-min waterfilling fixed point; returns ``(rates, utilisation)``.

    Every active flow holds the same rate, the water ``level`` (all start at
    0 and take the same increments), so a link's load is its ``frozen_load``
    plus ``active_count * level``.  Both per-link quantities change only when
    flows freeze and are updated from those flows' incidence rows alone; the
    smallest active demand is a cursor over the demand-sorted flows, and a
    saturated link's flows are gathered once (its active count then drops
    to 0).

    Most rounds only freeze flows whose demand is met.  When a pass finds
    the binding constraint is a demand, no link can bind or saturate until
    the level passes ``level + share_min`` (the least link share now), less
    a margin for the 1e-9 saturation tolerance and float slack: freezing a
    flow only slows its links' load growth.  The rounds below that limit
    are replayed as a scalar level recurrence
    (:func:`_replay_demand_rounds`) and their flows frozen in one
    vectorised pass, adding each (round, link) ``count * level`` into
    ``frozen_load`` in round order through the unbuffered ``np.add.at``.
    Link-bound rounds, and the round at a span's boundary, run one per
    pass.  Every float operation happens in the same order as in the
    round-by-round loop, so rates and utilisation are bit-identical to it.
    A pass costs O(links + entries of the flows it freezes) plus a few
    scalar operations per replayed round.

    ``iterations`` caps the number of rounds (replayed rounds included); the
    default ``None`` runs to the fixed point.  ``obs`` counts the rounds
    (``waterfill_rounds``) and the passes that ran them
    (``waterfill_passes``).
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
    sorted_demand = demand[by_demand]
    # ``demand - 1e-9`` is monotone in ``demand``, so the flows a level
    # satisfies form a prefix of ``by_demand``: one searchsorted per round.
    satisfied_at = sorted_demand - 1e-9
    demand_list, satisfied_list = sorted_demand.tolist(), satisfied_at.tolist()
    # Span limits stay this far below the least link share: the 1e-9
    # saturation tolerance plus rounding in the shares and the
    # ``frozen_load`` sums, which grows with the capacities' magnitude.
    margin = 4e-9 + 1e-10 * float(capacity.max(initial=0.0))
    active_by_demand = active[by_demand]
    active_total = int(np.count_nonzero(active))
    head = 0  # no active flow sorts before ``by_demand[head]``
    level = 0.0
    # Every round freezes a flow, so ``flow_count`` rounds reach the fixed point.
    budget = flow_count if iterations is None else iterations
    rounds = passes = 0
    # A pass may run a whole span of rounds; the cap is checked per pass.
    while active_total:
        if rounds >= budget:
            break
        passes += 1
        head += int(active_by_demand[head:].argmax())
        remaining = float(sorted_demand[head] - level)
        increment = remaining
        binding_link: int | None = None
        share_min = float("inf")
        live = active_count.nonzero()[0]
        if live.size:
            counts = active_count[live]
            live_capacity = capacity[live]
            live_frozen = frozen_load[live]
            shares = (live_capacity - (live_frozen + counts * level)) / counts
            candidate = int(shares.argmin())
            share_min = float(shares[candidate])
            if share_min < increment:
                increment = share_min
                binding_link = int(live[candidate])
        if binding_link is None:
            limit = level + share_min - margin
            end = bisect_right(demand_list, limit)
            starts = (np.flatnonzero(active_by_demand[head:end]) + head).tolist()
            levels, reaches = _replay_demand_rounds(
                demand_list, satisfied_list, starts, level, limit, budget - rounds
            )
            if levels:
                stop = reaches[-1]
                positions = np.flatnonzero(active_by_demand[head:stop]) + head
                newly = by_demand[positions]
                round_of = np.searchsorted(reaches, positions, side="right")
                round_levels = np.array(levels)
                rates[newly] = round_levels[round_of]
                active[newly] = False
                active_by_demand[head:stop] = False
                active_total -= newly.size
                links = _gather(flow_ptr, flow_links, newly)
                if links.size:
                    entry_round = round_of.repeat(flow_ptr[newly + 1] - flow_ptr[newly])
                    keys, hits = np.unique(
                        entry_round * link_count + links, return_counts=True
                    )
                    np.add.at(
                        frozen_load,
                        keys % link_count,
                        hits * round_levels[keys // link_count],
                    )
                    active_count -= np.bincount(links, minlength=link_count)
                rounds += len(levels)
                level, head = levels[-1], stop
                continue
        rounds += 1
        if increment <= 1e-12:
            increment = 0.0
        previous, level = level, level + increment
        reach = int(satisfied_at.searchsorted(level, side="right"))
        newly = by_demand[head:reach][active_by_demand[head:reach]]
        if live.size:
            saturated = live[live_frozen + counts * level >= live_capacity - 1e-9]
            if saturated.size:
                on_links = _gather(link_ptr, link_flows, saturated)
                # Neither side is sorted or distinct, so this is a full
                # sort-and-dedup, not the sorted ``backends.merge_codes``.
                newly = np.unique(np.concatenate([newly, on_links[active[on_links]]]))
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
    obs.counter("waterfill_rounds", rounds)
    obs.counter("waterfill_passes", passes)

    utilisation = np.zeros(link_count)
    if link_count:
        load = system.link_loads(rates)
        positive = capacity > 0.0
        utilisation[positive] = load[positive] / capacity[positive]
        # Zero-capacity links with demand trying to cross are saturated,
        # not idle -- the proportional solver's convention.
        utilisation[~positive & (system.link_loads(demand) > 0.0)] = 1.0
    return rates, utilisation


#: Solver cores by allocator name, each ``(system, obs=NULL_TRACER) ->
#: (rates, utilisation)``; ``obs`` receives the solver's work counters.
#: These are the only allocators a :class:`Scenario` accepts.
ARRAY_SOLVERS = {
    "proportional_array": _solve_proportional,
    "max_min_array": _solve_max_min,
}
