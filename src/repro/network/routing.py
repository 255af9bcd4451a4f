"""Routing over constellation topologies.

Two routing modes are provided, matching how the Section 5 research questions
would be explored:

* **snapshot routing** -- shortest (lowest-latency) paths on one topology
  snapshot, the classic approach of LEO networking studies;
* **time-aware routing** -- paths computed on a sequence of snapshots so that
  predictable coverage gaps and handoffs of an SS-plane constellation can be
  planned for in advance rather than reacted to.

Both modes sit on the cached snapshot-sequence engine of
:mod:`repro.network.topology` and route with one compiled multi-source
:func:`scipy.sparse.csgraph.dijkstra` over the snapshot's CSR edge arrays
(:class:`~repro.network.backends.RouteTables`).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from ..orbits.time import Epoch, epoch_range
from .backends import EdgeArrays, RouteResult, RouteTables, _PredecessorRoutes
from .ground_station import GroundStation
from .topology import ConstellationTopology

__all__ = ["RouteResult", "SnapshotRouter", "TimeAwareRouter"]


@dataclass
class SnapshotRouter:
    """Lowest-latency routing on a single topology snapshot.

    Every query runs one :meth:`~repro.network.backends.RouteTables.solve`
    over the snapshot's CSR edge arrays, usually a snapshot sequence's
    :meth:`~repro.network.topology.SnapshotSequence.edge_arrays` export.

    Attributes
    ----------
    arrays:
        CSR edge arrays of the snapshot, weighted by ``delay_ms``.  Every
        weight must be finite and non-negative: csgraph reports a NaN
        weight's destinations unreachable and never returns on a negative
        one, so construction rejects both, naming the edge.
    """

    arrays: EdgeArrays

    def __post_init__(self) -> None:
        weights = self.arrays.weights
        bad = np.flatnonzero(~(np.isfinite(weights) & (weights >= 0.0)))
        if bad.size:
            # CSR entries are row-major and symmetric, so the first bad entry
            # is its link's lower-row direction.
            position = int(bad[0])
            row = int(np.searchsorted(self.arrays.indptr, position, side="right")) - 1
            label_of = self.arrays.node_index.label_of
            u, v = label_of(row), label_of(int(self.arrays.indices[position]))
            raise ValueError(
                f"edge ({u!r}, {v!r}) has delay_ms={float(weights[position])!r}; "
                "every edge needs a finite, non-negative delay_ms"
            )

    def route(self, source: int | str, destination: int | str) -> RouteResult:
        """Return the minimum-delay route between two nodes."""
        result = self.routes_from(source).get(destination)
        return result if result is not None else RouteResult.unreachable()

    def routes_from(self, source: int | str) -> Mapping[int | str, RouteResult]:
        """Return minimum-delay routes from ``source`` to every reachable node.

        One single-source search covers all destinations, so callers that
        route many flows out of the same node pay one search instead of one
        per flow.  Unreachable nodes are absent from the result, a lazily
        materialising mapping; an unknown source maps nothing.
        """
        return self.routes_from_many([source])[source]

    def routes_from_many(
        self, sources: list[int | str]
    ) -> dict[int | str, Mapping[int | str, RouteResult]]:
        """Batched :meth:`routes_from`: one compiled search for every source."""
        node_index = self.arrays.node_index
        rows = [node_index.index_of(source) for source in sources]
        tables = RouteTables.solve(
            self.arrays, [-1 if row is None else row for row in rows]
        )
        return {
            source: {} if row is None else _PredecessorRoutes(tables, index)
            for index, (source, row) in enumerate(zip(sources, rows))
        }

    def route_between_stations(
        self, source: GroundStation, destination: GroundStation
    ) -> RouteResult:
        """Route between two ground stations attached to the snapshot."""
        return self.route(f"gs:{source.name}", f"gs:{destination.name}")


@dataclass
class TimeAwareRouter:
    """Routing over a sequence of topology snapshots.

    Attributes
    ----------
    topology:
        The constellation whose snapshots are routed over.
    ground_stations:
        Stations attached to every snapshot.
    step_s:
        Interval between snapshots.
    """

    topology: ConstellationTopology
    ground_stations: list[GroundStation] = field(default_factory=list)
    step_s: float = 60.0

    def route_over_time(
        self,
        source: GroundStation,
        destination: GroundStation,
        start: Epoch,
        duration_s: float,
    ) -> list[tuple[Epoch, RouteResult]]:
        """Return the best route at every snapshot over a time window.

        The result exposes exactly the quantities a time-aware routing study
        needs: per-instant latency, reachability gaps and path churn.  The
        number of steps is an exact integer count (``duration_s=1.0,
        step_s=0.1`` gives 10, not 11), the whole window shares one snapshot
        sequence, and each step routes on the sequence's CSR export.
        ``source`` and ``destination`` must be among :attr:`ground_stations`
        (matched by name): any other station is attached to no snapshot, so
        it would look unreachable at every step, like a coverage gap.
        """
        if not (0 < duration_s < math.inf and 0 < self.step_s < math.inf):
            raise ValueError("duration_s and step_s must be positive")
        attached = {station.name for station in self.ground_stations}
        for role, station in (("source", source), ("destination", destination)):
            if station.name not in attached:
                raise ValueError(
                    f"{role} station {station.name!r} is not one of the router's "
                    "ground_stations"
                )
        epochs = epoch_range(start, duration_s, self.step_s)
        sequence = self.topology.snapshot_sequence(epochs, self.ground_stations)
        results = []
        for step, epoch in enumerate(epochs):
            router = SnapshotRouter(arrays=sequence.edge_arrays(step))
            results.append((epoch, router.route_between_stations(source, destination)))
        return results

    @staticmethod
    def availability(results: list[tuple[Epoch, RouteResult]]) -> float:
        """Return the fraction of snapshots in which the route existed."""
        if not results:
            raise ValueError("no routing results supplied")
        reachable = sum(1 for _, result in results if result.reachable)
        return reachable / len(results)

    @staticmethod
    def path_changes(results: list[tuple[Epoch, RouteResult]]) -> int:
        """Return how many times the selected path changed between snapshots."""
        changes = 0
        previous: tuple | None = None
        for _, result in results:
            if previous is not None and result.path != previous:
                changes += 1
            previous = result.path
        return changes
