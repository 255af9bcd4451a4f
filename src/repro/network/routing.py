"""Routing over constellation topologies.

Two routing modes are provided, matching how the Section 5 research questions
would be explored:

* **snapshot routing** -- shortest (lowest-latency) paths on one topology
  snapshot, the classic approach of LEO networking studies;
* **time-aware routing** -- paths computed on a sequence of snapshots so that
  predictable coverage gaps and handoffs of an SS-plane constellation can be
  planned for in advance rather than reacted to.

Both modes sit on the cached snapshot-sequence engine of
:mod:`repro.network.topology` and delegate the shortest-path kernel to a
pluggable :class:`~repro.network.backends.RoutingBackend`: the default
``"networkx"`` backend reproduces the classic per-graph Dijkstra exactly,
while ``"csgraph"`` routes on the sequence's zero-copy CSR edge arrays with
one compiled multi-source :func:`scipy.sparse.csgraph.dijkstra` call per
snapshot -- same routes, a fraction of the per-step cost.  Backends are
selected by registry name (:data:`repro.network.backends.BACKENDS`) or by
instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from ..orbits.time import Epoch, epoch_range
from .backends import (
    EdgeArrays,
    RouteResult,
    RoutingBackend,
    edge_arrays_from_graph,
    get_backend,
    graph_from_edge_arrays,
)
from .ground_station import GroundStation
from .topology import ConstellationTopology

__all__ = ["RouteResult", "SnapshotRouter", "TimeAwareRouter"]


@dataclass
class SnapshotRouter:
    """Lowest-latency routing on a single topology snapshot.

    The router is the *snapshot view* handed to routing backends: it holds
    the graph form, the CSR edge-array form, or both, and lazily derives the
    missing one on demand, so every backend works however the snapshot was
    supplied.  Snapshot-sequence consumers should pass the sequence's own
    :meth:`~repro.network.topology.SnapshotSequence.edge_arrays` export when
    using an array-native backend -- deriving arrays from a graph falls back
    to per-edge Python iteration.

    Attributes
    ----------
    graph:
        Snapshot graph with ``delay_ms`` edge attributes (optional if
        ``arrays`` is given).
    backend:
        Routing backend instance or registry name (default ``"networkx"``).
    arrays:
        CSR edge arrays of the same snapshot (optional if ``graph`` is
        given).
    """

    graph: nx.Graph | None = None
    backend: str | RoutingBackend = "networkx"
    arrays: EdgeArrays | None = None

    def __post_init__(self) -> None:
        self.backend = get_backend(self.backend)
        if self.graph is None and self.arrays is None:
            raise ValueError("SnapshotRouter requires a graph or edge arrays")

    # -- snapshot views ----------------------------------------------------------

    def nx_graph(self) -> nx.Graph:
        """Return the graph view, building it from the arrays if needed."""
        if self.graph is None:
            self.graph = graph_from_edge_arrays(self.arrays)
        return self.graph

    def edge_arrays(self) -> EdgeArrays:
        """Return the CSR view, building it from the graph if needed."""
        if self.arrays is None:
            self.arrays = edge_arrays_from_graph(self.graph)
        return self.arrays

    # -- routing queries ---------------------------------------------------------

    def route(self, source: int | str, destination: int | str) -> RouteResult:
        """Return the minimum-delay route between two nodes."""
        return self.backend.route(self, source, destination)

    def routes_from(self, source: int | str) -> dict[int | str, RouteResult]:
        """Return minimum-delay routes from ``source`` to every reachable node.

        One single-source search covers all destinations, so callers that
        route many flows out of the same node (the simulator's per-station
        fan-out) pay one search instead of one per flow.  Unreachable nodes
        are simply absent from the result, which may be a lazily
        materialising mapping rather than a plain dict.
        """
        return self.backend.routes_from(self, source)

    def routes_from_many(
        self, sources: list[int | str]
    ) -> dict[int | str, dict[int | str, RouteResult]]:
        """Batched :meth:`routes_from`: one table per requested source.

        Array-native backends fuse the batch into a single compiled
        multi-source search -- the fast path of the simulator's routing
        stage.
        """
        return self.backend.routes_from_many(self, sources)

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
    backend:
        Routing backend (instance or registry name) used by
        :meth:`route_over_time`; array-native backends route straight on the
        sequence's CSR exports.
    """

    topology: ConstellationTopology
    ground_stations: list[GroundStation] = field(default_factory=list)
    step_s: float = 60.0
    backend: str | RoutingBackend = "networkx"

    def _epochs(self, start: Epoch, duration_s: float) -> list[Epoch]:
        if duration_s <= 0 or self.step_s <= 0:
            raise ValueError("duration_s and step_s must be positive")
        return epoch_range(start, duration_s, self.step_s)

    def snapshots(self, start: Epoch, duration_s: float) -> list[tuple[Epoch, nx.Graph]]:
        """Return (epoch, graph) snapshots covering ``duration_s`` from ``start``.

        The number of snapshots is computed as an exact integer count (so
        ``duration_s=1.0, step_s=0.1`` yields 10 snapshots, not 11), and the
        whole window shares one snapshot sequence: one batched propagation,
        one vectorised feasibility pass.  Each returned graph is independent.
        """
        epochs = self._epochs(start, duration_s)
        sequence = self.topology.snapshot_sequence(epochs, self.ground_stations)
        return list(zip(epochs, sequence.graphs(copy=True)))

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
        evaluation streams over the incrementally updated snapshot graph (or,
        with an array-native backend, over the sequence's per-step CSR
        exports), so no per-step graph copies are made.
        """
        epochs = self._epochs(start, duration_s)
        sequence = self.topology.snapshot_sequence(epochs, self.ground_stations)
        backend = get_backend(self.backend)
        results = []
        if backend.uses_arrays:
            # Array-native backends never read the graph view; skip the
            # incremental graph stream entirely.
            for step, epoch in enumerate(epochs):
                router = SnapshotRouter(
                    backend=backend, arrays=sequence.edge_arrays(step)
                )
                results.append(
                    (epoch, router.route_between_stations(source, destination))
                )
        else:
            for epoch, graph in zip(epochs, sequence.graphs(copy=False)):
                router = SnapshotRouter(graph, backend=backend)
                results.append(
                    (epoch, router.route_between_stations(source, destination))
                )
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
