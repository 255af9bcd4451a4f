"""Reference implementations used as test oracles.

The simulator selects flows as whole-array numpy
(:func:`repro.network.flows.select_flow_table`) and routes with csgraph
(:class:`repro.network.backends.RouteTables`); these plain-Python versions
spell the same contracts out one flow, or one networkx search, at a time, so
tests can check the library against implementations simple enough to trust
by reading.
"""

from __future__ import annotations

import networkx as nx

from repro.demand.traffic_matrix import TrafficMatrix
from repro.network.flows import FlowTable
from repro.network.routing import RouteResult


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
