"""Per-flow reference implementations used as test oracles.

The simulator selects flows as whole-array numpy
(:func:`repro.network.flows.select_flow_table`); these plain-Python
versions spell the same contract out one flow at a time, so tests can
check the columnar code against an implementation simple enough to trust
by reading.
"""

from __future__ import annotations

from repro.demand.traffic_matrix import TrafficMatrix
from repro.network.flows import FlowTable


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
