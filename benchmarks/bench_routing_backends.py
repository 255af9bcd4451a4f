"""Benchmark: array-native ``csgraph`` routing backend vs the ``networkx`` reference.

PR 2 made snapshot-graph construction cached and incremental, which left the
per-step shortest-path searches over ``networkx`` adjacency dicts as the
dominant cost of every sweep.  The ``csgraph`` backend routes on the
snapshot sequence's CSR edge arrays instead: one compiled multi-source
:func:`scipy.sparse.csgraph.dijkstra` call covers every ground station of a
step, and paths are reconstructed lazily from the predecessor matrix.

This benchmark times the **per-step routing stage** -- snapshot-view
production (incrementally updated graph vs CSR export) plus the batched
all-stations route-table computation -- over a 24-hour, 360-satellite
sequence for both backends, asserts the latency tables agree, and asserts
the ``csgraph`` backend clears the speedup floor (>= 3x at full size).  The
simulator itself only routes with ``csgraph``; whole-sweep timings live in
the end-to-end benchmark (``e2ebench``).

Run ``pytest benchmarks/bench_routing_backends.py`` (add ``--smoke`` for the
small CI configuration, ``--benchmark-json=BENCH_routing_backends.json`` to
record the result).
"""

from __future__ import annotations

import time

import numpy as np

from repro.coverage.walker import WalkerDelta
from repro.demand.traffic_matrix import City
from repro.network.ground_station import GroundStation
from repro.network.routing import SnapshotRouter
from repro.network.topology import ConstellationTopology
from repro.orbits.time import Epoch, epoch_range

CITIES = (
    City("London", 51.5, -0.1, 9.6),
    City("New York", 40.7, -74.0, 20.0),
    City("Tokyo", 35.7, 139.7, 37.0),
    City("Sao Paulo", -23.6, -46.6, 22.0),
    City("Delhi", 28.6, 77.2, 32.0),
    City("Lagos", 6.5, 3.4, 15.0),
)

def _walker_topology(epoch: Epoch, satellites: int, planes: int) -> ConstellationTopology:
    wd = WalkerDelta(
        altitude_km=560.0,
        inclination_deg=65.0,
        total_satellites=satellites,
        planes=planes,
        phasing=1,
    )
    elements = wd.satellite_elements()
    per_plane = wd.satellites_per_plane
    return ConstellationTopology(
        planes=[elements[i * per_plane : (i + 1) * per_plane] for i in range(wd.planes)],
        epoch=epoch,
    )


def _station_pair_latencies(tables, sources) -> list[float]:
    """Flatten every station-to-station latency of one step, fixed order."""
    latencies = []
    for source in sources:
        table = tables[source]
        for destination in sources:
            if destination == source:
                continue
            route = table.get(destination)
            latencies.append(route.latency_ms if route is not None else float("inf"))
    return latencies


def _run_comparison(smoke: bool):
    epoch = Epoch.from_calendar(2025, 3, 20, 12, 0, 0.0)
    satellites, planes = (120, 8) if smoke else (360, 18)
    duration_hours = 6.0 if smoke else 24.0
    topology = _walker_topology(epoch, satellites, planes)
    stations = [GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in CITIES]
    epochs = epoch_range(epoch, duration_hours * 3600.0, 3600.0)
    sequence = topology.snapshot_sequence(epochs, stations)
    sources = [f"gs:{station.name}" for station in stations]

    # Warm both code paths (numpy dispatch, networkx decorators, scipy import).
    warm_graph = next(sequence.graphs(copy=True))
    SnapshotRouter(warm_graph).routes_from_many(sources)
    SnapshotRouter(backend="csgraph", arrays=sequence.edge_arrays(0)).routes_from_many(
        sources
    )

    # Per-step routing stage, networkx: incrementally updated graph stream
    # plus one single-source Dijkstra per station per step.
    begin = time.perf_counter()
    networkx_latencies = []
    for graph in sequence.graphs(copy=False):
        tables = SnapshotRouter(graph).routes_from_many(sources)
        networkx_latencies.extend(_station_pair_latencies(tables, sources))
    networkx_s = time.perf_counter() - begin

    # Per-step routing stage, csgraph: CSR export plus one compiled
    # multi-source Dijkstra per step, lazy path reconstruction.
    begin = time.perf_counter()
    csgraph_latencies = []
    for step in range(len(sequence)):
        router = SnapshotRouter(backend="csgraph", arrays=sequence.edge_arrays(step))
        tables = router.routes_from_many(sources)
        csgraph_latencies.extend(_station_pair_latencies(tables, sources))
    csgraph_s = time.perf_counter() - begin

    reference = np.array(networkx_latencies)
    candidate = np.array(csgraph_latencies)
    reachable = np.isfinite(reference)
    equivalent = bool(
        np.array_equal(reachable, np.isfinite(candidate))
        and np.allclose(reference[reachable], candidate[reachable], atol=1e-9)
    )

    return {
        "satellites": satellites,
        "steps": len(epochs),
        "station_pairs": len(sources) * (len(sources) - 1),
        "networkx_s": networkx_s,
        "csgraph_s": csgraph_s,
        "routing_speedup": networkx_s / csgraph_s,
        "equivalent": equivalent,
    }


def test_routing_backend_speedup(benchmark, once, smoke):
    routing_floor = 1.5 if smoke else 3.0

    stats = once(benchmark, _run_comparison, smoke)
    benchmark.extra_info.update(
        {
            key: stats[key]
            for key in (
                "satellites",
                "steps",
                "station_pairs",
                "networkx_s",
                "csgraph_s",
                "routing_speedup",
                "equivalent",
            )
        }
    )

    print(
        f"\n{stats['satellites']} satellites, {stats['steps']} steps, "
        f"{stats['station_pairs']} station pairs per step:"
    )
    print(
        f"  routing stage: networkx {stats['networkx_s']*1e3:.0f} ms vs "
        f"csgraph {stats['csgraph_s']*1e3:.0f} ms "
        f"-> {stats['routing_speedup']:.1f}x"
    )

    assert stats["equivalent"], "backends must agree on every station-pair latency"
    assert stats["routing_speedup"] >= routing_floor
