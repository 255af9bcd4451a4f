"""Benchmark: array-native capacity allocators vs the dict references.

PR 3/4 made routing and fault masking array-native, which left stage 4 --
capacity allocation over per-flow python dicts -- as the dominant
pure-python cost of congested sweeps.  The ``"*_array"`` allocators
(:mod:`repro.network.alloc_arrays`) compile each step's routed flows into a
sparse (flow x link) incidence system straight from the csgraph backend's
row-index paths and run the same progressive-filling fixed point as numpy
mask/`bincount` operations.

This benchmark times the **per-step allocation stage** -- allocator calls
over identical flow sets routed once with the ``csgraph`` backend -- for
the dict and array implementations of both policies over a congested
24-hour, 360-satellite scenario (demand far above capacity, so max-min
runs deep freeze cascades), asserts the allocations agree within 1e-9, and
asserts the array max-min clears the speedup floor (>= 3x at full size).
The simulator itself only runs the array solvers; whole-sweep timings live
in the end-to-end benchmark (``e2ebench``).

Run ``pytest benchmarks/bench_allocators.py`` (add ``--smoke`` for the
small CI configuration, ``--benchmark-json=BENCH_allocators.json`` to
record the result).
"""

from __future__ import annotations

import time

from repro.coverage.walker import WalkerDelta
from repro.demand.traffic_matrix import City, GravityTrafficModel
from repro.network.capacity import Flow, get_allocator
from repro.network.flows import select_flow_table
from repro.network.routing import SnapshotRouter
from repro.network.ground_station import GroundStation
from repro.network.topology import ConstellationTopology
from repro.orbits.time import Epoch, epoch_range

CITIES = (
    City("London", 51.5, -0.1, 9.6),
    City("New York", 40.7, -74.0, 20.0),
    City("Tokyo", 35.7, 139.7, 37.0),
    City("Sao Paulo", -23.6, -46.6, 22.0),
    City("Delhi", 28.6, 77.2, 32.0),
    City("Lagos", 6.5, 3.4, 15.0),
    City("Sydney", -33.9, 151.2, 5.3),
    City("Johannesburg", -26.2, 28.0, 6.0),
    City("Frankfurt", 50.1, 8.7, 5.6),
    City("Singapore", 1.35, 103.8, 5.9),
    City("Los Angeles", 34.1, -118.2, 12.5),
    City("Santiago", -33.4, -70.7, 6.2),
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


def _allocations_close(reference, candidate, tolerance: float = 1e-9) -> bool:
    if set(reference.allocated_gbps) != set(candidate.allocated_gbps):
        return False
    return all(
        abs(candidate.allocated_gbps[name] - rate) <= tolerance
        for name, rate in reference.allocated_gbps.items()
    )


def _run_comparison(smoke: bool):
    epoch = Epoch.from_calendar(2025, 3, 20, 12, 0, 0.0)
    satellites, planes = (120, 8) if smoke else (360, 18)
    duration_hours = 6.0 if smoke else 24.0
    flows_per_step = 60 if smoke else 120
    topology = _walker_topology(epoch, satellites, planes)
    stations = [GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in CITIES]
    # Demand far above link capacity: every step runs a deep progressive
    # filling with long freeze cascades -- the congested regime the array
    # formulation exists for.
    model = GravityTrafficModel(cities=CITIES, total_demand=4000.0)
    epochs = epoch_range(epoch, duration_hours * 3600.0, 3600.0)
    sequence = topology.snapshot_sequence(epochs, stations)

    # Stage inputs: per-step flows routed once over the csgraph backend
    # (row-index paths), plus the graph / edge-list pair the dict and array
    # allocators read their capacities from.
    table = select_flow_table(
        model.matrix_at(12.0), tuple(station.name for station in stations), flows_per_step
    )
    names = table.station_names
    pairs = [
        (f"gs:{names[src]}", f"gs:{names[dst]}", demand)
        for src, dst, demand in zip(
            table.src.tolist(), table.dst.tolist(), table.demand.tolist()
        )
    ]
    step_flows = []
    step_edge_lists = []
    for step in range(len(sequence)):
        edge_list = sequence.edge_list(step)
        router = SnapshotRouter(backend="csgraph", arrays=edge_list.arrays())
        routes = router.routes_from_many(list(dict.fromkeys(src for src, _, _ in pairs)))
        step_flows.append(
            [
                Flow(f"{src}->{dst}", route.path, demand, path_rows=route.path_rows)
                for src, dst, demand in pairs
                if (route := routes[src].get(dst)) is not None
            ]
        )
        step_edge_lists.append(edge_list)
    step_graphs = list(sequence.graphs(copy=True))

    policies = ("proportional", "max_min")
    # The smoke problem finishes in single-digit milliseconds; repeating
    # the (deterministic) stage keeps the measured ratio out of timer
    # noise without changing what is measured.
    repetitions = 5 if smoke else 1
    stage_seconds: dict[str, float] = {}
    equivalent = True
    for policy in policies:
        reference_allocator = get_allocator(policy)
        array_allocator = get_allocator(f"{policy}_array")
        # Warm both implementations (numpy dispatch, registry imports).
        reference_allocator(step_graphs[0], step_flows[0])
        array_allocator(step_edge_lists[0], step_flows[0])

        begin = time.perf_counter()
        for _ in range(repetitions):
            reference_results = [
                reference_allocator(graph, flows)
                for graph, flows in zip(step_graphs, step_flows)
            ]
        stage_seconds[policy] = (time.perf_counter() - begin) / repetitions

        begin = time.perf_counter()
        for _ in range(repetitions):
            array_results = [
                array_allocator(edge_list, flows)
                for edge_list, flows in zip(step_edge_lists, step_flows)
            ]
        stage_seconds[f"{policy}_array"] = (time.perf_counter() - begin) / repetitions

        equivalent = equivalent and all(
            _allocations_close(reference, candidate)
            for reference, candidate in zip(reference_results, array_results)
        )

    return {
        "satellites": satellites,
        "steps": len(epochs),
        "flows_per_step": flows_per_step,
        "proportional_s": stage_seconds["proportional"],
        "proportional_array_s": stage_seconds["proportional_array"],
        "proportional_speedup": (
            stage_seconds["proportional"] / stage_seconds["proportional_array"]
        ),
        "max_min_s": stage_seconds["max_min"],
        "max_min_array_s": stage_seconds["max_min_array"],
        "max_min_speedup": stage_seconds["max_min"] / stage_seconds["max_min_array"],
        "equivalent": equivalent,
    }


def test_allocator_speedup(benchmark, once, smoke):
    allocation_floor = 1.3 if smoke else 3.0

    stats = once(benchmark, _run_comparison, smoke)
    benchmark.extra_info.update(
        {
            key: stats[key]
            for key in (
                "satellites",
                "steps",
                "flows_per_step",
                "proportional_s",
                "proportional_array_s",
                "proportional_speedup",
                "max_min_s",
                "max_min_array_s",
                "max_min_speedup",
                "equivalent",
            )
        }
    )

    print(
        f"\n{stats['satellites']} satellites, {stats['steps']} steps, "
        f"{stats['flows_per_step']} congested flows per step:"
    )
    print(
        f"  max-min stage: dict {stats['max_min_s']*1e3:.0f} ms vs "
        f"array {stats['max_min_array_s']*1e3:.0f} ms "
        f"-> {stats['max_min_speedup']:.1f}x"
    )
    print(
        f"  proportional stage: dict {stats['proportional_s']*1e3:.0f} ms vs "
        f"array {stats['proportional_array_s']*1e3:.0f} ms "
        f"-> {stats['proportional_speedup']:.1f}x"
    )

    assert stats["equivalent"], "allocators must agree on every step's rates"
    assert stats["max_min_speedup"] >= allocation_floor
