"""Benchmark: scenario-sweep engine against the seed's monolithic run loop.

Before this engine existed, every traffic scenario paid the full simulation
stack from scratch: per-step scalar propagation, a fresh ``nx.Graph`` built
edge by edge in Python, per-scenario routing and a fresh gravity matrix per
step.  The sweep engine amortises one batched propagation, one vectorised
feasibility pass, incrementally updated snapshot graphs, shared per-step
Dijkstra results and a 24-hour traffic-matrix cache across all scenarios.

This benchmark times a 4-scenario sweep three ways --

* ``monolithic``: four seed-style independent runs (the pre-engine cost);
* ``independent``: four independent ``NetworkSimulator.run`` calls on the
  new engine (what a user who ignores ``run_scenarios`` pays today);
* ``sweep``: one ``run_scenarios`` call

-- asserts the sweep beats the monolithic baseline by the speedup floor,
asserts sweep results are *identical* to the independent new-engine runs,
and separately measures the incremental snapshot-graph reuse against
per-step full rebuilds.

Run ``pytest benchmarks/bench_scenario_sweep.py`` (add ``--smoke`` for the
small CI configuration).
"""

from __future__ import annotations

import time

import networkx as nx
import numpy as np

from repro.coverage.walker import WalkerDelta
from repro.demand.traffic_matrix import City, GravityTrafficModel
from repro.network.backends import SnapshotEdgeList
from repro.network.ground_station import GroundStation, visible_satellites
from repro.network.isl import isl_feasible, propagation_delay_ms
from repro.network.simulation import (
    NetworkSimulator,
    Scenario,
    SimulationResult,
    _evaluate_step,
    _ScenarioSpec,
)
from repro.network.topology import ConstellationTopology
from repro.orbits.time import Epoch, epoch_range, step_count

CITIES = (
    City("London", 51.5, -0.1, 9.6),
    City("New York", 40.7, -74.0, 20.0),
    City("Tokyo", 35.7, 139.7, 37.0),
    City("Sao Paulo", -23.6, -46.6, 22.0),
    City("Delhi", 28.6, 77.2, 32.0),
    City("Lagos", 6.5, 3.4, 15.0),
)

SCENARIOS = [
    Scenario(name="baseline"),
    Scenario(name="peak_demand", demand_multiplier=2.0),
    Scenario(name="max_min", allocator="max_min_array"),
    Scenario(name="flow_budget", flows_per_step=8),
]


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


# -- seed baseline (kept for timing only) ---------------------------------------
#
# A faithful reconstruction of the pre-engine simulation step: the graph is
# rebuilt from nothing with per-edge Python feasibility calls, inter-plane
# links scan only plane p -> p+1 (the seed's asymmetric-link bug, retained so
# the baseline times exactly what the seed executed), and nothing is cached
# between steps or scenarios.  Its *results* therefore differ slightly from
# the engine's (the engine also links each satellite to its nearest neighbour
# in the previous plane); correctness equivalence is asserted against
# independent runs of the new engine instead.


def _seed_graph_from_positions(topology, positions, ground_stations):
    graph = nx.Graph()
    for node in topology.nodes:
        graph.add_node(
            node.node_id, plane=node.plane_index, slot=node.slot_index, kind="satellite"
        )

    def add_edge(a, b, distance):
        graph.add_edge(
            a,
            b,
            distance_km=distance,
            delay_ms=propagation_delay_ms(distance),
            capacity_gbps=topology.isl_config.capacity_gbps,
        )

    offset = 0
    for plane in topology.planes:
        count = len(plane)
        for slot in range(count):
            if count < 2:
                break
            a = offset + slot
            b = offset + (slot + 1) % count
            if count == 2 and graph.has_edge(a, b):
                continue
            if isl_feasible(positions[a], positions[b], topology.isl_config):
                add_edge(a, b, float(np.linalg.norm(positions[a] - positions[b])))
        offset += count

    plane_offsets = []
    offset = 0
    for plane in topology.planes:
        plane_offsets.append(offset)
        offset += len(plane)
    for plane_index in range(topology.plane_count):
        next_plane = (plane_index + 1) % topology.plane_count
        if next_plane == plane_index:
            continue
        start_a = plane_offsets[plane_index]
        start_b = plane_offsets[next_plane]
        positions_b = positions[start_b : start_b + len(topology.planes[next_plane])]
        for slot_a in range(len(topology.planes[plane_index])):
            a = start_a + slot_a
            distances = np.linalg.norm(positions_b - positions[a], axis=1)
            b_local = int(np.argmin(distances))
            b = start_b + b_local
            if isl_feasible(positions[a], positions[b], topology.isl_config):
                add_edge(a, b, float(distances[b_local]))

    for station in ground_stations:
        gs_node = f"gs:{station.name}"
        graph.add_node(
            gs_node,
            kind="ground",
            latitude_deg=station.latitude_deg,
            longitude_deg=station.longitude_deg,
        )
        for sat_index in visible_satellites(station, positions):
            add_edge(
                gs_node,
                int(sat_index),
                float(np.linalg.norm(positions[sat_index] - station.position_ecef_km())),
            )
    return graph


def _edge_list_from_graph(graph) -> SnapshotEdgeList:
    """Flatten a snapshot graph into the edge list the step kernel consumes."""
    labels = tuple(graph.nodes)
    rows = {label: row for row, label in enumerate(labels)}
    edges = list(graph.edges(data=True))
    column = lambda key: np.array([data[key] for _, _, data in edges], dtype=float)
    return SnapshotEdgeList(
        labels=labels,
        a=np.array([rows[a] for a, _, _ in edges], dtype=np.intp),
        b=np.array([rows[b] for _, b, _ in edges], dtype=np.intp),
        distance_km=column("distance_km"),
        delay_ms=column("delay_ms"),
        capacity_gbps=column("capacity_gbps"),
    )


def _seed_monolithic_run(simulator, scenario, start, duration_hours, step_hours):
    """The seed's run() loop: rebuild graph and matrix every step, no sharing."""
    spec = _ScenarioSpec(
        scenario=scenario,
        station_names=tuple(station.name for station in simulator.ground_stations),
        flows_per_step=scenario.flows_per_step or simulator.flows_per_step,
        group=0,
    )
    result = SimulationResult()
    for index in range(step_count(duration_hours, step_hours)):
        at = start.add_seconds(index * step_hours * 3600.0)
        utc_hour = (start.fraction_of_day() * 24.0 + index * step_hours) % 24.0
        matrix = simulator.traffic_model.matrix_at(utc_hour)
        positions = simulator.topology.positions_ecef_km(at)
        graph = _seed_graph_from_positions(
            simulator.topology, positions, simulator.ground_stations
        )
        ((stats, _, _),) = _evaluate_step(
            index, utc_hour, matrix, {0: _edge_list_from_graph(graph)}, [spec], {}, {}
        )
        result.steps.append(stats)
    return result


# -- the comparison --------------------------------------------------------------


def _run_comparison(smoke: bool):
    epoch = Epoch.from_calendar(2025, 3, 20, 12, 0, 0.0)
    satellites, planes = (180, 10) if smoke else (576, 24)
    duration_hours = 6.0 if smoke else 24.0
    topology = _walker_topology(epoch, satellites, planes)
    stations = [GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in CITIES]
    model = GravityTrafficModel(cities=CITIES, total_demand=60.0)
    simulator = NetworkSimulator(
        topology=topology, ground_stations=stations, traffic_model=model, flows_per_step=12
    )

    # Warm both code paths (numpy dispatch, networkx decorators).
    simulator.run_scenarios(SCENARIOS, epoch, duration_hours=1.0)
    _seed_monolithic_run(simulator, SCENARIOS[0], epoch, 1.0, 1.0)

    begin = time.perf_counter()
    monolithic = {
        scenario.name: _seed_monolithic_run(
            simulator, scenario, epoch, duration_hours, 1.0
        )
        for scenario in SCENARIOS
    }
    monolithic_s = time.perf_counter() - begin

    begin = time.perf_counter()
    independent = {
        "baseline": simulator.run(epoch, duration_hours),
        "peak_demand": simulator.run_scenarios(
            [SCENARIOS[1]], epoch, duration_hours
        )["peak_demand"],
        "max_min": simulator.run(epoch, duration_hours, allocator="max_min_array"),
        "flow_budget": NetworkSimulator(
            topology=topology,
            ground_stations=stations,
            traffic_model=model,
            flows_per_step=SCENARIOS[3].flows_per_step,
        ).run(epoch, duration_hours),
    }
    independent_s = time.perf_counter() - begin

    begin = time.perf_counter()
    sweep = simulator.run_scenarios(SCENARIOS, epoch, duration_hours)
    sweep_s = time.perf_counter() - begin

    identical = all(
        sweep[name].steps == independent[name].steps for name in independent
    )

    # Incremental snapshot reuse vs rebuilding each step's graph from nothing.
    epochs = epoch_range(epoch, duration_hours * 3600.0, 3600.0)
    begin = time.perf_counter()
    for _ in topology.snapshot_sequence(epochs, stations).graphs(copy=False):
        pass
    incremental_s = time.perf_counter() - begin
    begin = time.perf_counter()
    for at in epochs:
        topology.snapshot_graph(at, stations)
    rebuild_s = time.perf_counter() - begin

    return {
        "satellites": satellites,
        "steps": len(epochs),
        "scenarios": len(SCENARIOS),
        "monolithic_s": monolithic_s,
        "independent_s": independent_s,
        "sweep_s": sweep_s,
        "sweep_speedup": monolithic_s / sweep_s,
        "independent_speedup": independent_s / sweep_s,
        "identical": identical,
        "rebuild_s": rebuild_s,
        "incremental_s": incremental_s,
        "incremental_speedup": rebuild_s / incremental_s,
        "monolithic_delivery": {
            name: result.mean_delivery_ratio() for name, result in monolithic.items()
        },
        "sweep_delivery": {
            name: result.mean_delivery_ratio() for name, result in sweep.items()
        },
    }


def test_scenario_sweep_speedup(benchmark, once, smoke):
    sweep_floor = 2.0 if smoke else 5.0
    incremental_floor = 1.1 if smoke else 1.2

    stats = once(benchmark, _run_comparison, smoke)
    benchmark.extra_info.update(
        {
            key: stats[key]
            for key in (
                "satellites",
                "steps",
                "scenarios",
                "sweep_speedup",
                "independent_speedup",
                "incremental_speedup",
            )
        }
    )

    print(
        f"\n{stats['satellites']} satellites, {stats['steps']} steps, "
        f"{stats['scenarios']} scenarios:"
    )
    print(
        f"  seed monolithic runs: {stats['monolithic_s']:.2f} s, "
        f"independent engine runs: {stats['independent_s']:.2f} s, "
        f"sweep: {stats['sweep_s']:.2f} s"
    )
    print(
        f"  sweep speedup: {stats['sweep_speedup']:.1f}x vs seed, "
        f"{stats['independent_speedup']:.1f}x vs independent engine runs"
    )
    print(
        f"  snapshot graphs: rebuild {stats['rebuild_s']*1e3:.0f} ms vs incremental "
        f"{stats['incremental_s']*1e3:.0f} ms -> {stats['incremental_speedup']:.1f}x"
    )
    for name in stats["sweep_delivery"]:
        print(
            f"  {name}: delivery {stats['sweep_delivery'][name]:.3f} "
            f"(seed baseline {stats['monolithic_delivery'][name]:.3f})"
        )

    assert stats["identical"], "sweep results must match independent engine runs"
    assert stats["sweep_speedup"] >= sweep_floor
    assert stats["independent_speedup"] > 1.0
    assert stats["incremental_speedup"] >= incremental_floor
