"""Benchmark: fault-mask application overhead on the routing stage.

The fault subsystem applies compiled per-step outage masks on top of
:class:`~repro.network.topology.SnapshotSequence`'s precomputed feasibility
tensors -- one extra vectorised boolean pass per step, no per-edge Python
work.  This benchmark quantifies that claim: it times the per-step routing
stage (CSR export plus the batched all-stations ``csgraph`` route tables)
over a 24-hour, 360-satellite sequence twice -- healthy and under a
mild fault schedule (fractional link degradation plus a correlated plane
outage, chosen so the network stays routable and the Dijkstra cost stays
comparable) -- and asserts the masked run adds **less than 10%** overhead
at full size.

It also runs a fixed-seed fault sweep (radiation-driven failures plus the
plane outage) through the serial and process executors and asserts the
results are bit-identical -- the determinism half of the subsystem's
acceptance criterion -- recording everything in ``BENCH_fault_sweep.json``.

Run ``pytest benchmarks/bench_fault_sweep.py`` (add ``--smoke`` for the
small CI configuration, ``--benchmark-json=BENCH_fault_sweep.json`` to
record the result).
"""

from __future__ import annotations

import time

from repro.coverage.walker import WalkerDelta
from repro.demand.traffic_matrix import City, GravityTrafficModel
from repro.network.faults import FaultContext, FaultSpec, compile_faults
from repro.network.ground_station import GroundStation
from repro.network.routing import SnapshotRouter
from repro.network.simulation import NetworkSimulator, Scenario
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

#: Masks for the routing-stage overhead measurement: most edges survive, so
#: the shortest-path work stays comparable and the delta is mask application.
MASK_SPECS = (
    FaultSpec("link_degradation", {"fraction": 0.3, "factor": 0.5, "seed": 5}),
    FaultSpec("plane_outage", {"count": 1, "seed": 5}),
)

SWEEP_SCENARIOS = [
    Scenario(name="healthy"),
    Scenario(
        name="radiation_plane",
        faults=[
            ("radiation", {"base_rate": 0.03, "exposure_step_s": 300.0, "seed": 3}),
            ("plane_outage", {"count": 2, "start_step": 4, "duration_steps": 6, "seed": 7}),
        ],
    ),
    Scenario(
        name="degraded",
        faults=("link_degradation", {"fraction": 0.3, "factor": 0.5, "seed": 5}),
    ),
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


def _routing_stage_seconds(sequence, sources, schedule, repeats: int) -> float:
    """Time the per-step routing stage (CSR export + batched route tables)."""
    best = float("inf")
    for _ in range(repeats):
        begin = time.perf_counter()
        for step in range(len(sequence)):
            router = SnapshotRouter(
                backend="csgraph",
                arrays=sequence.edge_arrays(step, faults=schedule),
            )
            tables = router.routes_from_many(sources)
            for source in sources:
                # Touch one route per table so lazy reconstruction runs.
                next(iter(tables[source].items()), None)
        best = min(best, time.perf_counter() - begin)
    return best


def _run_comparison(smoke: bool) -> dict:
    epoch = Epoch.from_calendar(2025, 3, 20, 12, 0, 0.0)
    satellites, planes = (120, 8) if smoke else (360, 18)
    duration_hours = 6.0 if smoke else 24.0
    repeats = 2 if smoke else 3
    topology = _walker_topology(epoch, satellites, planes)
    stations = [GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in CITIES]
    epochs = epoch_range(epoch, duration_hours * 3600.0, 3600.0)
    sequence = topology.snapshot_sequence(epochs, stations)
    sources = [f"gs:{station.name}" for station in stations]

    context = FaultContext(
        topology, epochs, tuple(station.name for station in stations)
    )
    schedule = compile_faults(MASK_SPECS, context)

    # Warm both paths (scipy import, numpy dispatch, schedule label cache).
    _routing_stage_seconds(sequence, sources, None, 1)
    _routing_stage_seconds(sequence, sources, schedule, 1)

    healthy_s = _routing_stage_seconds(sequence, sources, None, repeats)
    masked_s = _routing_stage_seconds(sequence, sources, schedule, repeats)
    overhead = masked_s / healthy_s - 1.0

    # Determinism across executors: the same fixed-seed fault sweep must be
    # bit-identical on the serial path and the process pool.
    model = GravityTrafficModel(cities=CITIES, total_demand=60.0)
    simulator = NetworkSimulator(
        topology=topology, ground_stations=stations, traffic_model=model, flows_per_step=12
    )
    begin = time.perf_counter()
    serial = simulator.run_scenarios(SWEEP_SCENARIOS, epoch, duration_hours)
    sweep_serial_s = time.perf_counter() - begin
    begin = time.perf_counter()
    pooled = simulator.run_scenarios(
        SWEEP_SCENARIOS,
        epoch,
        duration_hours,
        max_workers=2,
        executor="process",
    )
    sweep_process_s = time.perf_counter() - begin
    executors_identical = all(
        serial[name].steps == pooled[name].steps for name in serial
    )
    healthy_result = serial["healthy"]
    faulted_result = serial["radiation_plane"]

    return {
        "satellites": satellites,
        "steps": len(epochs),
        "healthy_routing_s": healthy_s,
        "masked_routing_s": masked_s,
        "mask_overhead_fraction": overhead,
        "sweep_serial_s": sweep_serial_s,
        "sweep_process_s": sweep_process_s,
        "executors_identical": executors_identical,
        "healthy_availability": healthy_result.availability(0.5),
        "faulted_availability": faulted_result.availability(0.5),
        "faulted_mean_stranded_gbps": faulted_result.mean_stranded_gbps(),
        "faulted_latency_stretch": faulted_result.latency_stretch(healthy_result),
        "faulted_time_to_recover_steps": faulted_result.time_to_recover_steps(
            healthy_result
        ),
    }


def test_fault_mask_overhead(benchmark, once, smoke):
    # Mask application is a vectorised boolean pass over precomputed
    # tensors; at full size it must stay under 10% of the routing stage.
    # The smoke floor is looser: tiny problems leave the masks a larger
    # relative share and CI machines are noisy.
    overhead_ceiling = 0.35 if smoke else 0.10

    stats = once(benchmark, _run_comparison, smoke)
    benchmark.extra_info.update(stats)

    print(
        f"\n{stats['satellites']} satellites, {stats['steps']} steps, "
        f"{len(CITIES)} stations:"
    )
    print(
        f"  routing stage: healthy {stats['healthy_routing_s']*1e3:.0f} ms vs "
        f"masked {stats['masked_routing_s']*1e3:.0f} ms "
        f"-> +{stats['mask_overhead_fraction']*100.0:.1f}%"
    )
    print(
        f"  3-scenario fault sweep: serial {stats['sweep_serial_s']:.2f} s, "
        f"process {stats['sweep_process_s']:.2f} s, "
        f"identical={stats['executors_identical']}"
    )
    print(
        f"  resilience: availability {stats['healthy_availability']:.2f} -> "
        f"{stats['faulted_availability']:.2f}, stranded "
        f"{stats['faulted_mean_stranded_gbps']:.2f} Gbps, stretch "
        f"{stats['faulted_latency_stretch']:.3f}, recover "
        f"{stats['faulted_time_to_recover_steps']} steps"
    )

    assert stats["executors_identical"], "fault sweep must not depend on the executor"
    assert stats["mask_overhead_fraction"] < overhead_ceiling
