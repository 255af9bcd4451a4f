"""Benchmark: closed-loop congestion-steering overhead and payoff.

Steering adds a control plane to every step of an adaptive scenario: a
``steer()`` pass over the edge list, a private per-scenario router (the
shared route tables cannot see per-scenario feedback state), a true-latency
re-read of every routed path against the unsteered ``delay_ms`` column and
an ``observe()`` EWMA/hysteresis update.  All of it is whole-array numpy
over int64 link codes, so the subsystem's acceptance criterion is that an
adaptive sweep stays within **15%** of the open-loop (``"static"``) sweep
at full size.

The payoff half re-runs the committed fault-recovery experiment of
``tests/network/test_steering.py``: under a correlated plane outage plus
zero-capacity link degradation, a sticky congestion-aware policy must
strand measurably less demand than open-loop routing.

Run ``pytest benchmarks/bench_steering.py`` (add ``--smoke`` for the small
CI configuration, ``--benchmark-json=BENCH_steering.json`` to record the
result).
"""

from __future__ import annotations

import time

from repro.coverage.walker import WalkerDelta
from repro.demand.traffic_matrix import City, GravityTrafficModel
from repro.network.ground_station import GroundStation
from repro.network.simulation import NetworkSimulator, Scenario
from repro.network.steering import STEERING_POLICIES, CongestionAwareSteering
from repro.network.topology import ConstellationTopology
from repro.orbits.time import Epoch

CITIES = (
    City("London", 51.5, -0.1, 9.6),
    City("New York", 40.7, -74.0, 20.0),
    City("Tokyo", 35.7, 139.7, 37.0),
    City("Sao Paulo", -23.6, -46.6, 22.0),
    City("Delhi", 28.6, 77.2, 32.0),
    City("Lagos", 6.5, 3.4, 15.0),
)

#: The committed fault-recovery recipe (see TestAdaptiveImprovesFaultSweep).
FAULTS = (
    ("plane_outage", {"count": 1, "seed": 7}),
    ("link_degradation", {"factor": 0.0, "fraction": 0.1, "seed": 3}),
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


def _sweep_seconds(simulator, scenarios, epoch, duration_hours, repeats: int):
    best = float("inf")
    result = None
    for _ in range(repeats):
        begin = time.perf_counter()
        result = simulator.run_scenarios(scenarios, epoch, duration_hours)
        best = min(best, time.perf_counter() - begin)
    return best, result


def _run_comparison(smoke: bool) -> dict:
    epoch = Epoch.from_calendar(2025, 3, 20, 12, 0, 0.0)
    satellites, planes = (120, 8) if smoke else (360, 18)
    duration_hours = 4.0 if smoke else 24.0
    flows_per_step = 20 if smoke else 30
    repeats = 2 if smoke else 3
    topology = _walker_topology(epoch, satellites, planes)
    stations = [GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in CITIES]
    model = GravityTrafficModel(cities=CITIES, total_demand=60.0)
    simulator = NetworkSimulator(
        topology=topology,
        ground_stations=stations,
        traffic_model=model,
        flows_per_step=flows_per_step,
    )

    def scenarios(steering: str):
        return [
            Scenario(
                name="sweep",
                allocator="proportional_array",
                faults=FAULTS,
                steering=steering,
            )
        ]

    # Warm both paths (snapshot sequence, scipy import, numpy dispatch).
    _sweep_seconds(simulator, scenarios("static"), epoch, duration_hours, 1)
    _sweep_seconds(simulator, scenarios("congestion-aware"), epoch, duration_hours, 1)

    static_s, _ = _sweep_seconds(
        simulator, scenarios("static"), epoch, duration_hours, repeats
    )
    adaptive_s, _ = _sweep_seconds(
        simulator, scenarios("congestion-aware"), epoch, duration_hours, repeats
    )
    overhead = adaptive_s / static_s - 1.0

    # Payoff: the sticky variant of the committed improvement test.  The
    # default hysteresis forgets a dead link two steps after routing away
    # from it; the sticky variant (instant engagement, no decay-driven
    # disengagement) accumulates the dead-region map across the run.
    sticky = CongestionAwareSteering(
        alpha=0.9, enter_band=0.5, exit_band=0.0, cooldown_steps=0, penalty=12.0
    )
    STEERING_POLICIES["sticky-congestion"] = sticky
    try:
        recovery_hours = duration_hours if smoke else 10.0
        _, static_run = _sweep_seconds(
            simulator, scenarios("static"), epoch, recovery_hours, 1
        )
        _, sticky_run = _sweep_seconds(
            simulator, scenarios("sticky-congestion"), epoch, recovery_hours, 1
        )
    finally:
        del STEERING_POLICIES["sticky-congestion"]
    static_stranded = static_run["sweep"].mean_stranded_gbps()
    sticky_stranded = sticky_run["sweep"].mean_stranded_gbps()
    reroutes = sum(s.steering_reroutes for s in sticky_run["sweep"].steps)

    # One instrumented adaptive sweep attributes the wall clock to pipeline
    # stages -- the steering row is the control plane's absolute cost, the
    # same quantity the overhead ratio above bounds relatively.
    traced = simulator.run_scenarios(
        scenarios("congestion-aware"),
        epoch,
        duration_hours,
        instrument=True,
    )

    return {
        "stage_breakdown": traced["sweep"].metrics.stage_summary(),
        "satellites": satellites,
        "steps": int(duration_hours),
        "flows_per_step": flows_per_step,
        "static_sweep_s": static_s,
        "adaptive_sweep_s": adaptive_s,
        "steering_overhead_fraction": overhead,
        "static_mean_stranded_gbps": static_stranded,
        "sticky_mean_stranded_gbps": sticky_stranded,
        "stranded_reduction_fraction": (
            1.0 - sticky_stranded / static_stranded if static_stranded > 0.0 else 0.0
        ),
        "sticky_reroutes": reroutes,
    }


def test_steering_overhead(benchmark, once, smoke):
    # The control plane is a handful of O(E)/O(path) numpy passes per step;
    # at full size it must stay under 15% of the open-loop sweep.  The
    # smoke ceiling is looser: tiny problems leave the constant-cost parts
    # a larger relative share and CI machines are noisy.
    overhead_ceiling = 0.60 if smoke else 0.15

    stats = once(benchmark, _run_comparison, smoke)
    benchmark.extra_info.update(stats)

    print(
        f"\n{stats['satellites']} satellites, {stats['steps']} steps, "
        f"{len(CITIES)} stations, {stats['flows_per_step']} flows/step:"
    )
    print(
        f"  sweep: static {stats['static_sweep_s']:.2f} s vs "
        f"congestion-aware {stats['adaptive_sweep_s']:.2f} s "
        f"-> +{stats['steering_overhead_fraction']*100.0:.1f}%"
    )
    print(
        f"  fault recovery: stranded {stats['static_mean_stranded_gbps']:.2f} "
        f"-> {stats['sticky_mean_stranded_gbps']:.2f} Gbps "
        f"(-{stats['stranded_reduction_fraction']*100.0:.1f}%, "
        f"{stats['sticky_reroutes']} reroutes)"
    )
    for stage, row in stats["stage_breakdown"].items():
        print(
            f"  {stage:<14} {row['seconds']*1e3:8.1f} ms  ({row['share']:.0%})"
        )

    assert stats["steering_overhead_fraction"] < overhead_ceiling
    assert stats["sticky_mean_stranded_gbps"] < stats["static_mean_stranded_gbps"]
