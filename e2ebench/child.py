"""One measured run of one workload, in a fresh interpreter.

``run.py`` starts this script once per measured run, so every run pays the
imports, the input construction and every process-wide cache (the Walker
sizing ``lru_cache``, scipy's lazy imports) the way a user's first call in
a process does.  Usage::

    PYTHONPATH=src python3 e2ebench/child.py <workload> --seed N \\
        --mode untraced|traced --size full|tiny --spawned-at <monotonic s>

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process; ``setup_s`` runs from there to the first timed call.  The last
stdout line is one JSON object: timings, check counts, per-scenario
summaries, exact digests of every step's statistics and, in traced mode,
the per-layer metrics of ``spec.PER_LAYER``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from contextlib import contextmanager

import numpy as np

from repro.core.designer import ConstellationDesigner
from repro.core.greedy_cover import GreedySSPlaneDesigner
from repro.core.metrics import MetricsCalculator
from repro.core.walker_baseline import DemandDrivenWalkerDesigner
from repro.coverage.walker import WalkerDelta
from repro.demand.traffic_matrix import City, GravityTrafficModel
from repro.network.faults import FaultContext, FaultSpec, compile_faults
from repro.network.ground_station import GroundStation
from repro.network.simulation import NetworkSimulator, Scenario
from repro.network.topology import ConstellationTopology
from repro.orbits.time import Epoch, epoch_range
from repro.radiation.exposure import ExposureCalculator

import spec
from run import Checks

#: Total gravity demand of the sweeps [satellite-capacity units].
TOTAL_DEMAND = 4000.0


@contextmanager
def timed(totals: dict, name: str):
    """Add the wall time of the block to ``totals[name]``."""
    begin = time.perf_counter()
    try:
        yield
    finally:
        totals[name] = totals.get(name, 0.0) + time.perf_counter() - begin


# -- network sweeps ------------------------------------------------------------


def synthetic_cities(count: int, seed: int) -> tuple[City, ...]:
    """A world-spanning station set: golden-ratio placement, seeded Pareto weights.

    Latitudes stay within +/-55 degrees, so the 65-degree shell covers every
    station; the seeded weights give the gravity matrix a heavy tail.
    """
    rng = np.random.default_rng(seed)
    golden = (1.0 + 5.0**0.5) / 2.0
    index = np.arange(count)
    latitudes = -55.0 + 110.0 * ((index * golden) % 1.0)
    longitudes = -180.0 + 360.0 * ((index * golden * golden) % 1.0)
    weights = rng.pareto(1.5, size=count) + 1.0
    return tuple(
        City(f"S{i:03d}", float(latitudes[i]), float(longitudes[i]), float(weights[i]))
        for i in range(count)
    )


def fault_specs(seed: int) -> tuple[FaultSpec, ...]:
    """One plane outage plus 10% dead links, their streams derived from ``seed``."""
    outage_seed, link_seed = np.random.default_rng([seed, 1]).integers(0, 2**31, size=2)
    return (
        FaultSpec("plane_outage", {"count": 1, "seed": int(outage_seed)}),
        FaultSpec(
            "link_degradation", {"factor": 0.0, "fraction": 0.1, "seed": int(link_seed)}
        ),
    )


def scenarios_for(workload: str, seed: int) -> list[Scenario]:
    if workload == "sweep-proportional":
        return [
            Scenario(
                name=f"demand-x{multiplier:g}",
                demand_multiplier=multiplier,
                allocator="proportional_array",
                telemetry="sketch",
            )
            for multiplier in spec.PROPORTIONAL_MULTIPLIERS
        ]
    if workload == "sweep-maxmin":
        return [Scenario(name="max-min", allocator="max_min_array")]
    if workload == "sweep-steered-faults":
        faults = fault_specs(seed)
        return [
            Scenario(
                name=policy, allocator="proportional_array", faults=faults, steering=policy
            )
            for policy in spec.STEERING_POLICIES
        ]
    raise ValueError(f"unknown sweep workload {workload!r}")


class SweepInputs:
    """Everything a sweep run is given, built from the seed (the set-up)."""

    start = Epoch.from_calendar(2025, 3, 20, 12, 0, 0.0)

    def __init__(self, workload: str, size: str, seed: int):
        config = spec.SIZES[size]
        self.hours = config["hours"]
        self.cities = synthetic_cities(config["stations"], seed)
        self.stations = [
            GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in self.cities
        ]
        walker = WalkerDelta(
            altitude_km=560.0,
            inclination_deg=65.0,
            total_satellites=config["satellites"],
            planes=config["planes"],
            phasing=1,
        )
        elements = walker.satellite_elements()
        per_plane = walker.satellites_per_plane
        # Building the topology builds its batch propagator.
        self.topology = ConstellationTopology(
            planes=[
                elements[i * per_plane : (i + 1) * per_plane] for i in range(walker.planes)
            ],
            epoch=self.start,
        )
        self.simulator = NetworkSimulator(
            topology=self.topology,
            ground_stations=self.stations,
            traffic_model=GravityTrafficModel(cities=self.cities, total_demand=TOTAL_DEMAND),
            flows_per_step=config["flows"][workload],
        )
        self.scenarios = scenarios_for(workload, seed)

    def run(self, instrument: bool):
        return self.simulator.run_scenarios(
            self.scenarios,
            self.start,
            self.hours,
            backend="csgraph",
            flow_engine="columnar",
            instrument=instrument,
        )


def check_steps(results, steps: int, checks: Checks) -> None:
    """Per step: delivered <= routed <= offered, stranded >= 0, no link over capacity.

    ``StepStatistics`` reports stranded demand as (offered - routed) plus the
    routed demand that got no capacity at all, so ``offered - stranded`` is
    the routed demand the allocator could serve.
    """
    for name, result in results.items():
        checks.expect(
            len(result.steps) == steps, f"{name}: {len(result.steps)} steps, expected {steps}"
        )
        for index, step in enumerate(result.steps):
            tolerance = 1e-9 * max(1.0, step.offered_gbps)
            routed = step.offered_gbps - step.stranded_gbps
            checks.expect(
                step.stranded_gbps >= 0.0
                and 0.0 <= step.delivered_gbps <= routed + tolerance
                and step.worst_link_utilisation <= 1.0 + 1e-9,
                f"{name} step {index}: offered {step.offered_gbps!r}, stranded "
                f"{step.stranded_gbps!r}, delivered {step.delivered_gbps!r}, worst "
                f"utilisation {step.worst_link_utilisation!r}",
            )


def sweep_summary(results) -> tuple[dict, dict]:
    summary = {
        name: {
            "mean_delivery_ratio": result.mean_delivery_ratio(),
            "mean_stranded_gbps": result.mean_stranded_gbps(),
            "mean_latency_ms": result.mean_latency_ms(),
        }
        for name, result in results.items()
    }
    digests = {
        name: hashlib.sha256(repr(result.steps).encode()).hexdigest()
        for name, result in results.items()
    }
    return summary, digests


def sweep_layers(inputs: SweepInputs, results, traced_wall: float) -> dict:
    """Per-layer metrics: in-program spans summed over scenarios, plus outside timers."""
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    for result in results.values():
        metrics = result.metrics
        for index, stage in enumerate(metrics.stages):
            seconds[stage] = seconds.get(stage, 0.0) + float(metrics.stage_seconds[index])
            calls[stage] = calls.get(stage, 0) + int(metrics.stage_calls[index])
        for name, value in metrics.counters.items():
            counters[name] = counters.get(name, 0.0) + value
        for name, value in metrics.gauges.items():
            gauges[name] = max(gauges.get(name, 0.0), value)
    layers = {f"{stage}.s": value for stage, value in seconds.items()}
    spanned = sum(layers[name] for name in spec.STAGE_METRICS)
    selected = counters.get("flows_selected", 0.0)
    layers.update(
        {
            "traced.wall_s": traced_wall,
            "routing.calls": calls["routing"],
            "allocation.calls": calls["allocation"],
            "unattributed.s": traced_wall - spanned,
            "unattributed.frac": (traced_wall - spanned) / traced_wall,
            "flows.selected": selected,
            "flows.routed": counters.get("flows_routed", 0.0),
            "flows.routed_frac": counters.get("flows_routed", 0.0) / selected if selected else 0.0,
            "incidence.bytes": gauges.get("incidence_bytes", 0.0),
            "edge_list.bytes": gauges.get("edge_list_bytes", 0.0),
            "flow_table.bytes": gauges.get("flow_table_bytes", 0.0),
            "telemetry.bytes": gauges.get("telemetry_bytes", 0.0),
            "steering_state.bytes": gauges.get("steering_state_bytes", 0.0),
        }
    )

    # The layers the run does not span, timed from outside through their
    # public calls on the same inputs: traffic matrices for the run's UTC
    # hours on a fresh model, the snapshot sequence, every step's edge-list
    # export and the fault compile.
    outside: dict[str, float] = {}
    epochs = epoch_range(inputs.start, inputs.hours * 3600.0, 3600.0)
    utc_hours = sorted(
        {
            round((inputs.start.fraction_of_day() * 24.0 + index) % 24.0, 9)
            for index in range(len(epochs))
        }
    )
    model = GravityTrafficModel(cities=inputs.cities, total_demand=TOTAL_DEMAND)
    with timed(outside, "demand.matrix.s"):
        for hour in utc_hours:
            model.matrix_at(hour)
    with timed(outside, "topology.sequence.s"):
        sequence = inputs.topology.snapshot_sequence(epochs, inputs.stations)
    names = tuple(station.name for station in inputs.stations)
    schedules = {}
    outside["faults.compile.s"] = 0.0
    for faults in dict.fromkeys(scenario.faults for scenario in inputs.scenarios):
        if faults is None:
            schedules[faults] = None
            continue
        with timed(outside, "faults.compile.s"):
            schedules[faults] = compile_faults(
                faults, FaultContext(inputs.topology, epochs).with_stations(names)
            )
    with timed(outside, "topology.edge_list.s"):
        for schedule in schedules.values():
            for step in range(len(sequence)):
                sequence.edge_list(step, names, faults=schedule)
    layers.update(outside)
    layers["demand.matrix.calls"] = len(utc_hours)
    return layers


def run_sweep(
    workload: str, size: str, seed: int, mode: str, spawned_at: float
) -> tuple[dict, Checks]:
    inputs = SweepInputs(workload, size, seed)
    setup = time.monotonic() - spawned_at
    begin = time.perf_counter()
    results = inputs.run(instrument=mode == "traced")
    wall = time.perf_counter() - begin
    checks = Checks()
    check_steps(results, len(next(iter(results.values())).steps), checks)
    summary, digests = sweep_summary(results)
    output = {"setup_s": setup, "wall_s": wall, "summary": summary, "digests": digests}
    if mode == "traced":
        output["layers"] = sweep_layers(inputs, results, wall)
    return output, checks


# -- design sweep ----------------------------------------------------------------


class CountingExposure(ExposureCalculator):
    """Exposure calculator counting the orbits whose daily fluence it evaluates."""

    orbits = 0

    def daily_fluence(self, *args, **kwargs):
        self.orbits += 1
        return super().daily_fluence(*args, **kwargs)


def outcome_summary(ss, walker) -> dict:
    return {
        "ss_satellites": ss.total_satellites,
        "walker_satellites": walker.total_satellites,
        "ss_planes": ss.plane_count,
        "walker_shells": walker.plane_count,
        "ss_median_electron": ss.median_electron_fluence,
        "ss_median_proton": ss.median_proton_fluence,
        "walker_median_electron": walker.median_electron_fluence,
        "walker_median_proton": walker.median_proton_fluence,
    }


def run_design(size: str, mode: str, spawned_at: float) -> tuple[dict, Checks]:
    """The design sweep; its checks (exact counts, SS beats Walker) run in run.py."""
    multipliers = spec.SIZES[size]["design_multipliers"]
    exposure = CountingExposure() if mode == "traced" else ExposureCalculator()
    designer = ConstellationDesigner(metrics_calculator=MetricsCalculator(exposure=exposure))
    setup = time.monotonic() - spawned_at
    summary = {}
    timers: dict[str, float] = {}
    begin = time.perf_counter()
    if mode == "untraced":
        for multiplier in multipliers:
            ss, walker = designer.design_both(multiplier)
            summary[f"{multiplier:g}"] = outcome_summary(ss.metrics, walker.metrics)
    else:
        # design_both, one public call at a time, each timed from outside.
        calculator = designer.metrics_calculator
        for multiplier in multipliers:
            with timed(timers, "demand.grid.s"):
                grid = designer.demand_grid(multiplier)
            with timed(timers, "greedy_cover.s"):
                ss = GreedySSPlaneDesigner(
                    altitude_km=designer.altitude_km,
                    min_elevation_deg=designer.min_elevation_deg,
                ).design(grid)
            with timed(timers, "radiation.ssplane.s"):
                ss_metrics = calculator.for_ssplane(ss)
            with timed(timers, "demand.grid.s"):
                grid = designer.demand_grid(multiplier)
            with timed(timers, "walker_baseline.s"):
                walker = DemandDrivenWalkerDesigner(
                    altitude_km=designer.altitude_km,
                    min_elevation_deg=designer.min_elevation_deg,
                ).design(grid)
            with timed(timers, "radiation.walker.s"):
                walker_metrics = calculator.for_walker(walker)
            summary[f"{multiplier:g}"] = outcome_summary(ss_metrics, walker_metrics)
    wall = time.perf_counter() - begin
    digests = {"design": hashlib.sha256(repr(sorted(summary.items())).encode()).hexdigest()}
    output = {"setup_s": setup, "wall_s": wall, "summary": summary, "digests": digests}
    if mode == "traced":
        spanned = sum(timers.values())
        output["layers"] = {
            **timers,
            "traced.wall_s": wall,
            "unattributed.s": wall - spanned,
            "unattributed.frac": (wall - spanned) / wall,
            "design.ss_satellites": sum(row["ss_satellites"] for row in summary.values()),
            "design.walker_satellites": sum(
                row["walker_satellites"] for row in summary.values()
            ),
            "design.ss_planes": sum(row["ss_planes"] for row in summary.values()),
            "radiation.orbits": exposure.orbits,
        }
    return output, Checks()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("untraced", "traced"), required=True)
    parser.add_argument("--size", choices=sorted(spec.SIZES), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    if spec.is_design(args.workload):
        output, checks = run_design(args.size, args.mode, args.spawned_at)
    else:
        output, checks = run_sweep(
            args.workload, args.size, args.seed, args.mode, args.spawned_at
        )
    output.update(
        {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attempted": checks.attempted,
            "failures": checks.failures,
        }
    )
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
