"""Tests of the pipeline instrumentation layer (repro.obs wired into sweeps).

The two contracts under test:

* **disabled is free and invisible** -- running with ``instrument=True``
  (or a progress callback) produces bit-identical ``StepStatistics`` to an
  untraced run;
* **metrics are executor-invariant** -- the deterministic slices of
  :class:`~repro.obs.RunMetrics` (stage call counts, counters, gauges)
  are exactly equal across serial, thread and process sweeps of the same
  fixed-seed scenario set, because worker-side metrics merge elementwise
  like telemetry.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.coverage.walker import WalkerDelta
from repro.demand.traffic_matrix import City, GravityTrafficModel
from repro.network.ground_station import GroundStation
from repro.network.simulation import NetworkSimulator, Scenario, run_grid
from repro.network.topology import ConstellationTopology
from repro.obs import STAGES, ProgressEvent, RunMetrics

CITIES = (
    City("London", 51.5, -0.1, 9.6),
    City("New York", 40.7, -74.0, 20.0),
    City("Tokyo", 35.7, 139.7, 37.0),
    City("Sao Paulo", -23.6, -46.6, 22.0),
)

SCENARIOS = [
    Scenario(name="plain", allocator="proportional_array"),
    Scenario(name="max_min", allocator="max_min_array"),
    Scenario(name="telemetry", allocator="proportional_array", telemetry="exact"),
    Scenario(name="steered", allocator="proportional_array", steering="congestion-aware"),
]

DURATION_HOURS = 3.0


@pytest.fixture(scope="module")
def topology(epoch) -> ConstellationTopology:
    wd = WalkerDelta(
        altitude_km=560.0, inclination_deg=65.0, total_satellites=60, planes=5, phasing=1
    )
    elements = wd.satellite_elements()
    per_plane = wd.satellites_per_plane
    planes = [elements[i * per_plane : (i + 1) * per_plane] for i in range(wd.planes)]
    return ConstellationTopology(planes=planes, epoch=epoch)


@pytest.fixture(scope="module")
def simulator(topology) -> NetworkSimulator:
    return NetworkSimulator(
        topology=topology,
        ground_stations=[
            GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in CITIES
        ],
        traffic_model=GravityTrafficModel(cities=CITIES, total_demand=40.0),
        flows_per_step=10,
    )


def _sweep(simulator, epoch, **kwargs):
    return simulator.run_scenarios(SCENARIOS, epoch, DURATION_HOURS, 1.0, **kwargs)


class TestDisabledIsInvisible:
    def test_instrumented_statistics_bit_identical(self, simulator, epoch):
        untraced = _sweep(simulator, epoch)
        traced = _sweep(simulator, epoch, instrument=True)
        for name in untraced:
            # Frozen-dataclass equality compares every statistics field, so
            # this is exact bit-identity, not a tolerance.
            assert untraced[name].steps == traced[name].steps

    def test_progress_callback_does_not_perturb_results(self, simulator, epoch):
        untraced = _sweep(simulator, epoch)
        observed = _sweep(simulator, epoch, progress=lambda event: None)
        for name in untraced:
            assert untraced[name].steps == observed[name].steps
            # Progress alone observes the sweep; it does not attach metrics.
            assert observed[name].metrics is None

    def test_metrics_absent_by_default_present_when_instrumented(
        self, simulator, epoch
    ):
        plain = _sweep(simulator, epoch)
        traced = _sweep(simulator, epoch, instrument=True)
        for name in plain:
            assert plain[name].metrics is None
            assert isinstance(traced[name].metrics, RunMetrics)

    def test_single_run_entry_point_forwards_instrument(self, simulator, epoch):
        result = simulator.run(epoch, DURATION_HOURS, 1.0, instrument=True)
        assert isinstance(result.metrics, RunMetrics)
        assert result.metrics.counters["steps"] == len(result.steps)


class TestMetricsContent:
    def test_stage_accounting_is_complete_and_bounded(self, simulator, epoch):
        begin = time.perf_counter()
        traced = _sweep(simulator, epoch, instrument=True)
        wall = time.perf_counter() - begin
        steps = len(traced["plain"].steps)
        for name, result in traced.items():
            metrics = result.metrics
            assert metrics.stages == STAGES
            # Every step passes through the snapshot provider, selection,
            # routing, allocation and the statistics fold exactly once.
            for stage in ("snapshot", "flow_selection", "routing", "allocation", "statistics"):
                assert metrics.stage_calls[metrics.stage_index(stage)] == steps, (
                    name,
                    stage,
                )
            assert metrics.counters["steps"] == steps
            assert metrics.counters["flows_selected"] == steps * 10
            assert 0.0 < metrics.total_seconds() <= wall
            assert metrics.gauges["edge_list_bytes"] > 0.0
        # Stage spans are disjoint slices of the wall clock, so the sweep's
        # total traced time is bounded by -- and a real share of -- it.
        pooled = sum(r.metrics.total_seconds() for r in traced.values())
        assert pooled <= wall
        # Conditional stages appear exactly where their features are on.
        steering_row = lambda m: m.stage_calls[m.stage_index("steering")]
        telemetry_row = lambda m: m.stage_calls[m.stage_index("telemetry")]
        assert steering_row(traced["steered"].metrics) > 0
        assert steering_row(traced["plain"].metrics) == 0
        assert telemetry_row(traced["telemetry"].metrics) > 0
        assert telemetry_row(traced["plain"].metrics) == 0
        assert traced["steered"].metrics.gauges["steering_state_bytes"] > 0.0
        assert traced["telemetry"].metrics.gauges["telemetry_bytes"] > 0.0
        assert traced["max_min"].metrics.gauges["incidence_bytes"] > 0.0

    def test_histogram_counts_match_call_counts(self, simulator, epoch):
        traced = _sweep(simulator, epoch, instrument=True)
        for result in traced.values():
            metrics = result.metrics
            assert np.array_equal(
                metrics.stage_histogram.sum(axis=1), metrics.stage_calls
            )


class TestExecutorInvariance:
    def test_deterministic_metrics_equal_across_executors(self, simulator, epoch):
        serial = _sweep(simulator, epoch, instrument=True)
        threaded = _sweep(simulator, epoch, instrument=True, max_workers=2)
        processes = _sweep(
            simulator, epoch, instrument=True, max_workers=2, executor="process"
        )
        for name in serial:
            reference = serial[name].metrics
            for other in (threaded[name].metrics, processes[name].metrics):
                # Durations are machine noise; everything the pipeline
                # *counts* must merge to exactly the serial values.
                assert np.array_equal(reference.stage_calls, other.stage_calls), name
                assert reference.counters == other.counters, name
                assert reference.gauges == other.gauges, name
            # And the statistics themselves stay executor-invariant.
            assert serial[name].steps == threaded[name].steps == processes[name].steps


class TestSweepProgress:
    def test_events_cover_the_whole_sweep(self, simulator, epoch):
        events: list[ProgressEvent] = []
        _sweep(simulator, epoch, progress=events.append)
        steps = int(DURATION_HOURS)
        assert [event.completed for event in events] == [
            len(SCENARIOS) * (index + 1) for index in range(steps)
        ]
        assert all(event.total == len(SCENARIOS) * steps for event in events)
        assert events[-1].completed == events[-1].total
        assert events[-1].eta_s == 0.0
        # A progress-observed sweep is traced internally, so per-stage
        # running means ride along on every event.
        assert dict(events[-1].stage_means_s)["routing"] > 0.0

    def test_process_executor_reports_chunk_completions(self, simulator, epoch):
        events: list[ProgressEvent] = []
        _sweep(
            simulator,
            epoch,
            progress=events.append,
            max_workers=2,
            executor="process",
        )
        total = len(SCENARIOS) * int(DURATION_HOURS)
        assert events  # one event per completed worker chunk
        assert events[-1].completed == total
        assert all(event.total == total for event in events)
        assert sum(1 for e in events) <= 2  # at most one event per chunk

    def test_grid_shares_one_tracker_across_designs(self, topology, epoch):
        events: list[ProgressEvent] = []
        scenarios = [SCENARIOS[0], SCENARIOS[1]]
        cells = run_grid(
            {"a": topology, "b": topology},
            scenarios,
            [GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in CITIES],
            epoch,
            DURATION_HOURS,
            traffic_model=GravityTrafficModel(cities=CITIES, total_demand=40.0),
            flows_per_step=10,
            instrument=True,
            progress=events.append,
        )
        total = 2 * len(scenarios) * int(DURATION_HOURS)
        assert events[-1].completed == events[-1].total == total
        # Monotone completion across the design boundary: one ETA stream.
        completed = [event.completed for event in events]
        assert completed == sorted(completed)
        for result in cells.values():
            assert isinstance(result.metrics, RunMetrics)
