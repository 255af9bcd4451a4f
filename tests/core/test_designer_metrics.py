"""Integration tests of the high-level designer, metrics and comparison sweep.

These are the tests that check the paper's evaluation-level claims end to end
on small/coarse instances (the benchmarks run the full-size versions).
"""

from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from repro.core.comparison import run_comparison_sweep
from repro.core.designer import ConstellationDesigner
from repro.core.metrics import MetricsCalculator, _group_mean, _group_median
from repro.core.rgt_baseline import rgt_vs_walker_sweep
from repro.core.walker_baseline import WalkerBaselineResult, WalkerShell
from repro.coverage.walker import WalkerDelta
from repro.demand.spatiotemporal import SpatiotemporalDemandModel
from repro.radiation.exposure import DailyFluence, ExposureCalculator


@pytest.fixture(scope="module")
def coarse_designer(population_grid_1deg_module=None):
    from repro.demand.population import synthetic_population_grid

    model = SpatiotemporalDemandModel(
        population=synthetic_population_grid(resolution_deg=2.0)
    )
    return ConstellationDesigner(
        demand_model=model,
        lat_resolution_deg=4.0,
        time_resolution_hours=2.0,
        metrics_calculator=MetricsCalculator(exposure=ExposureCalculator(step_s=180.0)),
    )


class TestConstellationDesigner:
    def test_demand_grid_scaling(self, coarse_designer):
        grid = coarse_designer.demand_grid(25.0)
        assert grid.values.max() == pytest.approx(25.0)

    def test_ss_design_satisfies_demand(self, coarse_designer):
        outcome = coarse_designer.design_ssplane(5.0)
        assert outcome.metrics.satisfied
        assert outcome.metrics.total_satellites > 0
        assert outcome.metrics.design == "ss-plane"

    def test_walker_design_satisfies_demand(self, coarse_designer):
        outcome = coarse_designer.design_walker(5.0)
        assert outcome.metrics.satisfied
        assert outcome.metrics.total_satellites > 0
        assert outcome.metrics.design == "walker"

    def test_design_both_builds_the_demand_grid_once(self, coarse_designer, monkeypatch):
        built = []
        latitude_time_grid = SpatiotemporalDemandModel.latitude_time_grid

        def counting(model, *args, **kwargs):
            built.append(kwargs["bandwidth_multiplier"])
            return latitude_time_grid(model, *args, **kwargs)

        monkeypatch.setattr(SpatiotemporalDemandModel, "latitude_time_grid", counting)
        both = coarse_designer.design_both(5.0)
        assert built == [5.0]
        assert both == (coarse_designer.design_ssplane(5.0), coarse_designer.design_walker(5.0))

    def test_ss_uses_fewer_satellites_than_walker(self, coarse_designer):
        # The paper's Figure 9 headline: SS-plane designs need fewer
        # satellites than the Walker baseline at the same demand.
        ss, walker = coarse_designer.design_both(5.0)
        assert ss.total_satellites < walker.total_satellites

    def test_ss_radiation_below_walker(self, coarse_designer):
        # The paper's Figure 10 headline: lower median radiation for SS.
        ss, walker = coarse_designer.design_both(5.0)
        assert ss.metrics.median_electron_fluence < walker.metrics.median_electron_fluence
        assert ss.metrics.median_proton_fluence < walker.metrics.median_proton_fluence

    def test_satellite_counts_grow_with_demand(self, coarse_designer):
        small_ss = coarse_designer.design_ssplane(3.0).total_satellites
        large_ss = coarse_designer.design_ssplane(12.0).total_satellites
        assert large_ss > small_ss

    def test_advantage_shrinks_as_demand_grows(self, coarse_designer):
        # Figure 9: the SS advantage is largest at low demand and shrinks as
        # the demand grid saturates.
        low_ss, low_wd = coarse_designer.design_both(3.0)
        high_ss, high_wd = coarse_designer.design_both(30.0)
        low_ratio = low_wd.total_satellites / low_ss.total_satellites
        high_ratio = high_wd.total_satellites / high_ss.total_satellites
        assert low_ratio > high_ratio


def _per_satellite_stats(exposure, satellites) -> tuple[DailyFluence, DailyFluence]:
    """Median and mean fluence over an expanded per-satellite list (the oracle)."""
    fluences = exposure.constellation_fluences(satellites)
    mean = DailyFluence(
        float(np.mean([f.electron for f in fluences])),
        float(np.mean([f.proton for f in fluences])),
    )
    return exposure.median_constellation_fluence(satellites), mean


class TestGroupNativeMetrics:
    """Per-group statistics equal those over every satellite, bit for bit."""

    def test_ssplane_matches_per_satellite_oracle(self, coarse_designer):
        outcome = coarse_designer.design_ssplane(3.0)
        satellites = [
            elements for plane in outcome.result.planes for elements in plane.satellite_elements()
        ]
        assert len(satellites) == outcome.total_satellites
        assert outcome.result.plane_count > 1
        oracle = _per_satellite_stats(coarse_designer.metrics_calculator.exposure, satellites)
        assert (outcome.metrics.median_fluence, outcome.metrics.mean_fluence) == oracle

    def test_walker_matches_per_satellite_oracle(self):
        # A shell is represented by its RAAN-0 plane, so single-plane shells
        # make the expanded list the exact oracle.  Two shells share an orbit
        # to exercise the first-seen cache.
        shells = tuple(
            WalkerShell(
                pattern=WalkerDelta(560.0, inclination, total, planes=1, phasing=0),
                altitude_km=altitude,
            )
            for altitude, inclination, total in (
                (550.0, 45.0, 12),
                (560.0, 53.0, 20),
                (570.0, 70.0, 8),
                (560.0, 53.0, 5),
            )
        )
        result = WalkerBaselineResult(
            shells=shells,
            total_satellites=sum(shell.satellite_count for shell in shells),
            residual_demand=0.0,
            iterations=len(shells),
        )
        calculator = MetricsCalculator(exposure=ExposureCalculator(step_s=180.0))
        metrics = calculator.for_walker(result)
        satellites = [elements for shell in shells for elements in shell.satellite_elements()]
        assert len(satellites) == metrics.total_satellites
        oracle = _per_satellite_stats(calculator.exposure, satellites)
        assert (metrics.median_fluence, metrics.mean_fluence) == oracle


def _same_float(left: float, right: float) -> bool:
    """Equal bits, with every NaN equal to every NaN."""
    if math.isnan(left) or math.isnan(right):
        return math.isnan(left) and math.isnan(right)
    return np.float64(left).tobytes() == np.float64(right).tobytes()


class TestGroupMedian:
    """The median over ``(value, count)`` groups is ``np.median`` of the
    expanded array, bit for bit."""

    @staticmethod
    def expanded(values, counts) -> float:
        return float(np.median(np.repeat(values, counts)))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_groups_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        groups = int(rng.integers(1, 30))
        # Few distinct values, so groups tie; a few zero counts.
        values = rng.choice(rng.lognormal(20.0, 1.0, size=max(1, groups // 3)), size=groups)
        counts = rng.integers(0, 6, size=groups)
        counts[0] = max(counts[0], 1)
        assert _same_float(_group_median(values, counts), self.expanded(values, counts))

    @pytest.mark.parametrize(
        "counts", [(1, 1, 1), (1, 1, 1, 1), (2, 3), (2, 2), (5, 0, 4), (0, 7, 1)]
    )
    def test_odd_and_even_totals(self, counts):
        values = np.array([3.5, 1.25, 9.0, 0.1][: len(counts)])
        counts = np.array(counts)
        assert _same_float(_group_median(values, counts), self.expanded(values, counts))

    def test_even_total_averages_the_two_middle_values(self):
        values, counts = np.array([1.0, 2.0]), np.array([1, 1])
        assert _group_median(values, counts) == 1.5 == self.expanded(values, counts)

    @pytest.mark.parametrize("count", [1, 2, 7, 462])
    def test_single_group(self, count):
        values, counts = np.array([7676108155.921414]), np.array([count])
        assert _same_float(_group_median(values, counts), self.expanded(values, counts))

    @pytest.mark.parametrize("counts", [(1, 1, 1), (2, 1, 4), (1, 3)])
    def test_nan_in_a_counted_group(self, counts):
        values = np.array([2.0, np.nan, 5.0][: len(counts)])
        counts = np.array(counts)
        assert math.isnan(_group_median(values, counts))
        assert math.isnan(self.expanded(values, counts))

    def test_nan_in_an_empty_group_is_not_counted(self):
        values, counts = np.array([2.0, np.nan, 5.0]), np.array([1, 0, 2])
        assert _group_median(values, counts) == 5.0 == self.expanded(values, counts)

    @pytest.mark.parametrize("counts", [(), (0,), (0, 0)])
    def test_no_satellites_is_nan_without_a_warning(self, counts):
        values = np.arange(len(counts), dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(_group_median(values, np.array(counts, dtype=int)))


class TestGroupMean:
    """The mean over ``(value, count)`` groups is ``np.mean`` of the expanded
    array, bit for bit, without building it."""

    @staticmethod
    def expanded(values, counts) -> float:
        return float(np.mean(np.repeat(values, counts)))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_groups(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(120):
            groups = int(rng.integers(1, 80))
            values = rng.lognormal(20.0, 2.0, size=groups)
            counts = rng.integers(0, int(rng.choice([2, 40, 3000, 60000])), size=groups)
            counts[rng.random(groups) < 0.2] = 0
            counts[int(rng.integers(groups))] += 1
            assert _same_float(_group_mean(values, counts), self.expanded(values, counts))

    @pytest.mark.parametrize("count", [1, 2, 7, 4095, 4097, 396_202])
    def test_single_group(self, count):
        values, counts = np.array([7676108155.921414]), np.array([count])
        assert _same_float(_group_mean(values, counts), self.expanded(values, counts))

    def test_zero_counts_at_the_ends_and_between_runs(self):
        values = np.array([1.5, 2.0**40 + 3.0, 0.1, 7.0, 3.3, 9.9])
        counts = np.array([0, 4096, 0, 0, 8193, 0])
        assert _same_float(_group_mean(values, counts), self.expanded(values, counts))

    def test_ten_million_satellites_trace_under_a_megabyte(self):
        # The expanded array alone would be 80 MB.
        values = np.array([6.1e9, 7.3e9, 8.9e9, 5.5e9])
        counts = np.array([2_500_001, 3_000_000, 1_499_999, 3_000_000])
        tracemalloc.start()
        try:
            mean = _group_mean(values, counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert _same_float(mean, self.expanded(values, counts))


class TestZeroSatelliteDesign:
    def test_nan_fluences_and_no_warning(self, coarse_designer):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcomes = coarse_designer.design_both(0.0)
        for outcome in outcomes:
            metrics = outcome.metrics
            assert metrics.total_satellites == 0
            assert metrics.satisfied
            for fluence in (metrics.median_fluence, metrics.mean_fluence):
                assert math.isnan(fluence.electron) and math.isnan(fluence.proton)


class TestComparisonSweep:
    def test_sweep_points_and_claims(self, coarse_designer):
        sweep = run_comparison_sweep((3.0, 10.0), designer=coarse_designer)
        assert len(sweep.points) == 2
        claims = sweep.headline_claims()
        assert claims.max_satellite_reduction_factor > 1.0
        assert claims.max_electron_reduction_percent > 0.0
        assert claims.max_proton_reduction_percent > 0.0

    def test_empty_sweep_rejected(self):
        from repro.core.comparison import ComparisonSweep

        with pytest.raises(ValueError):
            ComparisonSweep().headline_claims()


class TestRGTBaseline:
    def test_figure1_ordering(self):
        points = rgt_vs_walker_sweep(
            inclination_deg=65.0,
            min_altitude_km=1000.0,
            max_altitude_km=1700.0,
            walker_grid_step_deg=6.0,
            walker_time_samples=5,
        )
        assert len(points) >= 2
        # Covering a single RGT is never cheaper than the Walker baseline.
        for point in points:
            assert point.rgt_worse or point.rgt_satellites == point.walker_satellites
