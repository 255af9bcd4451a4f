"""Tests of the diurnal demand profile and synthetic traffic dataset (Figure 4)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.demand.diurnal import (
    DEFAULT_HOURLY_PERCENT,
    DiurnalProfile,
    SyntheticTrafficDataset,
    _median_normalisation,
    time_of_day_percentiles,
)

SAMPLES = np.linspace(0.0, 24.0, 1440, endpoint=False)


def interpolated(table: tuple[float, ...], hours: np.ndarray) -> np.ndarray:
    """The table's periodic linear interpolation, computed independently."""
    return np.interp(hours, np.arange(25, dtype=float), np.asarray(table + (table[0],)))


class TestDiurnalProfile:
    def test_median_normalisation(self):
        profile = DiurnalProfile()
        hours = np.linspace(0.0, 24.0, 1440, endpoint=False)
        assert float(np.median(profile.fraction_of_median(hours))) == pytest.approx(
            1.0, abs=0.02
        )

    def test_trough_in_early_morning(self):
        profile = DiurnalProfile()
        hours = np.linspace(0.0, 24.0, 1440, endpoint=False)
        values = profile.fraction_of_median(hours)
        trough_hour = hours[int(np.argmin(values))]
        assert 2.0 <= trough_hour <= 6.0
        assert profile.trough_fraction() < 0.6

    def test_peak_in_evening(self):
        profile = DiurnalProfile()
        assert 18.0 <= profile.peak_hour() <= 23.0
        assert profile.peak_fraction() > 1.5

    def test_wraps_hours(self):
        profile = DiurnalProfile()
        assert profile.fraction_of_median(25.0) == pytest.approx(
            profile.fraction_of_median(1.0)
        )
        assert profile.fraction_of_median(-2.0) == pytest.approx(
            profile.fraction_of_median(22.0)
        )

    @given(st.floats(min_value=0.0, max_value=48.0))
    def test_always_positive(self, hour):
        assert DiurnalProfile().fraction_of_median(hour) > 0.0

    def test_table_validation(self):
        with pytest.raises(ValueError):
            DiurnalProfile(hourly_percent=(100.0,) * 23)
        with pytest.raises(ValueError):
            DiurnalProfile(hourly_percent=(0.0,) + DEFAULT_HOURLY_PERCENT[1:])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_value_rejected(self, value):
        table = DEFAULT_HOURLY_PERCENT[:5] + (value,) + DEFAULT_HOURLY_PERCENT[6:]
        with pytest.raises(ValueError, match=f"hourly_percent\\[5\\] .* got {value!r}"):
            DiurnalProfile(hourly_percent=table)

    def test_list_table_stored_as_float_tuple(self):
        profile = DiurnalProfile(hourly_percent=[int(value) for value in DEFAULT_HOURLY_PERCENT])
        assert isinstance(profile.hourly_percent, tuple)
        assert all(type(value) is float for value in profile.hourly_percent)
        assert profile == DiurnalProfile()
        assert profile.fraction_of_median(20.5) == DiurnalProfile().fraction_of_median(20.5)

    def test_cached_normalisation_is_the_sample_median(self):
        table = tuple(float(value) for value in np.linspace(30.0, 250.0, 24))
        profile = DiurnalProfile(hourly_percent=table)
        expected = float(np.median(interpolated(table, SAMPLES)))
        assert _median_normalisation(profile.hourly_percent) == expected
        assert np.array_equal(
            profile.fraction_of_median(SAMPLES), interpolated(table, SAMPLES) / expected
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_normalisation_is_np_median_bit_for_bit(self, seed):
        """The sorted-middle median equals ``np.median`` of the 1,440 samples,
        on tables with runs of equal hours (tied samples) and without."""
        rng = np.random.default_rng(seed)
        table = rng.uniform(20.0, 300.0, size=24)
        if seed % 2:
            table = np.repeat(table[::4], 4)
        table = tuple(float(value) for value in table)
        expected = np.median(interpolated(table, SAMPLES))
        assert np.float64(_median_normalisation(table)).tobytes() == expected.tobytes()

    def test_tables_do_not_share_a_normalisation(self):
        tables = (DEFAULT_HOURLY_PERCENT, tuple(float(v) for v in np.linspace(250.0, 30.0, 24)))
        profiles = [DiurnalProfile(hourly_percent=table) for table in tables]
        medians = [float(np.median(interpolated(table, SAMPLES))) for table in tables]
        assert medians[0] != medians[1]
        for _ in range(2):  # interleave, so a shared cache entry would show
            for profile, table, median in zip(profiles, tables, medians):
                assert _median_normalisation(profile.hourly_percent) == median
                assert np.array_equal(
                    profile.fraction_of_median(SAMPLES), interpolated(table, SAMPLES) / median
                )

    def test_scalar_and_array_agree(self):
        profile = DiurnalProfile()
        array = profile.fraction_of_median(np.array([3.0, 12.0, 21.0]))
        for index, hour in enumerate((3.0, 12.0, 21.0)):
            assert array[index] == pytest.approx(profile.fraction_of_median(hour))


class TestSyntheticDataset:
    def test_shapes(self):
        dataset = SyntheticTrafficDataset(n_sites=20, n_days=3)
        hours, demand = dataset.generate()
        assert demand.shape == (20, hours.shape[0])
        assert hours.shape[0] == 3 * 24 * dataset.samples_per_hour

    def test_deterministic_with_seed(self):
        a = SyntheticTrafficDataset(n_sites=5, n_days=2, seed=11).generate()[1]
        b = SyntheticTrafficDataset(n_sites=5, n_days=2, seed=11).generate()[1]
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = SyntheticTrafficDataset(n_sites=5, n_days=2, seed=1).generate()[1]
        b = SyntheticTrafficDataset(n_sites=5, n_days=2, seed=2).generate()[1]
        assert not np.array_equal(a, b)

    def test_all_positive(self):
        _, demand = SyntheticTrafficDataset(n_sites=10, n_days=2).generate()
        assert np.all(demand > 0)


class TestPercentiles:
    @pytest.fixture(scope="class")
    def percentile_data(self):
        dataset = SyntheticTrafficDataset(n_sites=80, n_days=7, seed=3)
        hours, demand = dataset.generate()
        centres, values = time_of_day_percentiles(hours, demand)
        return centres, values

    def test_shapes(self, percentile_data):
        centres, values = percentile_data
        assert centres.shape == (24,)
        assert values.shape == (2, 24)

    def test_evening_peak_above_morning_trough(self, percentile_data):
        _, values = percentile_data
        median_curve = values[0]
        assert median_curve[20] > 2.0 * median_curve[4]

    def test_95th_above_median(self, percentile_data):
        _, values = percentile_data
        assert np.all(values[1] >= values[0])

    def test_median_curve_in_percent(self, percentile_data):
        _, values = percentile_data
        # Values are percent-of-median: the daily mid-range should straddle 100.
        assert values[0].min() < 100.0 < values[0].max()

    def test_validation(self):
        with pytest.raises(ValueError):
            time_of_day_percentiles(np.arange(10.0), np.ones((3, 5)))
        with pytest.raises(ValueError):
            time_of_day_percentiles(np.arange(10.0), np.ones((3, 10)), bin_hours=7.0)
