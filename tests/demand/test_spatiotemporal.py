"""Tests of the spatiotemporal demand model (Figures 5 and 8)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.designer import ConstellationDesigner
from repro.demand.spatiotemporal import SpatiotemporalDemandModel, build_demand_grid


class TestSnapshots:
    def test_snapshot_preserves_grid_shape(self, demand_model):
        snapshot = demand_model.snapshot(12.0)
        assert snapshot.values.shape == demand_model.population.values.shape

    def test_evening_side_louder_than_morning_side(self, demand_model):
        # At 12:00 UTC, Europe (~15 E) is at early afternoon while the central
        # Pacific (~-165 E) is in the middle of the night: scaling by the
        # diurnal profile must lower the Pacific column relative to Europe's.
        snapshot = demand_model.snapshot(12.0)
        population = demand_model.population
        europe_col = snapshot.index_of(50.0, 15.0)[1]
        ratio_europe = snapshot.values[:, europe_col].sum() / max(
            population.values[:, europe_col].sum(), 1e-9
        )
        night_col = snapshot.index_of(0.0, -165.0)[1]
        ratio_night = snapshot.values[:, night_col].sum() / max(
            population.values[:, night_col].sum(), 1e-9
        )
        assert ratio_europe > ratio_night

    def test_total_demand_varies_through_day(self, demand_model):
        totals = [demand_model.snapshot(hour).total() for hour in (0.0, 6.0, 12.0, 18.0)]
        assert max(totals) > 1.1 * min(totals)


class TestLatitudeTimeGrid:
    def test_peak_equals_multiplier(self, demand_model):
        grid = demand_model.latitude_time_grid(bandwidth_multiplier=42.0)
        assert grid.values.max() == pytest.approx(42.0)

    def test_peak_location(self, demand_model):
        grid = demand_model.latitude_time_grid(bandwidth_multiplier=100.0)
        peak_lat, peak_time, _ = grid.peak()
        # Peak demand sits at intermediate Northern latitudes in the evening.
        assert 15.0 <= peak_lat <= 45.0
        assert 18.0 <= peak_time <= 23.0

    def test_night_cells_below_day_cells(self, demand_model):
        grid = demand_model.latitude_time_grid(bandwidth_multiplier=100.0)
        row = int(np.argmax(grid.values.max(axis=1)))
        night_col = grid.index_of(0.0, 4.5)[1]
        evening_col = grid.index_of(0.0, 20.5)[1]
        assert grid.values[row, night_col] < grid.values[row, evening_col]

    def test_no_demand_at_poles(self, demand_model):
        grid = demand_model.latitude_time_grid(bandwidth_multiplier=100.0)
        polar_rows = np.abs(grid.latitudes_deg) > 80.0
        assert grid.values[polar_rows, :].max() == 0.0

    def test_scaling_linearity(self, demand_model):
        small = demand_model.latitude_time_grid(bandwidth_multiplier=10.0)
        large = demand_model.latitude_time_grid(bandwidth_multiplier=100.0)
        np.testing.assert_allclose(large.values, 10.0 * small.values, rtol=1e-9)

    def test_max_density_per_latitude_matches_population(self, demand_model):
        profile = demand_model.max_density_per_latitude()
        assert profile.shape[0] == demand_model.population.n_lat
        assert profile.max() == pytest.approx(demand_model.population.values.max())


class TestConvenienceBuilders:
    def test_build_demand_grid(self):
        grid = build_demand_grid(
            bandwidth_multiplier=5.0,
            lat_resolution_deg=6.0,
            time_resolution_hours=2.0,
            population_resolution_deg=2.0,
        )
        assert grid.values.shape == (30, 12)
        assert grid.values.max() == pytest.approx(5.0)


class TestBandwidthMultiplierValidation:
    """A bad multiplier fails at the boundary, naming the argument, before any
    grid is built (a negative one used to fail later as a negative cell, inf
    as a NaN cell, ``True`` designed for 1x and ``'3'`` raised numpy's
    ``UFuncTypeError``)."""

    @staticmethod
    def no_grid(monkeypatch):
        """Make building the density profile fail, so a check that runs too
        late shows up as the wrong error."""

        def fail(self, latitudes_deg):
            raise AssertionError("the grid was built before the multiplier was checked")

        monkeypatch.setattr(SpatiotemporalDemandModel, "_max_density_at", fail)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"), float("-inf")])
    def test_non_finite_or_negative_rejected(self, demand_model, monkeypatch, bad):
        self.no_grid(monkeypatch)
        with pytest.raises(ValueError, match="bandwidth_multiplier must be finite"):
            demand_model.latitude_time_grid(bandwidth_multiplier=bad)

    @pytest.mark.parametrize("bad", [True, np.bool_(False), "3", None, 1.0 + 2.0j])
    def test_bool_or_non_real_rejected(self, demand_model, monkeypatch, bad):
        self.no_grid(monkeypatch)
        with pytest.raises(TypeError, match="bandwidth_multiplier must be a real number"):
            demand_model.latitude_time_grid(bandwidth_multiplier=bad)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda value: build_demand_grid(value, population_resolution_deg=2.0),
            lambda value: ConstellationDesigner().demand_grid(value),
            lambda value: ConstellationDesigner().design_ssplane(value),
            lambda value: ConstellationDesigner().design_walker(value),
            lambda value: ConstellationDesigner().design_both(value),
        ],
        ids=["build_demand_grid", "demand_grid", "design_ssplane", "design_walker", "design_both"],
    )
    def test_every_entry_point_checks(self, entry):
        with pytest.raises(ValueError, match="bandwidth_multiplier"):
            entry(-1.0)
        with pytest.raises(TypeError, match="bandwidth_multiplier"):
            entry(True)

    @pytest.mark.parametrize("value", [0, 0.0, 3, np.float64(2.5), np.int64(4)])
    def test_finite_non_negative_reals_accepted(self, demand_model, value):
        grid = demand_model.latitude_time_grid(bandwidth_multiplier=value)
        assert grid.values.max() == pytest.approx(float(value))
