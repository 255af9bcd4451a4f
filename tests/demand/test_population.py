"""Tests of the synthetic population grid (SEDAC substitute, Figure 3)."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from repro.coverage.grid import LatLonGrid
from repro.demand.population import (
    METRO_AREAS,
    PopulationModel,
    _wrap,
    synthetic_population_grid,
)


def density_grid_with_whole_layers(model: PopulationModel) -> np.ndarray:
    """The population build with full-size temporaries, kept as the oracle.

    Metro counts and the rural weights are whole-grid arrays, the weights
    are normalised by ``weights.sum()`` and the counts divided by
    ``cell_area_km2()``.
    """
    grid = LatLonGrid(resolution_deg=model.resolution_deg)
    lat_centres, lon_centres = grid.latitudes_deg, grid.longitudes_deg
    counts = np.zeros_like(grid.values)
    for metro in METRO_AREAS:
        sigma_km = model.metro_sigma_km * (max(metro.population_millions, 0.3) / 5.0) ** (
            1.0 / 3.0
        )
        sigma_lat_deg = sigma_km / 111.32
        cos_lat = max(math.cos(math.radians(metro.latitude_deg)), 0.05)
        sigma_lon_deg = sigma_km / (111.32 * cos_lat)
        dlat = lat_centres - metro.latitude_deg
        dlon = (lon_centres - metro.longitude_deg + 180.0) % 360.0 - 180.0
        lat_mask = np.abs(dlat) <= 4.0 * sigma_lat_deg
        lon_mask = np.abs(dlon) <= 4.0 * sigma_lon_deg
        if not lat_mask.any() or not lon_mask.any():
            continue
        kernel = np.outer(
            np.exp(-0.5 * (dlat[lat_mask] / sigma_lat_deg) ** 2),
            np.exp(-0.5 * (dlon[lon_mask] / sigma_lon_deg) ** 2),
        )
        kernel /= kernel.sum()
        counts[np.ix_(lat_mask, lon_mask)] += metro.population_millions * 1e6 * kernel

    metro_total = sum(m.population_millions for m in METRO_AREAS) * 1e6
    total_rural = max(0.0, model.world_population_billions * 1e9 - metro_total)
    lat_deg = np.degrees(np.radians(lat_centres))
    envelope = (
        np.exp(-0.5 * ((lat_deg - 30.0) / 15.0) ** 2)
        + 0.7 * np.exp(-0.5 * ((lat_deg - 50.0) / 10.0) ** 2)
        + 0.35 * np.exp(-0.5 * ((lat_deg + 10.0) / 12.0) ** 2)
        + 0.25 * np.exp(-0.5 * ((lat_deg + 30.0) / 10.0) ** 2)
    )
    envelope *= np.clip((76.0 - np.abs(lat_deg)) / 6.0, 0.0, 1.0)
    continents = np.clip(
        1.0
        + 0.9 * np.exp(-0.5 * ((_wrap(lon_centres - 100.0)) / 35.0) ** 2)
        + 0.8 * np.exp(-0.5 * ((_wrap(lon_centres - 78.0)) / 20.0) ** 2)
        + 0.7 * np.exp(-0.5 * ((_wrap(lon_centres - 20.0)) / 30.0) ** 2)
        + 0.6 * np.exp(-0.5 * ((_wrap(lon_centres + 90.0)) / 30.0) ** 2)
        - 0.9 * np.exp(-0.5 * ((_wrap(lon_centres + 150.0)) / 25.0) ** 2)
        - 0.5 * np.exp(-0.5 * ((_wrap(lon_centres + 40.0)) / 15.0) ** 2),
        0.05,
        None,
    )
    weights = np.outer(envelope, continents)
    weights /= weights.sum()
    counts += total_rural * weights
    return counts / grid.cell_area_km2()


class TestMetroCatalogue:
    def test_catalogue_size(self):
        # A couple of hundred metro areas back the spatial structure.
        assert len(METRO_AREAS) >= 200

    def test_coordinates_valid(self):
        for metro in METRO_AREAS:
            assert -90.0 <= metro.latitude_deg <= 90.0
            assert -180.0 <= metro.longitude_deg <= 180.0
            assert metro.population_millions > 0

    def test_contains_major_cities(self):
        names = {metro.name for metro in METRO_AREAS}
        for expected in ("Tokyo", "Delhi", "Sao Paulo", "Lagos", "New York", "London"):
            assert expected in names


class TestPopulationGrid:
    def test_total_population(self, population_grid_1deg):
        total = population_grid_1deg.total(area_weighted=True)
        assert total == pytest.approx(8.0e9, rel=0.02)

    def test_peak_density_magnitude(self, population_grid_1deg):
        # SEDAC's 0.5-degree maxima are a few thousand people per km^2; the
        # synthetic grid at 1 degree should be in the same range.
        peak = population_grid_1deg.values.max()
        assert 2000.0 <= peak <= 15000.0

    def test_max_density_peaks_at_intermediate_northern_latitudes(self, population_grid_1deg):
        profile = population_grid_1deg.max_over_longitude()
        lats = population_grid_1deg.latitudes_deg
        peak_latitude = lats[int(np.argmax(profile))]
        assert 15.0 <= peak_latitude <= 45.0

    def test_poles_empty(self, population_grid_1deg):
        profile = population_grid_1deg.max_over_longitude()
        lats = population_grid_1deg.latitudes_deg
        assert profile[np.abs(lats) > 80.0].max() == 0.0

    def test_northern_hemisphere_dominates(self, population_grid_1deg):
        lats = population_grid_1deg.latitudes_deg
        area = population_grid_1deg.cell_area_km2()
        north = (population_grid_1deg.values * area)[lats > 0, :].sum()
        south = (population_grid_1deg.values * area)[lats < 0, :].sum()
        assert north > 3.0 * south

    def test_oceans_sparse(self, population_grid_1deg):
        # The central Pacific should be essentially empty.
        assert population_grid_1deg.value_at(0.0, -140.0) < 5.0

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            PopulationModel(metro_sigma_km=-1.0)
        with pytest.raises(ValueError):
            PopulationModel(rural_fraction=1.5)
        with pytest.raises(ValueError):
            PopulationModel(world_population_billions=0.0)

    def test_finer_grid_has_higher_peak(self):
        coarse = synthetic_population_grid(resolution_deg=2.0)
        fine = synthetic_population_grid(resolution_deg=1.0)
        assert fine.values.max() >= coarse.values.max()


class TestBlockedBuild:
    """The build accumulates in place; its grid is the whole-layer build's."""

    @pytest.mark.parametrize("resolution_deg", [0.5, 1.0, 2.0])
    def test_equals_whole_layer_oracle(self, resolution_deg):
        model = PopulationModel(resolution_deg=resolution_deg)
        np.testing.assert_array_equal(
            model.density_grid().values, density_grid_with_whole_layers(model)
        )

    def test_other_settings_equal_whole_layer_oracle(self):
        model = PopulationModel(
            resolution_deg=3.0, metro_sigma_km=40.0, world_population_billions=9.5
        )
        np.testing.assert_array_equal(
            model.density_grid().values, density_grid_with_whole_layers(model)
        )

    def test_default_grid_peaks_below_one_and_a_half_grids(self):
        # The whole-layer build held about four 0.5-degree grids at once.
        tracemalloc.start()
        try:
            grid = synthetic_population_grid()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.values.shape == (360, 720)
        assert peak <= 1.5 * grid.values.nbytes

    def test_row_cell_areas_repeat_across_each_row(self):
        grid = LatLonGrid(resolution_deg=2.0)
        np.testing.assert_array_equal(
            grid.cell_area_km2(), np.repeat(grid.row_cell_area_km2()[:, None], 180, axis=1)
        )
