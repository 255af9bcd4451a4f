"""Tests of the greedy SS-plane covering algorithm (Section 4.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coverage.grid import LatLocalTimeGrid
from repro.core.greedy_cover import GreedySSPlaneDesigner


def _empty_grid() -> LatLocalTimeGrid:
    return LatLocalTimeGrid(lat_resolution_deg=4.0, time_resolution_hours=1.0)


@pytest.fixture()
def designer() -> GreedySSPlaneDesigner:
    return GreedySSPlaneDesigner(altitude_km=560.0, min_elevation_deg=25.0)


class TestGreedyCover:
    def test_empty_demand_needs_no_planes(self, designer):
        result = designer.design(_empty_grid())
        assert result.plane_count == 0
        assert result.total_satellites == 0
        assert result.satisfied

    def test_single_cell_demand(self, designer):
        grid = _empty_grid()
        row, col = grid.index_of(34.0, 20.5)
        grid.values[row, col] = 3.0
        result = designer.design(grid)
        assert result.satisfied
        # Three units of demand at one cell need exactly three planes.
        assert result.plane_count == 3
        assert result.total_satellites == 3 * designer.satellites_per_plane()

    def test_planes_pass_through_demand_cell(self, designer):
        grid = _empty_grid()
        row, col = grid.index_of(34.0, 20.5)
        grid.values[row, col] = 2.0
        result = designer.design(grid)
        for plane in result.planes:
            assert plane.coverage_mask(grid)[row, col]

    def test_demand_spread_over_time_needs_multiple_ltans(self, designer):
        grid = _empty_grid()
        for hour in (2.5, 8.5, 14.5, 20.5):
            row, col = grid.index_of(30.0, hour)
            grid.values[row, col] = 1.0
        result = designer.design(grid)
        assert result.satisfied
        assert result.plane_count >= 2
        assert len(set(round(l, 3) for l in result.ltans_hours())) >= 2

    def test_demand_does_not_mutate_input(self, designer):
        grid = _empty_grid()
        row, col = grid.index_of(34.0, 20.5)
        grid.values[row, col] = 2.0
        before = grid.values.copy()
        designer.design(grid)
        np.testing.assert_array_equal(grid.values, before)

    def test_below_floor_demand_ignored(self, designer):
        grid = _empty_grid()
        row, col = grid.index_of(34.0, 20.5)
        grid.values[row, col] = designer.demand_floor / 10.0
        result = designer.design(grid)
        assert result.plane_count == 0
        assert result.satisfied

    def test_more_demand_needs_no_fewer_planes(self, designer):
        low = _empty_grid()
        high = _empty_grid()
        for hour in range(24):
            row, col = low.index_of(30.0, hour + 0.5)
            low.values[row, col] = 1.0
            high.values[row, col] = 3.0
        assert (
            designer.design(high).plane_count >= designer.design(low).plane_count
        )

    def test_max_planes_bound_respected(self):
        bounded = GreedySSPlaneDesigner(altitude_km=560.0, max_planes=2)
        grid = _empty_grid()
        row, col = grid.index_of(34.0, 20.5)
        grid.values[row, col] = 10.0
        result = bounded.design(grid)
        assert result.plane_count == 2
        assert not result.satisfied
        assert result.residual_demand > 0.0

    def test_invalid_street_fraction_rejected(self):
        # An impossible street width is a configuration error, not demand
        # that no plane can reach.
        grid = _empty_grid()
        row, col = grid.index_of(34.0, 20.5)
        grid.values[row, col] = 2.0
        with pytest.raises(ValueError, match="street_half_width_fraction"):
            GreedySSPlaneDesigner(street_half_width_fraction=1.5).design(grid)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -0.5])
    def test_non_finite_or_negative_demand_rejected(self, designer, bad):
        # One NaN cell used to return a 0-satellite design with a NaN
        # residual; one inf cell spun the loop to max_planes.
        grid = _empty_grid()
        grid.values[5, 3] = 2.0
        grid.values[7, 11] = bad
        grid.values[9, 1] = bad
        with pytest.raises(ValueError, match=rf"\(7, 11\) holds {bad!r}"):
            designer.design(grid)
