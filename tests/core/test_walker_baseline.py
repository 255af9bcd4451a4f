"""Tests of the demand-driven Walker-delta baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coverage.grid import LatLocalTimeGrid
from repro.core.walker_baseline import DemandDrivenWalkerDesigner


def _empty_grid() -> LatLocalTimeGrid:
    return LatLocalTimeGrid(lat_resolution_deg=4.0, time_resolution_hours=2.0)


@pytest.fixture(scope="module")
def designer() -> DemandDrivenWalkerDesigner:
    return DemandDrivenWalkerDesigner(altitude_km=560.0, min_elevation_deg=25.0)


class TestWalkerBaseline:
    def test_empty_demand(self, designer):
        result = designer.design(_empty_grid())
        assert result.shell_count == 0
        assert result.total_satellites == 0
        assert result.satisfied

    def test_single_unit_demand_needs_one_shell(self, designer):
        grid = _empty_grid()
        row, col = grid.index_of(34.0, 21.0)
        grid.values[row, col] = 1.0
        result = designer.design(grid)
        assert result.satisfied
        assert result.shell_count == 1
        shell = result.shells[0]
        # The shell's inclination must reach the demanded latitude.
        assert shell.inclination_deg >= 34.0
        assert shell.satellite_count > 50

    def test_shell_count_tracks_peak_demand(self, designer):
        grid = _empty_grid()
        row, col = grid.index_of(34.0, 21.0)
        grid.values[row, col] = 4.0
        result = designer.design(grid)
        assert result.shell_count == 4

    def test_high_latitude_demand_gets_high_inclination(self, designer):
        grid = _empty_grid()
        row, col = grid.index_of(62.0, 21.0)
        grid.values[row, col] = 1.0
        result = designer.design(grid)
        assert result.shells[0].inclination_deg >= 62.0

    def test_supply_is_time_invariant(self, designer):
        # Demand at a quiet hour costs exactly as much as at the peak hour:
        # a Walker shell cannot target a local time.
        late = _empty_grid()
        row, col = late.index_of(34.0, 3.0)
        late.values[row, col] = 2.0
        peak = _empty_grid()
        row, col = peak.index_of(34.0, 21.0)
        peak.values[row, col] = 2.0
        assert (
            designer.design(late).total_satellites
            == designer.design(peak).total_satellites
        )

    def test_demand_floor(self, designer):
        grid = _empty_grid()
        row, col = grid.index_of(34.0, 21.0)
        grid.values[row, col] = designer.demand_floor / 5.0
        assert designer.design(grid).shell_count == 0

    def test_altitudes_stay_near_base(self, designer):
        grid = _empty_grid()
        row, col = grid.index_of(34.0, 21.0)
        grid.values[row, col] = 7.0
        result = designer.design(grid)
        altitudes = [shell.altitude_km for shell in result.shells]
        assert max(altitudes) - min(altitudes) <= designer.altitude_spacing_km * (
            designer.altitude_slots
        )
        assert all(abs(a - designer.altitude_km) <= 50.0 for a in altitudes)

    def test_shell_elements_fly_at_shell_altitude(self, designer):
        # Shells are staggered around the base altitude; every satellite of a
        # shell must sit at that shell's altitude, not at the pattern's.
        grid = _empty_grid()
        row, col = grid.index_of(34.0, 21.0)
        grid.values[row, col] = 3.0
        result = designer.design(grid)
        assert len({shell.altitude_km for shell in result.shells}) == 3
        for shell in result.shells:
            elements = shell.satellite_elements()
            assert len(elements) == shell.satellite_count
            for element in elements:
                assert element.altitude_km == pytest.approx(shell.altitude_km)
                assert element.inclination_deg == pytest.approx(shell.inclination_deg)

    def test_input_not_mutated(self, designer):
        grid = _empty_grid()
        row, col = grid.index_of(34.0, 21.0)
        grid.values[row, col] = 2.0
        before = grid.values.copy()
        designer.design(grid)
        np.testing.assert_array_equal(grid.values, before)

    def test_max_shells_bound(self):
        bounded = DemandDrivenWalkerDesigner(altitude_km=560.0, max_shells=1)
        grid = _empty_grid()
        row, col = grid.index_of(34.0, 21.0)
        grid.values[row, col] = 5.0
        result = bounded.design(grid)
        assert result.shell_count == 1
        assert not result.satisfied

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -0.5])
    def test_non_finite_or_negative_demand_rejected(self, designer, bad):
        grid = _empty_grid()
        grid.values[5, 3] = 2.0
        grid.values[7, 11] = bad
        grid.values[9, 1] = bad
        with pytest.raises(ValueError, match=rf"\(7, 11\) holds {bad!r}"):
            designer.design(grid)
