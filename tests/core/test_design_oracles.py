"""The design sweep's fast paths against the straightforward versions.

``design_oracles.py`` keeps the per-row mask loop, the per-candidate sizing
search and the round-by-round design loops.  These tests assert that the
library returns exactly what they return: equal masks, equal sizing
patterns, and equal design results field for field.  They also pin the two
cache levels of ``ExposureCalculator.constellation_fluences``.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from design_oracles import (
    coverage_mask_by_rows,
    greedy_design_by_rounds,
    minimum_walker_by_candidates,
    walker_design_by_rounds,
)
from repro.core.designer import ConstellationDesigner
from repro.core.greedy_cover import GreedySSPlaneDesigner, _peak_branches
from repro.core.metrics import MetricsCalculator
from repro.core.ssplane import SSPlane
from repro.core.walker_baseline import DemandDrivenWalkerDesigner, WalkerBaselineResult
from repro.coverage import walker
from repro.coverage.footprint import coverage_half_angle_rad
from repro.coverage.grid import LatLocalTimeGrid
from repro.coverage.walker import minimum_walker_for_coverage
from repro.orbits.elements import OrbitalElements
from repro.radiation.exposure import ExposureCalculator
from test_design_order import SWEEP_INCLINATIONS_DEG

MULTIPLIERS = (10.0, 30.0, 100.0, 300.0, 1000.0)
GOLDEN_ALTITUDES_KM = (560.0, 800.0, 1215.0)
GOLDEN_INCLINATIONS_DEG = tuple(25.0 + 7.5 * step for step in range(9))


@pytest.fixture(scope="module")
def sweep():
    """The demand grid and both fast-path designs at every sweep multiplier."""
    designer = ConstellationDesigner()
    designs = {}
    for multiplier in MULTIPLIERS:
        grid = designer.demand_grid(multiplier)
        designs[multiplier] = (
            grid,
            GreedySSPlaneDesigner().design(grid),
            DemandDrivenWalkerDesigner().design(grid),
        )
    return designs


class CountingExposure(ExposureCalculator):
    """Exposure calculator counting the orbits whose daily fluence it evaluates."""

    evaluated = 0

    def daily_fluence(self, *args, **kwargs):
        self.evaluated += 1
        return super().daily_fluence(*args, **kwargs)


class TestCoverageMask:
    @pytest.mark.parametrize(
        "lat_resolution_deg, time_resolution_hours", [(2.0, 1.0), (3.0, 0.5)]
    )
    def test_equals_row_loop_for_every_sweep_ltan(
        self, sweep, lat_resolution_deg, time_resolution_hours
    ):
        grid = LatLocalTimeGrid(lat_resolution_deg, time_resolution_hours)
        planes = {plane for _, result, _ in sweep.values() for plane in result.planes}
        assert len(planes) > 10
        for plane in planes:
            np.testing.assert_array_equal(
                plane.coverage_mask(grid), coverage_mask_by_rows(plane, grid)
            )

    def test_rows_beyond_the_orbits_reach_are_exercised(self):
        """The grid has rows past the turnaround, some in its street, some beyond."""
        plane = SSPlane(altitude_km=560.0, ltan_hours=10.5, satellite_count=30)
        grid = LatLocalTimeGrid(2.0, 1.0)
        ascending, _ = plane.path_local_time_hours(np.radians(grid.latitudes_deg))
        beyond = np.isnan(ascending)
        mask = plane.coverage_mask(grid)
        assert mask[beyond].any(axis=1).any()
        assert not mask[beyond].any(axis=1).all()
        np.testing.assert_array_equal(mask, coverage_mask_by_rows(plane, grid))

    @given(ltan=st.floats(0.0, 23.999), altitude=st.floats(400.0, 1500.0))
    @settings(max_examples=30, deadline=None)
    def test_equals_row_loop_property(self, ltan, altitude):
        plane = SSPlane(altitude_km=altitude, ltan_hours=ltan, satellite_count=30)
        grid = LatLocalTimeGrid(4.0, 2.0)
        np.testing.assert_array_equal(
            plane.coverage_mask(grid), coverage_mask_by_rows(plane, grid)
        )


class TestWalkerSizing:
    @pytest.mark.parametrize("altitude_km", GOLDEN_ALTITUDES_KM)
    def test_equals_candidate_loop_on_golden_grid(self, altitude_km):
        for inclination in GOLDEN_INCLINATIONS_DEG:
            check = {"grid_step_deg": 6.0, "time_samples": 6}
            assert minimum_walker_for_coverage(
                altitude_km, inclination, 25.0, **check
            ) == minimum_walker_by_candidates(altitude_km, inclination, 25.0, **check)

    @given(
        altitude=st.floats(700.0, 1600.0),
        inclination=st.floats(30.0, 150.0),
        time_samples=st.integers(1, 6),
    )
    @settings(max_examples=12, deadline=None)
    def test_equals_candidate_loop_property(self, altitude, inclination, time_samples):
        check = {"grid_step_deg": 8.0, "time_samples": time_samples}
        assert minimum_walker_for_coverage(
            altitude, inclination, 25.0, **check
        ) == minimum_walker_by_candidates(altitude, inclination, 25.0, **check)

    def test_both_first_check_outcomes_equal_candidate_loop(self, monkeypatch):
        """This search rejects some built candidates on the strided quarter of
        the test grid, and others whose only uncovered first-sample points
        lie off that quarter, so the full grid rejects them; the pattern it
        returns is the per-candidate oracle's."""
        checks = []
        uncovered_point = walker._uncovered_point

        def spy(points, sat_units, cos_floor):
            witness = uncovered_point(points, sat_units, cos_floor)
            checks.append((len(points), witness))
            return witness

        monkeypatch.setattr(walker, "_uncovered_point", spy)
        check = {"grid_step_deg": 6.0, "time_samples": 6}
        found = minimum_walker_for_coverage(560.0, 40.0, 25.0, **check)
        assert found == minimum_walker_by_candidates(560.0, 40.0, 25.0, **check)

        grid = walker._test_grid(6.0, 40.0)
        quarter = grid[:: walker._FIRST_CHECK_STRIDE]
        assert 0 < len(quarter) < len(grid)
        assert {size for size, _ in checks} == {len(quarter), len(grid)}
        assert any(size == len(quarter) and w is not None for size, w in checks)
        off_quarter = [w for size, w in checks if size == len(grid) and w is not None]
        assert off_quarter
        for witness in off_quarter:
            assert not (quarter == witness).all(axis=1).any()
        # The full grid is only checked after the quarter passed.
        for (size, witness), (next_size, _) in zip(checks, checks[1:]):
            if next_size == len(grid):
                assert size == len(quarter) and witness is None


    @pytest.mark.parametrize("inclination", SWEEP_INCLINATIONS_DEG)
    def test_blocked_cosines_keep_every_sweep_verdict(self, monkeypatch, inclination):
        """Every row-blocked best cosine a sweep sizing search computes gives
        each point the verdict the whole product gives, at the coverage
        threshold and at the witness floor, and the search returns the
        per-candidate oracle's pattern."""
        calls = []
        best_cosines = walker._best_cosines

        def spy(points, units):
            best = best_cosines(points, units)
            calls.append((points, units, best))
            return best

        monkeypatch.setattr(walker, "_best_cosines", spy)
        check = {"grid_step_deg": 6.0, "time_samples": 6}
        found = minimum_walker_for_coverage(560.0, inclination, 25.0, **check)
        monkeypatch.undo()
        assert found == minimum_walker_by_candidates(560.0, inclination, 25.0, **check)

        cos_half_angle = math.cos(coverage_half_angle_rad(560.0, 25.0))
        thresholds = (cos_half_angle, cos_half_angle - walker._WITNESS_MARGIN)
        assert any(len(points) > walker._COSINE_BLOCK_ROWS for points, _, _ in calls)
        for points, units, best in calls:
            whole = (points @ units).max(axis=1)
            np.testing.assert_allclose(best, whole, rtol=0, atol=1e-15)
            for threshold in thresholds:
                np.testing.assert_array_equal(best >= threshold, whole >= threshold)


class AscendingOnlyDesigner(GreedySSPlaneDesigner):
    """A designer with no descending branch, so every peak has one branch."""

    def _plane_for(self, latitude_deg, local_time_hours, ascending, *args):
        if not ascending:
            raise ValueError("no descending branch")
        return super()._plane_for(latitude_deg, local_time_hours, ascending, *args)


class TestDesignLoops:
    @pytest.mark.parametrize("multiplier", MULTIPLIERS)
    def test_greedy_equals_round_loop(self, sweep, multiplier):
        grid, result, _ = sweep[multiplier]
        assert result == greedy_design_by_rounds(GreedySSPlaneDesigner(), grid)

    @pytest.mark.parametrize("multiplier", MULTIPLIERS)
    def test_walker_equals_round_loop(self, sweep, multiplier):
        grid, _, result = sweep[multiplier]
        assert result == walker_design_by_rounds(DemandDrivenWalkerDesigner(), grid)

    def test_greedy_peak_branches_are_shared_across_designs(self, sweep, monkeypatch):
        """Designs with the same shell and grid build each peak cell's masks
        once: a repeated design builds none, and the whole sweep visits only
        a handful of peak cells, two masks each."""
        masks = []
        coverage_mask = SSPlane.coverage_mask

        def counting(plane, grid):
            masks.append(plane)
            return coverage_mask(plane, grid)

        monkeypatch.setattr(SSPlane, "coverage_mask", counting)
        _peak_branches.cache_clear()
        for multiplier in MULTIPLIERS:
            grid, expected, _ = sweep[multiplier]
            assert GreedySSPlaneDesigner().design(grid) == expected
        built = len(masks)
        assert 0 < built <= 2 * 12
        assert GreedySSPlaneDesigner().design(sweep[1000.0][0]) == sweep[1000.0][1]
        assert len(masks) == built
        # Another shell has other planes.
        GreedySSPlaneDesigner(altitude_km=600.0).design(sweep[10.0][0])
        assert len(masks) > built

    def test_greedy_stop_on_a_tiny_peak_with_a_larger_sum(self):
        """Three cells a hair above one unit, all on one plane's street: that
        plane leaves each below 1e-9 but their sum above it.  The round loop
        runs one more iteration (its sum test passes, its peak test stops
        it); the library, which sums only once the peak is that small, must
        count it too."""
        designer = GreedySSPlaneDesigner()
        grid = LatLocalTimeGrid(2.0, 1.0)
        peak_row, peak_col = grid.index_of(30.0, 20.5)
        plane = designer._plane_for(
            30.0, 20.5, True, SSPlane(560.0, 0.0, 1).inclination_rad, 1
        )
        covered = np.flatnonzero(plane.coverage_mask(grid))
        others = [cell for cell in covered if cell != peak_row * grid.n_time + peak_col][:2]
        grid.values.reshape(-1)[others] = 1.0 + 6e-10
        grid.values[peak_row, peak_col] = 1.0 + 7e-10
        result = designer.design(grid)
        assert result == greedy_design_by_rounds(GreedySSPlaneDesigner(), grid)
        assert (result.plane_count, result.iterations) == (1, 2)
        assert 1e-9 < result.residual_demand < 3e-9 and not result.satisfied

    def test_greedy_single_branch_peaks_equal_round_loop(self, sweep):
        grid = sweep[30.0][0]
        result = AscendingOnlyDesigner().design(grid)
        assert result.satisfied and result.plane_count > 0
        assert result == greedy_design_by_rounds(AscendingOnlyDesigner(), grid)
        assert result != sweep[30.0][1]

    def test_greedy_peak_with_no_branch_equals_round_loop(self):
        """A cell past the orbit's turnaround latitude but inside its street
        (83 and 85 deg here) is not clipped up front, yet no plane's path
        crosses it: as a peak it has no branch and is zeroed as residual."""
        designer = GreedySSPlaneDesigner()
        grid = LatLocalTimeGrid(2.0, 1.0)
        cells = ((85.0, 3.5, 4.0), (83.0, 20.5, 2.5), (30.0, 20.5, 3.0))
        for latitude, local_time, demand in cells:
            row, col = grid.index_of(latitude, local_time)
            grid.values[row, col] = demand
        for latitude in (83.0, 85.0):
            for ascending in (True, False):
                with pytest.raises(ValueError):
                    designer._plane_for(
                        latitude, 0.5, ascending, SSPlane(560.0, 0.0, 1).inclination_rad, 1
                    )
        result = designer.design(grid)
        assert result == greedy_design_by_rounds(GreedySSPlaneDesigner(), grid)
        assert result.residual_demand == 6.5
        assert result.plane_count == 3
        assert result.iterations == 5


class FixedInclinationDesigner(DemandDrivenWalkerDesigner):
    """Every shell at one inclination, however high the peak cell lies."""

    inclination = 30.0

    def _shell_for_latitude(self, latitude_deg, shell_index):
        shell = super()._shell_for_latitude(self.inclination, shell_index)
        return replace(shell, pattern=replace(shell.pattern, inclination_deg=self.inclination))


class TestWalkerFastForward:
    """Repeats on one peak are added at once, equal to stepping shell by shell."""

    @staticmethod
    def grid_with(cells, lat_resolution_deg=4.0) -> LatLocalTimeGrid:
        grid = LatLocalTimeGrid(lat_resolution_deg, 2.0)
        for latitude, local_time, value in cells:
            row, col = grid.index_of(latitude, local_time)
            grid.values[row, col] = value
        return grid

    def assert_equals_step_loop(self, designer, grid) -> WalkerBaselineResult:
        result = designer.design(grid)
        assert result == walker_design_by_rounds(designer, grid)
        return result

    @pytest.mark.parametrize("outside", [2.0, 2.25, 3.0, 5.0, 5.5])
    @pytest.mark.parametrize("side", [-62.0, 62.0])
    def test_ties_with_a_cell_outside_the_band(self, outside, side):
        """The peak at 30 deg (band up to 32.5 deg) against a cell at -62 deg
        (lower flat index: wins ties) or +62 deg (higher: loses them)."""
        grid = self.grid_with([(30.0, 21.0, 5.0), (side, 3.0, outside), (10.0, 9.0, 5.0)])
        result = self.assert_equals_step_loop(DemandDrivenWalkerDesigner(), grid)
        assert result.satisfied and result.shell_count >= 5

    @pytest.mark.parametrize("seed", range(25))
    def test_random_grids_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        grid = LatLocalTimeGrid(4.0, 2.0)
        cells = rng.random(grid.values.shape) < 0.04
        # Quarter units collide often, so peaks tie across rows and bands.
        grid.values[cells] = rng.integers(1, 48, int(cells.sum())) / 4.0
        grid.values[rng.random(grid.values.shape) < 0.01] += 1e-9
        self.assert_equals_step_loop(DemandDrivenWalkerDesigner(), grid)

    @pytest.mark.parametrize("max_shells", [1, 2, 3, 5, 6])
    def test_shell_cap_stops_inside_a_run_of_repeats(self, max_shells):
        grid = self.grid_with([(30.0, 21.0, 6.5), (50.0, 3.0, 2.0)])
        designer = DemandDrivenWalkerDesigner(max_shells=max_shells)
        result = self.assert_equals_step_loop(designer, grid)
        assert result.shell_count == result.iterations == max_shells
        assert not result.satisfied

    def test_tiny_remainder_ends_with_an_empty_iteration(self):
        """Three shells leave each cell ~6e-10: the sum passes the loop test,
        the peak test stops the fourth iteration."""
        grid = self.grid_with([(30.0, hour, 3.0 + 6e-10) for hour in (1.0, 5.0, 9.0)])
        result = self.assert_equals_step_loop(DemandDrivenWalkerDesigner(), grid)
        assert (result.shell_count, result.iterations) == (3, 4)

    def test_empty_band_steps_one_shell_at_a_time(self):
        """Rows at +-45 deg only, shells at 30 deg: no row is served, so the
        peak draws shells until the cap."""
        designer = FixedInclinationDesigner(max_shells=6)
        grid = self.grid_with([(45.0, 21.0, 2.0)], lat_resolution_deg=90.0)
        result = self.assert_equals_step_loop(designer, grid)
        assert result.shell_count == 6 and result.residual_demand == 2.0

    def test_peak_outside_a_non_empty_band(self):
        designer = FixedInclinationDesigner(max_shells=5)
        grid = self.grid_with([(45.0, 21.0, 2.0), (15.0, 9.0, 3.0)], lat_resolution_deg=30.0)
        result = self.assert_equals_step_loop(designer, grid)
        assert result.shell_count == 5 and result.residual_demand == 2.0


class TestFluenceMemo:
    @staticmethod
    def orbits():
        return [
            OrbitalElements.circular(560.0 + 10.0 * (k % 3), 53.0 + 5.0 * (k % 2), raan_deg=0.0)
            for k in range(6)
        ]

    def test_shared_calculator_matches_a_fresh_one_every_call(self, sweep):
        shared = MetricsCalculator(exposure=ExposureCalculator())
        for _, ss, walker in sweep.values():
            for design, method in ((ss, "for_ssplane"), (walker, "for_walker")):
                fresh = MetricsCalculator(exposure=ExposureCalculator())
                assert getattr(shared, method)(design) == getattr(fresh, method)(design)

    def test_second_call_on_the_same_orbits_evaluates_nothing(self):
        exposure = CountingExposure()
        first = exposure.constellation_fluences(self.orbits())
        assert exposure.evaluated == 6  # three altitudes x two inclinations
        second = exposure.constellation_fluences(self.orbits())
        assert exposure.evaluated == 6
        assert second == first

    def test_first_orbit_of_a_rounded_key_wins_within_a_call(self):
        """The per-call cache still maps near-identical orbits to the first one."""
        exposure = CountingExposure()
        near = [
            OrbitalElements.circular(560.0, 53.0, raan_deg=raan) for raan in (10.0, 10.04)
        ]
        fluences = exposure.constellation_fluences(near)
        assert exposure.evaluated == 1
        assert fluences[1] == fluences[0] == exposure.daily_fluence(near[0])

    def test_changed_setting_invalidates_the_memo(self):
        exposure = CountingExposure()
        orbit = [OrbitalElements.circular(560.0, 53.0)]
        before = exposure.constellation_fluences(orbit)
        exposure.electron_modulation = 2.0
        after = exposure.constellation_fluences(orbit)
        assert exposure.evaluated == 2
        assert after[0] != before[0]
        assert after[0] == ExposureCalculator(electron_modulation=2.0).daily_fluence(orbit[0])
