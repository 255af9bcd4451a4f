"""The design sweep's fast paths against the straightforward versions.

``design_oracles.py`` keeps the per-row mask loop, the per-candidate sizing
search and the round-by-round design loops.  These tests assert that the
library returns exactly what they return: equal masks, equal sizing
patterns, and equal design results field for field.  They also pin the two
cache levels of ``ExposureCalculator.constellation_fluences``.
"""

from __future__ import annotations

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
from repro.core.greedy_cover import GreedySSPlaneDesigner
from repro.core.metrics import MetricsCalculator
from repro.core.ssplane import SSPlane
from repro.core.walker_baseline import DemandDrivenWalkerDesigner
from repro.coverage.grid import LatLocalTimeGrid
from repro.coverage.walker import minimum_walker_for_coverage
from repro.orbits.elements import OrbitalElements
from repro.radiation.exposure import ExposureCalculator

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


class TestDesignLoops:
    @pytest.mark.parametrize("multiplier", MULTIPLIERS)
    def test_greedy_equals_round_loop(self, sweep, multiplier):
        grid, result, _ = sweep[multiplier]
        assert result == greedy_design_by_rounds(GreedySSPlaneDesigner(), grid)

    @pytest.mark.parametrize("multiplier", MULTIPLIERS)
    def test_walker_equals_round_loop(self, sweep, multiplier):
        grid, _, result = sweep[multiplier]
        assert result == walker_design_by_rounds(DemandDrivenWalkerDesigner(), grid)


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
