"""Tests of Walker-delta generation, coverage checking and sizing."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from repro.constants import EARTH_RADIUS_KM
from repro.coverage import walker
from repro.coverage.footprint import coverage_half_angle_rad
from repro.coverage.walker import (
    WalkerDelta,
    circular_positions_eci,
    coverage_fraction,
    is_continuously_covered,
    minimum_walker_for_coverage,
    streets_of_coverage_size,
)


class TestWalkerDelta:
    def test_satellite_count(self):
        wd = WalkerDelta(560.0, 53.0, total_satellites=66, planes=6, phasing=1)
        assert len(wd.satellite_elements()) == 66
        assert wd.satellites_per_plane == 11

    def test_validation(self):
        with pytest.raises(ValueError):
            WalkerDelta(560.0, 53.0, total_satellites=10, planes=3)
        with pytest.raises(ValueError):
            WalkerDelta(560.0, 53.0, total_satellites=12, planes=3, phasing=3)

    def test_nan_altitude_rejected(self):
        with pytest.raises(ValueError, match="altitude_km .* got nan"):
            WalkerDelta(math.nan, 53.0, total_satellites=24, planes=3)

    def test_nan_inclination_rejected(self):
        with pytest.raises(ValueError, match=r"inclination_deg .* \[0, 180\], got nan"):
            WalkerDelta(560.0, math.nan, total_satellites=24, planes=3)

    def test_inclination_outside_range_rejected(self):
        with pytest.raises(ValueError, match="inclination_deg .* got 181.0"):
            WalkerDelta(560.0, 181.0, total_satellites=24, planes=3)

    def test_float_total_rejected(self):
        with pytest.raises(ValueError, match="total_satellites .* got 24.0"):
            WalkerDelta(560.0, 53.0, total_satellites=24.0, planes=3)

    @pytest.mark.parametrize("name", ["total_satellites", "planes"])
    def test_bool_count_rejected(self, name):
        counts = {"total_satellites": 1, "planes": 1, "phasing": 0, name: True}
        with pytest.raises(ValueError, match=f"{name} must be an integer, got True"):
            WalkerDelta(560.0, 53.0, **counts)

    def test_numpy_integer_counts_stored_as_int(self):
        wd = WalkerDelta(
            560.0,
            53.0,
            total_satellites=np.int64(24),
            planes=np.int32(3),
            phasing=np.int64(1),
        )
        assert type(wd.total_satellites) is type(wd.planes) is type(wd.phasing) is int
        assert wd.satellites_per_plane == 8

    def test_planes_evenly_spread(self):
        wd = WalkerDelta(560.0, 53.0, total_satellites=12, planes=4, phasing=1)
        raans = sorted({round(e.raan_deg, 6) for e in wd.satellite_elements()})
        assert raans == pytest.approx([0.0, 90.0, 180.0, 270.0])

    def test_all_share_inclination_and_altitude(self):
        wd = WalkerDelta(700.0, 65.0, total_satellites=20, planes=5, phasing=2)
        for elements in wd.satellite_elements():
            assert elements.inclination_deg == pytest.approx(65.0)
            assert elements.altitude_km == pytest.approx(700.0)

    def test_raan_and_phase_arrays_match_elements(self):
        wd = WalkerDelta(560.0, 53.0, total_satellites=12, planes=3, phasing=1)
        raan, phase = wd.raan_and_phase_rad()
        elements = wd.satellite_elements()
        np.testing.assert_allclose(raan, [e.raan_rad for e in elements], atol=1e-12)
        np.testing.assert_allclose(
            phase % (2 * math.pi), [e.true_anomaly_rad for e in elements], atol=1e-12
        )


class TestPositions:
    def test_radius(self):
        positions = circular_positions_eci(
            560.0, math.radians(53.0), np.array([0.0, 1.0]), np.array([0.0, 2.0])
        )
        radii = np.linalg.norm(positions, axis=1)
        np.testing.assert_allclose(radii, EARTH_RADIUS_KM + 560.0)

    def test_equator_start(self):
        positions = circular_positions_eci(560.0, math.radians(53.0), np.array([0.0]), np.array([0.0]))
        assert positions[0, 2] == pytest.approx(0.0)
        assert positions[0, 0] == pytest.approx(EARTH_RADIUS_KM + 560.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            circular_positions_eci(560.0, 1.0, np.zeros(3), np.zeros(4))


class TestCoverage:
    def test_single_satellite_covers_fraction(self):
        positions = circular_positions_eci(
            560.0, math.radians(0.0), np.array([0.0]), np.array([0.0])
        )
        half_angle = coverage_half_angle_rad(560.0, 25.0)
        fraction = coverage_fraction(positions, half_angle, grid_step_deg=5.0)
        assert 0.0 < fraction < 0.05

    def test_many_satellites_cover_more(self):
        wd_small = WalkerDelta(1200.0, 80.0, total_satellites=40, planes=5, phasing=1)
        wd_large = WalkerDelta(1200.0, 80.0, total_satellites=200, planes=10, phasing=1)
        half_angle = coverage_half_angle_rad(1200.0, 25.0)

        def fraction(wd):
            raan, phase = wd.raan_and_phase_rad()
            positions = circular_positions_eci(
                wd.altitude_km, math.radians(wd.inclination_deg), raan, phase
            )
            return coverage_fraction(positions, half_angle, grid_step_deg=6.0)

        assert fraction(wd_large) > fraction(wd_small)

    def test_continuous_coverage_check(self):
        # A generously sized constellation passes; a tiny one fails.
        big = WalkerDelta(1215.0, 65.0, total_satellites=300, planes=15, phasing=1)
        tiny = WalkerDelta(1215.0, 65.0, total_satellites=30, planes=5, phasing=1)
        assert is_continuously_covered(big, 25.0, grid_step_deg=8.0, time_samples=4)
        assert not is_continuously_covered(tiny, 25.0, grid_step_deg=8.0, time_samples=4)

    @pytest.mark.parametrize(
        "position", [[0.0, 0.0, 0.0], [np.nan, 1.0, 0.0], [np.inf, 0.0, 0.0]]
    )
    def test_degenerate_position_rejected(self, position):
        # A zero or non-finite position has no direction: its cosines are NaN.
        positions = np.array([[EARTH_RADIUS_KM + 560.0, 0.0, 0.0], position])
        with pytest.raises(ValueError, match="positions must be finite and non-zero, got row 1"):
            coverage_fraction(positions, 0.3)

    def test_no_satellite_covers_nothing(self):
        assert coverage_fraction(np.empty((0, 3)), 0.3) == 0.0

    def test_one_degree_check_memory_is_bounded(self):
        # A 1,584-satellite shell on a 1-degree grid (38,160 points): the
        # whole grid x satellites product is 483 MB, and the check traced
        # 520 MB before it was formed one block of rows at a time.
        shell = WalkerDelta(550.0, 53.0, total_satellites=1584, planes=72, phasing=1)
        tracemalloc.start()
        try:
            covered = is_continuously_covered(shell, 25.0, grid_step_deg=1.0, time_samples=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert covered
        assert peak < 50e6


class TestBestCosines:
    """The row-blocked best cosine against the whole product it replaces."""

    UNITS = walker._sample_unit_vectors(WalkerDelta(560.0, 55.0, 462, 22, phasing=1), 0, 6)

    @pytest.mark.parametrize("rows", [1, 37, walker._COSINE_BLOCK_ROWS])
    def test_one_block_is_bit_identical(self, rows):
        points = walker._test_grid(6.0, 55.0)[:rows]
        best = walker._best_cosines(points, self.UNITS)
        np.testing.assert_array_equal(best, (points @ self.UNITS).max(axis=1))

    @pytest.mark.parametrize("step_deg", [6.0, 2.0])
    def test_many_blocks_agree_to_last_bits(self, step_deg):
        points = walker._test_grid(step_deg, 55.0)
        assert len(points) > walker._COSINE_BLOCK_ROWS
        best = walker._best_cosines(points, self.UNITS)
        np.testing.assert_allclose(best, (points @ self.UNITS).max(axis=1), rtol=0, atol=1e-15)

    def test_no_unit_vector_gives_minus_infinity(self):
        points = walker._test_grid(6.0, 55.0)
        assert np.all(walker._best_cosines(points, np.empty((3, 0))) == -np.inf)


def _exhaustive_minimum_walker(altitude_km, inclination_deg, **check) -> WalkerDelta:
    """The sizing search without witness pruning: every candidate runs the full check."""
    seed_planes, seed_sats = streets_of_coverage_size(altitude_km, inclination_deg, 25.0)
    lam = coverage_half_angle_rad(altitude_km, 25.0)
    min_sats = max(3, int(math.ceil(math.pi / lam)))
    candidates = sorted(
        (
            (planes * sats, planes)
            for planes in range(2, max(seed_planes * 3, 8) + 1)
            for sats in range(min_sats, max(seed_sats * 3, min_sats + 10) + 1)
        ),
        key=lambda item: item[0],
    )
    for total, planes in candidates:
        pattern = WalkerDelta(altitude_km, inclination_deg, total, planes, phasing=1)
        if is_continuously_covered(pattern, 25.0, **check):
            return pattern
    raise AssertionError("no candidate covers")


class TestSizing:
    def test_streets_of_coverage_seed(self):
        planes, per_plane = streets_of_coverage_size(1215.0, 65.0, 25.0)
        assert planes >= 5
        assert per_plane >= 10

    def test_minimum_walker_1215_km(self):
        wd = minimum_walker_for_coverage(1215.0, 65.0, 25.0, grid_step_deg=6.0, time_samples=5)
        # The paper quotes >= 200 satellites for uniform coverage at 1215 km;
        # our numerical sizing lands in the 120-260 range depending on the
        # latitude band required -- the important invariant is the magnitude.
        assert 100 <= wd.total_satellites <= 300

    def test_minimum_walker_decreases_with_altitude(self):
        low = minimum_walker_for_coverage(600.0, 65.0, 25.0, grid_step_deg=6.0, time_samples=5)
        high = minimum_walker_for_coverage(1600.0, 65.0, 25.0, grid_step_deg=6.0, time_samples=5)
        assert high.total_satellites < low.total_satellites

    def test_result_actually_covers(self):
        wd = minimum_walker_for_coverage(1215.0, 65.0, 25.0, grid_step_deg=6.0, time_samples=5)
        assert is_continuously_covered(wd, 25.0, grid_step_deg=6.0, time_samples=5)

    @pytest.mark.parametrize(
        "altitude_km, inclination_deg, lat_limit_deg",
        [(1215.0, 65.0, None), (1215.0, 80.0, 50.0), (800.0, 40.0, None)],
    )
    def test_pruned_search_matches_exhaustive_search(
        self, altitude_km, inclination_deg, lat_limit_deg
    ):
        check = {"lat_limit_deg": lat_limit_deg, "grid_step_deg": 8.0, "time_samples": 4}
        assert minimum_walker_for_coverage(
            altitude_km, inclination_deg, 25.0, **check
        ) == _exhaustive_minimum_walker(altitude_km, inclination_deg, **check)


class TestSizingValidation:
    """Settings that would make a coverage check vacuous are rejected."""

    PATTERN = WalkerDelta(560.0, 65.0, total_satellites=42, planes=2, phasing=1)

    @pytest.mark.parametrize(
        "settings, match",
        [
            ({"time_samples": 0}, "time_samples must be at least 1, got 0"),
            ({"time_samples": -3}, "time_samples must be at least 1, got -3"),
            ({"grid_step_deg": -6.0}, "grid_step_deg must be finite and positive, got -6.0"),
            ({"grid_step_deg": 0.0}, "grid_step_deg must be finite and positive, got 0.0"),
            ({"grid_step_deg": float("nan")}, "grid_step_deg must be finite and positive, got nan"),
            ({"grid_step_deg": float("inf")}, "grid_step_deg must be finite and positive, got inf"),
            ({"lat_limit_deg": 0.0}, "test grid is empty: grid_step_deg=6.0 .* lat_limit_deg=0.0"),
            ({"lat_limit_deg": 1.0}, "test grid is empty: grid_step_deg=6.0 .* lat_limit_deg=1.0"),
        ],
    )
    def test_vacuous_check_rejected(self, settings, match):
        # At 560 km / 65 deg these settings used to return a 42-satellite,
        # 2-plane pattern (the right answer is 462): zero samples or an empty
        # grid tested nothing, and a NaN mean read as covered.
        check = {"grid_step_deg": 6.0, "time_samples": 6, **settings}
        with pytest.raises(ValueError, match=match):
            minimum_walker_for_coverage(560.0, 65.0, 25.0, **check)
        with pytest.raises(ValueError, match=match):
            is_continuously_covered(self.PATTERN, 25.0, **check)

    @pytest.mark.parametrize(
        "settings, match",
        [
            ({"grid_step_deg": -5.0}, "grid_step_deg must be finite and positive, got -5.0"),
            ({"lat_limit_deg": 1.0, "grid_step_deg": 6.0}, "test grid is empty"),
        ],
    )
    def test_coverage_fraction_of_an_empty_grid_rejected(self, settings, match):
        # The mean over no grid point used to come back as NaN.
        positions = np.array([[EARTH_RADIUS_KM + 560.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match=match):
            coverage_fraction(positions, 0.3, **settings)

    def test_equatorial_pattern_has_no_default_test_grid(self):
        equatorial = WalkerDelta(560.0, 0.0, total_satellites=42, planes=2, phasing=1)
        with pytest.raises(ValueError, match="test grid is empty"):
            is_continuously_covered(equatorial, 25.0)

    @pytest.mark.parametrize("max_total", [0, -5])
    def test_non_positive_max_total_rejected(self, max_total):
        with pytest.raises(ValueError, match=f"max_total must be positive, got {max_total}"):
            minimum_walker_for_coverage(560.0, 65.0, 25.0, max_total=max_total)

    def test_sample_zero_is_computed_once_for_the_returned_pattern(self, monkeypatch):
        calls = []
        best_cosines = walker._best_cosines

        def spy(points, units):
            calls.append((points, units.copy()))
            return best_cosines(points, units)

        monkeypatch.setattr(walker, "_best_cosines", spy)
        pattern = minimum_walker_for_coverage(560.0, 65.0, 25.0, grid_step_deg=6.0, time_samples=6)
        grid = walker._test_grid(6.0, 65.0)
        full_grid = [units for points, units in calls if points is grid]
        snapshots = [walker._sample_unit_vectors(pattern, sample, 6) for sample in range(6)]
        # The accepted pattern's checks come last: each snapshot once, in order.
        assert len(calls[-6:]) == len(full_grid[-6:]) == 6
        for units, snapshot in zip(full_grid[-6:], snapshots):
            np.testing.assert_array_equal(units, snapshot)
        assert sum(np.array_equal(units, snapshots[0]) for units in full_grid) == 1
        monkeypatch.undo()
        assert is_continuously_covered(pattern, 25.0, grid_step_deg=6.0, time_samples=6)

    def test_560_km_65_deg_needs_462_satellites(self):
        pattern = minimum_walker_for_coverage(560.0, 65.0, 25.0, grid_step_deg=6.0, time_samples=6)
        assert (pattern.total_satellites, pattern.planes) == (462, 22)
