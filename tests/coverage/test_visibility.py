"""Tests of ground-site visibility computations."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.constants import EARTH_RADIUS_KM
from repro.coverage.visibility import elevation_and_slant_range, visibility_windows
from repro.network.ground_station import GroundStation, visibility_mask
from repro.orbits.elements import OrbitalElements
from repro.orbits.frames import geodetic_to_ecef


class TestElevation:
    def test_zenith_pass(self):
        site_lat, site_lon = math.radians(10.0), math.radians(45.0)
        overhead = geodetic_to_ecef(site_lat, site_lon, 560.0)
        elevation, _ = elevation_and_slant_range(geodetic_to_ecef(site_lat, site_lon), overhead)
        assert math.degrees(elevation) == pytest.approx(90.0, abs=1e-6)

    def test_antipodal_satellite_below_horizon(self):
        site_lat, site_lon = math.radians(10.0), math.radians(45.0)
        antipode = geodetic_to_ecef(-site_lat, site_lon + math.pi, 560.0)
        elevation, _ = elevation_and_slant_range(geodetic_to_ecef(site_lat, site_lon), antipode)
        assert elevation < 0.0

    def test_slant_range_at_zenith(self):
        site_lat, site_lon = 0.3, -1.0
        overhead = geodetic_to_ecef(site_lat, site_lon, 800.0)
        _, slant_km = elevation_and_slant_range(geodetic_to_ecef(site_lat, site_lon), overhead)
        assert slant_km == pytest.approx(800.0, rel=1e-9)

    def test_is_visible_threshold(self):
        station = GroundStation("test", 0.0, 0.0, min_elevation_deg=80.0)
        overhead = geodetic_to_ecef(0.0, 0.0, 560.0)
        visible, _ = visibility_mask(station, overhead)
        assert visible
        assert station.can_see(overhead)

    def test_coincident_position_rejected(self):
        station = GroundStation("test", 0.0, 0.0)
        with pytest.raises(ValueError):
            station.elevation_to_rad(station.position_ecef_km())

    def test_stacked_positions_keep_their_leading_axes(self):
        site = geodetic_to_ecef(0.2, 0.4)
        positions = np.random.default_rng(0).normal(size=(4, 5, 3)) * (EARTH_RADIUS_KM + 560.0)
        elevation, slant_km = elevation_and_slant_range(site, positions)
        assert elevation.shape == slant_km.shape == (4, 5)
        one, _ = elevation_and_slant_range(site, positions[2, 3])
        assert elevation[2, 3] == pytest.approx(one, abs=1e-12)

    def test_trailing_axis_checked(self):
        with pytest.raises(ValueError, match="trailing axis"):
            elevation_and_slant_range(geodetic_to_ecef(0.0, 0.0), np.zeros((3, 2)))


class TestVisibilityWindows:
    def test_leo_pass_durations(self, epoch):
        # A 560 km satellite passing over a mid-latitude site produces passes
        # of at most ~10 minutes above a 25-degree mask.
        elements = OrbitalElements.circular(560.0, 65.0)
        windows = visibility_windows(
            elements, epoch, 45.0, 0.0, duration_s=6 * 3600.0, step_s=30.0,
            min_elevation_deg=25.0,
        )
        assert windows
        for window in windows:
            assert window.duration_s <= 12 * 60.0

    def test_station_outside_inclination_band_sees_nothing(self, epoch):
        elements = OrbitalElements.circular(560.0, 30.0)
        windows = visibility_windows(
            elements, epoch, 80.0, 0.0, duration_s=2 * 3600.0, step_s=60.0
        )
        assert windows == []

    def test_step_validation(self, epoch):
        elements = OrbitalElements.circular(560.0, 65.0)
        with pytest.raises(ValueError):
            visibility_windows(elements, epoch, 45.0, 0.0, 3600.0, step_s=0.0)
