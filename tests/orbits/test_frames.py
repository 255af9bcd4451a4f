"""Tests of frame conversions and the sun-fixed chart."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.constants import EARTH_RADIUS_KM
from repro.orbits.frames import (
    ecef_to_eci,
    ecef_to_geodetic,
    eci_to_ecef,
    eci_to_latlon,
    eci_to_sunfixed,
    geodetic_to_ecef,
    great_circle_distance_rad,
    local_solar_time_hours,
    local_time_to_sunfixed_longitude,
    sunfixed_longitude_to_local_time,
)
from repro.orbits.sun import subsolar_point
from repro.orbits.time import Epoch


class TestGeodetic:
    @given(
        st.floats(min_value=-math.pi / 2 + 0.01, max_value=math.pi / 2 - 0.01),
        st.floats(min_value=-math.pi, max_value=math.pi - 1e-6),
        st.floats(min_value=0.0, max_value=2000.0),
    )
    def test_round_trip(self, lat, lon, alt):
        position = geodetic_to_ecef(lat, lon, alt)
        lat2, lon2, alt2 = ecef_to_geodetic(position)
        assert lat2 == pytest.approx(lat, abs=1e-9)
        assert lon2 == pytest.approx(lon, abs=1e-9)
        assert alt2 == pytest.approx(alt, abs=1e-6)

    def test_equator_prime_meridian(self):
        position = geodetic_to_ecef(0.0, 0.0, 0.0)
        np.testing.assert_allclose(position, [EARTH_RADIUS_KM, 0.0, 0.0], atol=1e-9)

    def test_north_pole(self):
        position = geodetic_to_ecef(math.pi / 2, 0.0, 100.0)
        assert position[2] == pytest.approx(EARTH_RADIUS_KM + 100.0)

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            ecef_to_geodetic(np.zeros(3))
        with pytest.raises(ValueError):
            ecef_to_geodetic(np.array([[7000.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))

    def test_one_position_returns_floats(self):
        coordinates = ecef_to_geodetic(geodetic_to_ecef(0.3, -1.2, 500.0))
        assert all(type(value) is float for value in coordinates)

    def test_stacked_positions_match_each_row(self):
        positions = np.random.default_rng(3).normal(size=(4, 6, 3)) * 7000.0
        latitudes, longitudes, altitudes = ecef_to_geodetic(positions)
        assert latitudes.shape == longitudes.shape == altitudes.shape == (4, 6)
        for index in np.ndindex(4, 6):
            assert (latitudes[index], longitudes[index], altitudes[index]) == pytest.approx(
                ecef_to_geodetic(positions[index]), abs=1e-12
            )

    def test_trailing_axis_checked(self):
        with pytest.raises(ValueError, match="trailing axis"):
            ecef_to_geodetic(np.zeros((2, 4)))


class TestEciEcef:
    def test_round_trip(self, epoch):
        position = np.array([7000.0, -1500.0, 3000.0])
        recovered = ecef_to_eci(eci_to_ecef(position, epoch), epoch)
        np.testing.assert_allclose(recovered, position, atol=1e-9)

    def test_rotation_preserves_length(self, epoch):
        position = np.array([7000.0, -1500.0, 3000.0])
        assert np.linalg.norm(eci_to_ecef(position, epoch)) == pytest.approx(
            np.linalg.norm(position)
        )

    def test_z_axis_unchanged(self, epoch):
        position = np.array([0.0, 0.0, 7000.0])
        np.testing.assert_allclose(eci_to_ecef(position, epoch), position, atol=1e-9)

    def test_batch_shape(self, epoch):
        positions = np.random.default_rng(0).normal(size=(10, 3)) * 7000.0
        converted = eci_to_ecef(positions, epoch)
        assert converted.shape == (10, 3)


class TestLocalSolarTime:
    def test_subsolar_point_is_local_noon(self, epoch):
        _, subsolar_lon = subsolar_point(epoch)
        assert local_solar_time_hours(subsolar_lon, epoch) == pytest.approx(12.0, abs=0.1)

    def test_antipode_is_local_midnight(self, epoch):
        _, subsolar_lon = subsolar_point(epoch)
        midnight = local_solar_time_hours(subsolar_lon + math.pi, epoch)
        assert midnight == pytest.approx(0.0, abs=0.1) or midnight == pytest.approx(
            24.0, abs=0.1
        )

    def test_fifteen_degrees_per_hour(self, epoch):
        base = local_solar_time_hours(0.0, epoch)
        east = local_solar_time_hours(math.radians(15.0), epoch)
        assert (east - base) % 24.0 == pytest.approx(1.0, abs=1e-6)

    def test_julian_date_array_matches_each_epoch(self, epoch):
        seconds = np.linspace(0.0, 2.0 * 86400.0, 49)
        jds = epoch.jd + seconds / 86400.0
        positions = np.random.default_rng(5).normal(size=(49, 3)) * 7000.0
        latitudes, longitudes, _ = eci_to_latlon(positions, jds)
        sun_latitudes, local_times, _ = eci_to_sunfixed(positions, jds)
        assert np.array_equal(sun_latitudes, latitudes)
        assert np.array_equal(local_times, local_solar_time_hours(longitudes, jds))
        for index, t in enumerate(seconds):
            at = epoch.add_seconds(float(t))
            assert at.jd == jds[index]
            lat, lon, _ = eci_to_latlon(positions[index], at)
            assert (latitudes[index], longitudes[index]) == pytest.approx((lat, lon), abs=1e-12)
            assert local_times[index] == pytest.approx(
                local_solar_time_hours(lon, at), abs=1e-11
            )

    @given(st.floats(min_value=0.0, max_value=24.0 - 1e-9))
    def test_sunfixed_longitude_round_trip(self, local_time):
        longitude = local_time_to_sunfixed_longitude(local_time)
        assert sunfixed_longitude_to_local_time(longitude) == pytest.approx(
            local_time, abs=1e-9
        )


class TestGreatCircle:
    def test_equator_quarter(self):
        assert great_circle_distance_rad(0.0, 0.0, 0.0, math.pi / 2) == pytest.approx(
            math.pi / 2
        )

    def test_symmetric(self):
        d1 = great_circle_distance_rad(0.1, 0.2, -0.4, 1.0)
        d2 = great_circle_distance_rad(-0.4, 1.0, 0.1, 0.2)
        assert d1 == pytest.approx(d2)

    def test_coincident_points(self):
        assert great_circle_distance_rad(0.5, 1.0, 0.5, 1.0) == 0.0
