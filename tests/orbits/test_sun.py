"""Tests of the low-precision solar ephemeris."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.constants import AU_KM
from repro.orbits.sun import (
    solar_declination_rad,
    solar_right_ascension_rad,
    sun_direction_eci,
    sun_position_eci,
    subsolar_point,
)
from repro.orbits.time import Epoch


class TestSunDirection:
    def test_unit_vector(self):
        direction = sun_direction_eci(Epoch.from_calendar(2025, 7, 1))
        assert np.linalg.norm(direction) == pytest.approx(1.0)

    def test_distance_about_one_au(self):
        for month in (1, 4, 7, 10):
            distance = np.linalg.norm(sun_position_eci(Epoch.from_calendar(2025, month, 1)))
            assert distance == pytest.approx(AU_KM, rel=0.02)

    def test_perihelion_closer_than_aphelion(self):
        january = np.linalg.norm(sun_position_eci(Epoch.from_calendar(2025, 1, 3)))
        july = np.linalg.norm(sun_position_eci(Epoch.from_calendar(2025, 7, 4)))
        assert january < july


class TestDeclination:
    def test_march_equinox(self):
        declination = solar_declination_rad(Epoch.from_calendar(2025, 3, 20, 12))
        assert math.degrees(declination) == pytest.approx(0.0, abs=0.5)

    def test_june_solstice(self):
        declination = solar_declination_rad(Epoch.from_calendar(2025, 6, 21))
        assert math.degrees(declination) == pytest.approx(23.4, abs=0.2)

    def test_december_solstice(self):
        declination = solar_declination_rad(Epoch.from_calendar(2025, 12, 21))
        assert math.degrees(declination) == pytest.approx(-23.4, abs=0.2)

    def test_right_ascension_range(self):
        for month in range(1, 13):
            ra = solar_right_ascension_rad(Epoch.from_calendar(2025, month, 15))
            assert 0.0 <= ra < 2.0 * math.pi

    def test_julian_date_array_matches_each_epoch(self):
        jds = Epoch.from_calendar(2025, 1, 1).jd + np.linspace(0.0, 400.0, 97)
        right_ascensions = solar_right_ascension_rad(jds)
        directions = sun_direction_eci(jds)
        assert right_ascensions.shape == (97,)
        assert directions.shape == (97, 3)
        for index, jd in enumerate(jds):
            assert right_ascensions[index] == solar_right_ascension_rad(Epoch(jd))
            assert np.array_equal(directions[index], sun_direction_eci(Epoch(jd)))
        assert isinstance(solar_right_ascension_rad(Epoch(jds[0])), float)


class TestSubsolarPoint:
    def test_latitude_equals_declination(self):
        epoch = Epoch.from_calendar(2025, 8, 1, 9)
        lat, _ = subsolar_point(epoch)
        assert lat == pytest.approx(solar_declination_rad(epoch))

    def test_noon_utc_subsolar_near_greenwich(self):
        # At 12:00 UT the subsolar point is within the equation-of-time range
        # (about +-4 degrees) of the Greenwich meridian.
        _, lon = subsolar_point(Epoch.from_calendar(2025, 3, 20, 12))
        assert abs(math.degrees(lon)) < 5.0

    def test_moves_westward(self):
        epoch = Epoch.from_calendar(2025, 3, 20, 12)
        _, lon1 = subsolar_point(epoch)
        _, lon2 = subsolar_point(epoch.add_seconds(3600.0))
        westward = (math.degrees(lon1 - lon2)) % 360.0
        assert westward == pytest.approx(15.0, abs=0.5)
