"""Tests of ISL feasibility and ground-station primitives."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.constants import EARTH_RADIUS_KM
from repro.network.ground_station import (
    GroundStation,
    default_ground_stations,
    visible_satellites,
)
from repro.network.isl import ISLConfig, grazing_altitude_km, isl_feasible, propagation_delay_ms


class TestISL:
    def test_propagation_delay(self):
        # ~3.336 microseconds per km -> 1000 km is ~3.34 ms.
        assert propagation_delay_ms(1000.0) == pytest.approx(3.336, abs=0.01)
        with pytest.raises(ValueError):
            propagation_delay_ms(-1.0)

    def test_grazing_altitude_of_adjacent_satellites(self):
        a = np.array([EARTH_RADIUS_KM + 560.0, 0.0, 0.0])
        b = np.array([0.0, EARTH_RADIUS_KM + 560.0, 0.0])
        # Quarter-circumference chord between two LEO satellites dips well
        # below the surface.
        assert grazing_altitude_km(a, b) < 0.0

    def test_grazing_altitude_of_close_satellites(self):
        a = np.array([EARTH_RADIUS_KM + 560.0, 0.0, 0.0])
        b = np.array([EARTH_RADIUS_KM + 560.0, 500.0, 0.0])
        assert grazing_altitude_km(a, b) > 500.0

    def test_feasibility_range_limit(self):
        a = np.array([EARTH_RADIUS_KM + 560.0, 0.0, 0.0])
        b = np.array([EARTH_RADIUS_KM + 560.0, 6000.0, 0.0])
        assert not isl_feasible(a, b, ISLConfig(max_range_km=5000.0))
        assert isl_feasible(a, b, ISLConfig(max_range_km=8000.0, min_grazing_altitude_km=80.0))

    def test_feasibility_occlusion_limit(self):
        a = np.array([EARTH_RADIUS_KM + 560.0, 0.0, 0.0])
        b = np.array([-(EARTH_RADIUS_KM + 560.0), 0.0, 1.0])
        assert not isl_feasible(a, b, ISLConfig(max_range_km=50000.0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ISLConfig(max_range_km=-1.0)
        with pytest.raises(ValueError):
            ISLConfig(capacity_gbps=0.0)


class TestGroundStation:
    def test_default_stations_from_metros(self):
        stations = default_ground_stations(min_population_millions=10.0)
        names = {station.name for station in stations}
        assert "Tokyo" in names
        assert len(stations) >= 20

    def test_overhead_satellite_visible(self):
        station = GroundStation("test", 10.0, 20.0)
        overhead = station.position_ecef_km() * (EARTH_RADIUS_KM + 560.0) / EARTH_RADIUS_KM
        assert station.can_see(overhead)
        assert math.degrees(station.elevation_to_rad(overhead)) == pytest.approx(90.0, abs=1e-6)

    def test_antipodal_satellite_not_visible(self):
        station = GroundStation("test", 10.0, 20.0)
        antipode = -station.position_ecef_km() * 1.1
        assert not station.can_see(antipode)

    def test_uplink_delay_positive(self):
        station = GroundStation("test", 0.0, 0.0)
        overhead = station.position_ecef_km() * (EARTH_RADIUS_KM + 560.0) / EARTH_RADIUS_KM
        assert station.uplink_delay_ms(overhead) == pytest.approx(
            propagation_delay_ms(560.0), rel=1e-6
        )

    def test_visible_satellites_vectorised(self):
        station = GroundStation("test", 0.0, 0.0)
        overhead = station.position_ecef_km() * (EARTH_RADIUS_KM + 560.0) / EARTH_RADIUS_KM
        antipode = -overhead
        indices = visible_satellites(station, np.stack([overhead, antipode]))
        assert list(indices) == [0]

    def test_visible_satellites_shape_validation(self):
        station = GroundStation("test", 0.0, 0.0)
        with pytest.raises(ValueError):
            visible_satellites(station, np.zeros(3))

    @pytest.mark.parametrize("field", ["latitude_deg", "longitude_deg", "min_elevation_deg"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_field(self, field, value):
        fields = {"latitude_deg": 10.0, "longitude_deg": 20.0, "min_elevation_deg": 25.0}
        with pytest.raises(ValueError, match=field):
            GroundStation("test", **{**fields, field: value})

    @pytest.mark.parametrize("latitude", [90.5, -91.0])
    def test_rejects_latitude_beyond_a_pole(self, latitude):
        with pytest.raises(ValueError, match="latitude_deg"):
            GroundStation("test", latitude, 0.0)

    @pytest.mark.parametrize("mask", [90.1, -95.0])
    def test_rejects_mask_outside_a_quarter_turn(self, mask):
        with pytest.raises(ValueError, match="min_elevation_deg"):
            GroundStation("test", 0.0, 0.0, mask)

    def test_negative_mask_is_accepted(self):
        station = GroundStation("test", 0.0, 0.0, -5.0)
        # 2 degrees below the horizon plane, 1,000 km out.
        site = station.position_ecef_km()
        east, up = np.array([0.0, 1.0, 0.0]), site / np.linalg.norm(site)
        dip = math.radians(2.0)
        below = site + 1000.0 * (math.cos(dip) * east - math.sin(dip) * up)
        assert station.min_elevation_deg == -5.0
        assert station.can_see(below)
        assert not GroundStation("test", 0.0, 0.0, 0.0).can_see(below)
