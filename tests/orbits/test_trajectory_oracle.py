"""Ground tracks, sun-fixed tracks and visibility windows against the scalar oracle.

The library computes all three as whole-array conversions of one batched
trajectory (:func:`~repro.orbits.propagation.sample_positions_eci`) and
decides visibility with one ECEF elevation model.  The oracle in
``propagation_oracle.py`` walks the same window one epoch at a time with the
scalar ``J2Propagator`` and, for windows, tests elevation in ECI.

The sampler and the oracle agree on positions to ``TOLERANCE_KM`` (the
oracle's Julian-date epochs quantise elapsed seconds at ~5e-5 s), so two
positions of radius ``r`` subtend at most ``TOLERANCE_KM / r`` radians: that
bounds the latitude difference, and the longitude difference times
``cos(latitude)``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from propagation_oracle import (
    ground_track_by_samples,
    sunfixed_track_by_samples,
    visibility_mask_expression,
    visibility_windows_by_samples,
)
from repro.constants import EARTH_RADIUS_KM, HOURS_PER_DAY, SOLAR_DAY_S
from repro.coverage.visibility import elevation_and_slant_range, visibility_windows
from repro.network.ground_station import GroundStation, visibility_mask
from repro.orbits.elements import OrbitalElements
from repro.orbits.groundtrack import compute_ground_track, compute_sunfixed_track
from repro.orbits.sunsync import sun_synchronous_inclination_deg

TOLERANCE_KM = 1e-3
ALTITUDE_KM = 560.0
SS_INCLINATION_DEG = sun_synchronous_inclination_deg(ALTITUDE_KM)


def _angle_bound_rad(elements: OrbitalElements) -> float:
    return TOLERANCE_KM / elements.semi_major_axis_km


def _wrapped(difference: np.ndarray, period: float) -> np.ndarray:
    return (difference + period / 2.0) % period - period / 2.0


ORBITS = [
    OrbitalElements.circular(ALTITUDE_KM, 65.0, raan_deg=30.0, true_anomaly_deg=137.0),
    OrbitalElements.circular(ALTITUDE_KM, 53.0, raan_deg=300.0, true_anomaly_deg=250.0),
    OrbitalElements.circular(ALTITUDE_KM, SS_INCLINATION_DEG, raan_deg=200.0),
    OrbitalElements.circular(1200.0, 30.0, raan_deg=100.0, true_anomaly_deg=10.0),
]


@pytest.mark.parametrize("elements", ORBITS, ids=lambda e: f"{math.degrees(e.inclination_rad):.1f}deg")
class TestTracksMatchOracle:
    def test_ground_track(self, epoch, elements):
        track = compute_ground_track(elements, epoch, SOLAR_DAY_S / 4.0, 60.0)
        reference = ground_track_by_samples(elements, epoch, SOLAR_DAY_S / 4.0, 60.0)
        bound = _angle_bound_rad(elements)
        assert np.array_equal(track.elapsed_s, reference[:, 0])
        assert np.max(np.abs(track.latitudes_rad - reference[:, 1])) < bound
        longitude_gap = _wrapped(track.longitudes_rad - reference[:, 2], 2.0 * math.pi)
        assert np.max(np.abs(longitude_gap * np.cos(reference[:, 1]))) < bound
        assert np.max(np.abs(track.altitudes_km - reference[:, 3])) < TOLERANCE_KM

    def test_sunfixed_track(self, epoch, elements):
        latitudes, local_times = compute_sunfixed_track(elements, epoch, SOLAR_DAY_S / 4.0, 60.0)
        ref_latitudes, ref_local_times = sunfixed_track_by_samples(
            elements, epoch, SOLAR_DAY_S / 4.0, 60.0
        )
        bound = _angle_bound_rad(elements)
        assert np.max(np.abs(latitudes - ref_latitudes)) < bound
        # An hour of local time is 2 pi / 24 rad of longitude.
        hour_gap = _wrapped(local_times - ref_local_times, HOURS_PER_DAY)
        angle_gap = hour_gap * (2.0 * math.pi / HOURS_PER_DAY)
        assert np.max(np.abs(angle_gap * np.cos(ref_latitudes))) < bound


#: (inclination deg, site latitude deg, site longitude deg, mask deg).
WINDOW_CASES = [
    (65.0, 45.0, 0.0, 25.0),
    (53.0, 10.0, 120.0, 25.0),
    (SS_INCLINATION_DEG, 70.0, -60.0, 25.0),  # retrograde sun-synchronous orbit
    (SS_INCLINATION_DEG, -30.0, 150.0, 40.0),
    (53.0, 40.0, -100.0, 10.0),
    (65.0, 60.0, 30.0, 0.0),
    (30.0, 80.0, 0.0, 25.0),  # unreachable: above the orbit's latitude band
]


class TestWindowsMatchOracle:
    @pytest.mark.parametrize("inclination, latitude, longitude, mask", WINDOW_CASES)
    def test_one_day(self, epoch, inclination, latitude, longitude, mask):
        elements = OrbitalElements.circular(ALTITUDE_KM, inclination)
        windows = visibility_windows(
            elements, epoch, latitude, longitude, SOLAR_DAY_S, 30.0, mask
        )
        reference = visibility_windows_by_samples(
            elements, epoch, latitude, longitude, SOLAR_DAY_S, 30.0, mask
        )
        assert [(w.start_s, w.end_s) for w in windows] == reference
        if latitude == 80.0:
            assert windows == []
        else:
            assert windows

    def test_window_open_at_the_last_sample(self, epoch):
        elements = OrbitalElements.circular(ALTITUDE_KM, 65.0)
        first = visibility_windows(elements, epoch, 45.0, 0.0, SOLAR_DAY_S, 30.0)[0]
        assert first.duration_s >= 90.0
        duration_s = first.start_s + 60.0
        windows = visibility_windows(elements, epoch, 45.0, 0.0, duration_s, 30.0)
        assert windows[-1].start_s == first.start_s
        assert windows[-1].end_s == duration_s
        assert [(w.start_s, w.end_s) for w in windows] == visibility_windows_by_samples(
            elements, epoch, 45.0, 0.0, duration_s, 30.0
        )


class TestOneVisibilityModel:
    """The one model equals the expression the snapshot sequences were built on."""

    @pytest.mark.parametrize("mask", [-5.0, 0.0, 25.0, 60.0])
    def test_bit_identical_to_the_verbatim_expression(self, mask):
        rng = np.random.default_rng(7)
        directions = rng.normal(size=(6, 40, 3))
        radii = EARTH_RADIUS_KM + rng.uniform(300.0, 2000.0, size=(6, 40, 1))
        positions = directions / np.linalg.norm(directions, axis=-1, keepdims=True) * radii
        for latitude, longitude in rng.uniform([-90.0, -180.0], [90.0, 180.0], size=(5, 2)):
            station = GroundStation("site", latitude, longitude, mask)
            visible, slant_km = visibility_mask(station, positions)
            ref_visible, ref_slant_km = visibility_mask_expression(station, positions)
            assert np.array_equal(visible, ref_visible)
            assert np.array_equal(slant_km, ref_slant_km)
            elevation, model_slant_km = elevation_and_slant_range(
                station.position_ecef_km(), positions
            )
            assert np.array_equal(model_slant_km, ref_slant_km)
            assert np.array_equal(elevation >= math.radians(mask), ref_visible)
