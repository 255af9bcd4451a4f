"""Tests of the secular-J2 propagator, the trajectory sampler and ground tracks.

``TestElementsToState`` and ``TestJ2Propagator`` check the scalar oracle in
``propagation_oracle.py`` that the batch engine and the tracks are held to.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from propagation_oracle import J2Propagator, elements_to_state
from repro.constants import MU_EARTH, SOLAR_DAY_S
from repro.coverage.visibility import visibility_windows
from repro.orbits.elements import OrbitalElements
from repro.orbits.groundtrack import compute_ground_track, compute_sunfixed_track
from repro.orbits.propagation import sample_positions_eci
from repro.orbits.sunsync import sun_synchronous_inclination_deg


class TestElementsToState:
    def test_circular_radius_and_speed(self, epoch):
        elements = OrbitalElements.circular(560.0, 65.0)
        state = elements_to_state(elements, epoch)
        assert state.radius_km == pytest.approx(elements.semi_major_axis_km, rel=1e-9)
        expected_speed = math.sqrt(MU_EARTH / elements.semi_major_axis_km)
        assert state.speed_km_s == pytest.approx(expected_speed, rel=1e-9)

    def test_velocity_perpendicular_for_circular(self, epoch):
        elements = OrbitalElements.circular(560.0, 65.0, true_anomaly_deg=137.0)
        state = elements_to_state(elements, epoch)
        assert float(np.dot(state.position_km, state.velocity_km_s)) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_inclination_bounds_z(self, epoch):
        elements = OrbitalElements.circular(560.0, 30.0, true_anomaly_deg=90.0)
        state = elements_to_state(elements, epoch)
        max_z = elements.semi_major_axis_km * math.sin(elements.inclination_rad)
        assert abs(state.position_km[2]) <= max_z + 1e-6


class TestJ2Propagator:
    def test_periodicity(self, epoch):
        elements = OrbitalElements.circular(560.0, 65.0)
        propagator = J2Propagator(elements, epoch)
        start = propagator.propagate(0.0).position_km
        # After one nodal-ish period the satellite is close to its start in
        # the orbital plane; allow for nodal regression over one orbit.
        after = propagator.propagate(elements.period_s).position_km
        assert np.linalg.norm(after - start) < 100.0

    def test_raan_drift_after_one_day(self, epoch):
        elements = OrbitalElements.circular(560.0, 53.0)
        propagator = J2Propagator(elements, epoch)
        drifted = propagator.elements_at(epoch.add_seconds(SOLAR_DAY_S))
        drift_deg = (math.degrees(drifted.raan_rad - elements.raan_rad) + 180.0) % 360.0 - 180.0
        assert drift_deg == pytest.approx(-4.5, abs=0.4)

    def test_altitude_constant(self, epoch):
        elements = OrbitalElements.circular(800.0, 80.0)
        propagator = J2Propagator(elements, epoch)
        for hours in (1.0, 5.0, 12.0):
            state = propagator.propagate(hours * 3600.0)
            assert state.radius_km == pytest.approx(elements.semi_major_axis_km, rel=1e-9)

    def test_sample_positions_shape(self, epoch):
        elements = OrbitalElements.circular(560.0, 65.0)
        times, positions = sample_positions_eci(elements, epoch, 3600.0, 60.0)
        assert times.shape[0] == positions.shape[0] == 61
        assert positions.shape[1] == 3



#: Every entry point that samples one satellite's trajectory, as
#: ``(elements, epoch, duration_s, step_s) -> result``.
SAMPLERS = {
    "sample_positions_eci": sample_positions_eci,
    "compute_ground_track": compute_ground_track,
    "compute_sunfixed_track": compute_sunfixed_track,
    "visibility_windows": lambda elements, epoch, duration_s, step_s: visibility_windows(
        elements, epoch, 45.0, 0.0, duration_s, step_s
    ),
}


class TestSamplingBoundary:
    """A bad duration or step fails at the sampler, naming the parameter."""

    @pytest.mark.parametrize("entry", sorted(SAMPLERS))
    @pytest.mark.parametrize(
        "duration_s, step_s, parameter",
        [
            (math.nan, 30.0, "duration_s"),
            (math.inf, 30.0, "duration_s"),
            (-1.0, 30.0, "duration_s"),
            (-100.0, 30.0, "duration_s"),
            (3600.0, math.nan, "step_s"),
            (3600.0, math.inf, "step_s"),
            (3600.0, 0.0, "step_s"),
            (3600.0, -10.0, "step_s"),
        ],
    )
    def test_rejected(self, epoch, entry, duration_s, step_s, parameter):
        elements = OrbitalElements.circular(560.0, 65.0)
        with pytest.raises(ValueError, match=parameter):
            SAMPLERS[entry](elements, epoch, duration_s, step_s)

    def test_zero_duration_is_one_sample(self, epoch):
        elements = OrbitalElements.circular(560.0, 65.0)
        assert len(compute_ground_track(elements, epoch, 0.0, 30.0)) == 1


class TestGroundTrack:
    def test_latitude_bounded_by_inclination(self, epoch):
        elements = OrbitalElements.circular(560.0, 65.0)
        track = compute_ground_track(elements, epoch, elements.period_s * 3, 60.0)
        assert track.max_latitude_deg() <= 65.5
        assert track.max_latitude_deg() > 60.0

    def test_track_length(self, epoch):
        elements = OrbitalElements.circular(560.0, 65.0)
        track = compute_ground_track(elements, epoch, 3600.0, 30.0)
        assert len(track) == 121
        assert track.elapsed_s.tolist() == [30.0 * i for i in range(121)]
        for values in (track.latitudes_rad, track.longitudes_rad, track.altitudes_km):
            assert values.shape == (121,)
        np.testing.assert_allclose(track.altitudes_km, 560.0, atol=1e-6)

    def test_westward_drift_of_successive_passes(self, epoch):
        # Successive ascending equator crossings of a prograde LEO orbit move
        # westward by roughly 22-25 degrees.
        elements = OrbitalElements.circular(560.0, 65.0)
        track = compute_ground_track(elements, epoch, elements.period_s * 2.2, 10.0)
        lats = track.latitudes_deg
        lons = track.longitudes_deg
        crossings = [
            lons[i]
            for i in range(1, len(track))
            if lats[i - 1] < 0 <= lats[i]
        ]
        assert len(crossings) >= 2
        gap = (crossings[1] - crossings[0] + 180.0) % 360.0 - 180.0
        assert -28.0 < gap < -18.0

    def test_sunfixed_track_is_stationary_for_ss_orbit(self, epoch):
        altitude = 560.0
        elements = OrbitalElements.circular(altitude, sun_synchronous_inclination_deg(altitude))
        latitudes, local_times = compute_sunfixed_track(
            elements, epoch, elements.period_s, 60.0
        )
        # The equator crossings of an SS orbit stay at (nearly) the same local
        # time from one orbit to the next; check the ascending-node local time
        # at the start and after one full revolution.
        assert abs(latitudes[0]) < 0.05
        assert local_times[0] == pytest.approx(local_times[-1], abs=0.2)
