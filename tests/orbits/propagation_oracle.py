"""Scalar reference implementations of propagation and visibility (test oracles).

The library propagates with :class:`~repro.orbits.propagation.BatchPropagator`
only, and decides visibility with one vectorised ECEF elevation model
(:func:`~repro.coverage.visibility.elevation_and_slant_range`).  This module
keeps what they replaced, so tests can hold the array paths to an
independent formulation:

* :class:`J2Propagator` -- one satellite, one epoch, full
  :class:`StateVector` output (position and velocity), through the
  perifocal-to-ECI rotation matrix.  Epochs are Julian dates, so elapsed
  seconds round-trip through them and are quantised at ~5e-5 s (sub-metre
  positions): against the batch sampler, which works from exact second
  offsets, the agreement bound is ~1e-3 km, not the engine's 1e-9 km.
* the per-sample ground-track, sun-fixed-track and visibility-window loops,
  one epoch per Python iteration; the window loop tests elevation in ECI,
  with the site rotated into the inertial frame.
* :func:`visibility_mask_expression` -- a verbatim copy of the visibility
  expression every snapshot sequence is built on, for bit-identity checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.constants import MU_EARTH
from repro.orbits.elements import OrbitalElements
from repro.orbits.frames import ecef_to_eci, eci_to_latlon, eci_to_sunfixed, geodetic_to_ecef
from repro.orbits.kepler import mean_to_true_anomaly, true_to_mean_anomaly
from repro.orbits.perturbations import j2_secular_rates
from repro.orbits.time import Epoch


@dataclass(frozen=True, eq=False)
class StateVector:
    """An ECI position/velocity pair at a given epoch.

    Instances compare by identity: array fields have no single truth value.
    """

    position_km: np.ndarray
    velocity_km_s: np.ndarray
    epoch: Epoch

    @property
    def radius_km(self) -> float:
        """Geocentric distance in km."""
        return float(np.linalg.norm(self.position_km))

    @property
    def speed_km_s(self) -> float:
        """Inertial speed in km/s."""
        return float(np.linalg.norm(self.velocity_km_s))


def _perifocal_to_eci_matrix(elements: OrbitalElements) -> np.ndarray:
    """Return the rotation matrix from the perifocal frame to ECI."""
    cos_raan = math.cos(elements.raan_rad)
    sin_raan = math.sin(elements.raan_rad)
    cos_argp = math.cos(elements.arg_perigee_rad)
    sin_argp = math.sin(elements.arg_perigee_rad)
    cos_inc = math.cos(elements.inclination_rad)
    sin_inc = math.sin(elements.inclination_rad)
    return np.array(
        [
            [
                cos_raan * cos_argp - sin_raan * sin_argp * cos_inc,
                -cos_raan * sin_argp - sin_raan * cos_argp * cos_inc,
                sin_raan * sin_inc,
            ],
            [
                sin_raan * cos_argp + cos_raan * sin_argp * cos_inc,
                -sin_raan * sin_argp + cos_raan * cos_argp * cos_inc,
                -cos_raan * sin_inc,
            ],
            [
                sin_argp * sin_inc,
                cos_argp * sin_inc,
                cos_inc,
            ],
        ]
    )


def elements_to_state(elements: OrbitalElements, epoch: Epoch) -> StateVector:
    """Convert Keplerian elements to an ECI state vector at ``epoch``."""
    p = elements.semi_latus_rectum_km
    e = elements.eccentricity
    nu = elements.true_anomaly_rad
    r = p / (1.0 + e * math.cos(nu))

    position_pqw = np.array([r * math.cos(nu), r * math.sin(nu), 0.0])
    velocity_factor = math.sqrt(MU_EARTH / p)
    velocity_pqw = np.array(
        [-velocity_factor * math.sin(nu), velocity_factor * (e + math.cos(nu)), 0.0]
    )

    rotation = _perifocal_to_eci_matrix(elements)
    return StateVector(
        position_km=rotation @ position_pqw,
        velocity_km_s=rotation @ velocity_pqw,
        epoch=epoch,
    )


class J2Propagator:
    """Analytical secular-J2 propagator for a single satellite, one epoch at a time.

    Integrates the same secular rates and epoch mean anomaly as
    :class:`~repro.orbits.propagation.BatchPropagator` (both come from
    :func:`~repro.orbits.perturbations.j2_secular_rates` and
    :func:`~repro.orbits.kepler.true_to_mean_anomaly`), but rotates through
    the perifocal matrix instead of the expanded broadcast arithmetic.
    """

    def __init__(self, elements: OrbitalElements, epoch: Epoch):
        self._elements = elements
        self._epoch = epoch
        self._rates = j2_secular_rates(elements)
        self._mean_anomaly_0 = true_to_mean_anomaly(
            elements.true_anomaly_rad, elements.eccentricity
        )

    def elements_at(self, epoch: Epoch) -> OrbitalElements:
        """Return the osculating (secularly drifted) elements at ``epoch``."""
        dt = epoch.seconds_since(self._epoch)
        mean_anomaly = self._mean_anomaly_0 + self._rates.mean_anomaly_rate * dt
        true_anomaly = mean_to_true_anomaly(mean_anomaly, self._elements.eccentricity)
        return OrbitalElements(
            semi_major_axis_km=self._elements.semi_major_axis_km,
            eccentricity=self._elements.eccentricity,
            inclination_rad=self._elements.inclination_rad,
            raan_rad=(self._elements.raan_rad + self._rates.raan_rate * dt)
            % (2.0 * math.pi),
            arg_perigee_rad=(
                self._elements.arg_perigee_rad + self._rates.arg_perigee_rate * dt
            )
            % (2.0 * math.pi),
            true_anomaly_rad=true_anomaly % (2.0 * math.pi),
        )

    def state_at(self, epoch: Epoch) -> StateVector:
        """Return the ECI state vector at ``epoch``."""
        return elements_to_state(self.elements_at(epoch), epoch)

    def propagate(self, seconds: float) -> StateVector:
        """Return the state ``seconds`` after the reference epoch."""
        return self.state_at(self._epoch.add_seconds(seconds))


# -- per-sample track and window loops -------------------------------------------


def _sample_states(elements: OrbitalElements, epoch: Epoch, duration_s: float, step_s: float):
    """Yield (elapsed seconds, epoch, ECI position) one sample at a time."""
    propagator = J2Propagator(elements, epoch)
    for t in np.arange(0.0, duration_s + step_s / 2.0, step_s):
        current_epoch = epoch.add_seconds(float(t))
        yield float(t), current_epoch, propagator.state_at(current_epoch).position_km


def ground_track_by_samples(
    elements: OrbitalElements, epoch: Epoch, duration_s: float, step_s: float
) -> np.ndarray:
    """``(T, 4)`` rows of (elapsed s, latitude rad, longitude rad, altitude km)."""
    return np.array(
        [
            (t, *eci_to_latlon(position, at))
            for t, at, position in _sample_states(elements, epoch, duration_s, step_s)
        ]
    )


def sunfixed_track_by_samples(
    elements: OrbitalElements, epoch: Epoch, duration_s: float, step_s: float
) -> tuple[np.ndarray, np.ndarray]:
    """(latitudes rad, local times h) of the track, one epoch at a time."""
    rows = np.array(
        [
            eci_to_sunfixed(position, at)[:2]
            for _, at, position in _sample_states(elements, epoch, duration_s, step_s)
        ]
    )
    return rows[:, 0], rows[:, 1]


def _elevation_eci_rad(
    position_eci: np.ndarray, latitude_rad: float, longitude_rad: float, epoch: Epoch
) -> float:
    """Elevation [rad] of an ECI position above a site rotated into ECI."""
    site_eci = ecef_to_eci(geodetic_to_ecef(latitude_rad, longitude_rad, 0.0), epoch)
    zenith = site_eci / np.linalg.norm(site_eci)
    line_of_sight = np.asarray(position_eci) - site_eci
    los_norm = np.linalg.norm(line_of_sight)
    if los_norm == 0.0:
        raise ValueError("satellite position coincides with the ground site")
    sin_elevation = float(np.dot(line_of_sight, zenith) / los_norm)
    return math.asin(max(-1.0, min(1.0, sin_elevation)))


def visibility_windows_by_samples(
    elements: OrbitalElements,
    epoch: Epoch,
    latitude_deg: float,
    longitude_deg: float,
    duration_s: float,
    step_s: float = 30.0,
    min_elevation_deg: float = 25.0,
) -> list[tuple[float, float]]:
    """(start s, end s) windows, merging consecutive visible samples one at a time.

    A window opens at its first visible sample and closes at the first
    invisible one, or at the last sample if it is still open there.
    """
    latitude_rad = math.radians(latitude_deg)
    longitude_rad = math.radians(longitude_deg)
    mask_rad = math.radians(min_elevation_deg)
    windows: list[tuple[float, float]] = []
    window_start: float | None = None
    t = 0.0
    for t, at, position in _sample_states(elements, epoch, duration_s, step_s):
        visible = _elevation_eci_rad(position, latitude_rad, longitude_rad, at) >= mask_rad
        if visible and window_start is None:
            window_start = t
        elif not visible and window_start is not None:
            windows.append((window_start, t))
            window_start = None
    if window_start is not None:
        windows.append((window_start, t))
    return windows


# -- the visibility expression, verbatim -----------------------------------------


def visibility_mask_expression(station, satellite_positions_ecef_km: np.ndarray):
    """(visible, distances) exactly as the network layer's ``visibility_mask`` computed them."""
    positions = np.asarray(satellite_positions_ecef_km, dtype=float)
    site = station.position_ecef_km()
    zenith = site / np.linalg.norm(site)
    lines_of_sight = positions - site
    norms = np.linalg.norm(lines_of_sight, axis=-1)
    sin_elevation = (lines_of_sight @ zenith) / np.maximum(norms, 1e-9)
    elevation = np.arcsin(np.clip(sin_elevation, -1.0, 1.0))
    return elevation >= math.radians(station.min_elevation_deg), norms
