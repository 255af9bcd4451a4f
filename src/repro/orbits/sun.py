"""Low-precision solar ephemeris.

The SS-plane design revolves around the direction of the Sun: sun-synchronous
orbits keep a fixed geometry relative to it, and the demand model lives on a
sun-fixed (latitude, local-time-of-day) grid.  This module provides the solar
position to the ~0.01 degree accuracy of the standard low-precision formulae
(Astronomical Almanac), which is far beyond what constellation-level design
requires.
"""

from __future__ import annotations

import math

import numpy as np

from ..constants import AU_KM, JD_J2000, OBLIQUITY_J2000
from .time import Epoch

__all__ = [
    "sun_direction_eci",
    "sun_position_eci",
    "solar_declination_rad",
    "solar_right_ascension_rad",
    "subsolar_point",
]


def _mean_elements(epoch: Epoch | np.ndarray):
    """Return (mean longitude, mean anomaly) of the Sun in radians."""
    t = epoch.days_since_j2000() if isinstance(epoch, Epoch) else np.asarray(epoch) - JD_J2000
    mean_longitude = np.radians(np.mod(280.460 + 0.9856474 * t, 360.0))
    mean_anomaly = np.radians(np.mod(357.528 + 0.9856003 * t, 360.0))
    return mean_longitude, mean_anomaly


def _ecliptic_longitude(epoch: Epoch | np.ndarray):
    """Return the apparent ecliptic longitude of the Sun in radians."""
    mean_longitude, mean_anomaly = _mean_elements(epoch)
    longitude = (
        mean_longitude
        + math.radians(1.915) * np.sin(mean_anomaly)
        + math.radians(0.020) * np.sin(2.0 * mean_anomaly)
    )
    return np.mod(longitude, 2.0 * math.pi)


def sun_direction_eci(epoch: Epoch | np.ndarray) -> np.ndarray:
    """Return the unit vector from the Earth to the Sun in the ECI frame.

    The ECI frame here is the true-equator, mean-equinox frame used by the
    rest of :mod:`repro.orbits`.  ``epoch`` is one :class:`Epoch` (shape
    ``(3,)``) or an array of Julian dates (shape ``(..., 3)``).
    """
    lam = _ecliptic_longitude(epoch)
    eps = OBLIQUITY_J2000
    direction = np.stack(
        [
            np.cos(lam),
            math.cos(eps) * np.sin(lam),
            math.sin(eps) * np.sin(lam),
        ],
        axis=-1,
    )
    return direction / np.linalg.norm(direction, axis=-1, keepdims=True)


def sun_position_eci(epoch: Epoch) -> np.ndarray:
    """Return the ECI position of the Sun in km."""
    _, mean_anomaly = _mean_elements(epoch)
    distance_au = (
        1.00014
        - 0.01671 * math.cos(mean_anomaly)
        - 0.00014 * math.cos(2.0 * mean_anomaly)
    )
    return sun_direction_eci(epoch) * distance_au * AU_KM


def solar_declination_rad(epoch: Epoch) -> float:
    """Return the declination of the Sun in radians."""
    direction = sun_direction_eci(epoch)
    return math.asin(float(np.clip(direction[2], -1.0, 1.0)))


def solar_right_ascension_rad(epoch: Epoch | np.ndarray):
    """Return the right ascension of the Sun in radians, in [0, 2*pi).

    ``epoch`` is one :class:`Epoch` (a float is returned) or an array of
    Julian dates (an array of the same shape is returned).
    """
    direction = sun_direction_eci(epoch)
    ra = np.mod(np.arctan2(direction[..., 1], direction[..., 0]), 2.0 * math.pi)
    return float(ra) if ra.ndim == 0 else ra


def subsolar_point(epoch: Epoch) -> tuple[float, float]:
    """Return the (latitude, longitude) of the subsolar point in radians.

    Longitude is measured East-positive in the Earth-fixed frame.  The
    subsolar point is where the Sun is at the zenith; it sweeps westward at
    roughly 15 degrees per hour and oscillates in latitude with the seasons.
    """
    from .time import gmst_rad  # local import to avoid cycle at module load

    declination = solar_declination_rad(epoch)
    right_ascension = solar_right_ascension_rad(epoch)
    longitude = (right_ascension - gmst_rad(epoch) + math.pi) % (2.0 * math.pi) - math.pi
    return declination, longitude
