"""Reference frames and coordinate conversions.

Three frames matter for SS-plane constellation design:

* **ECI** (Earth-Centred Inertial): where orbital mechanics happens.
* **ECEF** (Earth-Centred Earth-Fixed): rotates with the Earth; geodetic
  latitude/longitude and ground tracks live here.
* **Sun-fixed** (the paper's "latitude vs. local-time-of-day grid"): rotates
  with the mean Sun so that the subsolar meridian is always local noon.  This
  is the frame in which both Internet demand and SS-plane supply are static.

All vector functions accept and return ``numpy`` arrays of shape (3,) or
``(..., 3)``; the geodetic and sun-fixed conversions return floats for one
position and arrays for many, and take one :class:`Epoch` or an array of
Julian dates (one per leading-axis row, so a whole trajectory converts in one
pass).  Angles are in radians unless the name says otherwise.
"""

from __future__ import annotations

import math

import numpy as np

from ..constants import HOURS_PER_DAY
from .time import Epoch, gmst_rad
from .sun import solar_right_ascension_rad

__all__ = [
    "rotation_z",
    "rotation_x",
    "rotate_rows_about_z",
    "eci_to_ecef",
    "ecef_to_eci",
    "ecef_to_geodetic",
    "geodetic_to_ecef",
    "eci_to_latlon",
    "local_solar_time_hours",
    "eci_to_sunfixed",
    "sunfixed_longitude_to_local_time",
    "local_time_to_sunfixed_longitude",
    "great_circle_distance_rad",
]


def rotation_z(angle_rad: float) -> np.ndarray:
    """Return the 3x3 rotation matrix about the +Z axis by ``angle_rad``."""
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_x(angle_rad: float) -> np.ndarray:
    """Return the 3x3 rotation matrix about the +X axis by ``angle_rad``."""
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rotate_rows_about_z(positions: np.ndarray, theta) -> np.ndarray:
    """Apply ``R(-theta)`` to the row vectors of ``positions``.

    ``theta`` may be a scalar (rotating every row by the same angle) or an
    array whose shape matches the leading axes of ``positions`` -- e.g. one
    angle per epoch for a ``(T, N, 3)`` trajectory stack.
    """
    positions = np.asarray(positions, dtype=float)
    if np.ndim(theta) == 0:
        return positions @ rotation_z(float(theta))
    theta = np.asarray(theta, dtype=float)
    if positions.ndim - 1 < theta.ndim or positions.shape[: theta.ndim] != theta.shape:
        raise ValueError(
            f"cannot broadcast {theta.shape} epoch angles over positions of "
            f"shape {positions.shape}"
        )
    theta = theta.reshape(theta.shape + (1,) * (positions.ndim - theta.ndim - 1))
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    x = cos_t * positions[..., 0] + sin_t * positions[..., 1]
    y = -sin_t * positions[..., 0] + cos_t * positions[..., 1]
    return np.stack([x, y, positions[..., 2]], axis=-1)


def eci_to_ecef(position_eci: np.ndarray, epoch: Epoch | np.ndarray) -> np.ndarray:
    """Rotate ECI positions (km) into the Earth-fixed frame at ``epoch``.

    ``epoch`` may be a single :class:`Epoch` (positions of any shape
    ``(..., 3)`` all rotate by the same sidereal angle) or an array of Julian
    dates whose length matches the leading axis of ``position_eci`` -- the
    vectorised form used for ``(T, N, 3)`` trajectory stacks, where each time
    slice rotates by its own angle.
    """
    return rotate_rows_about_z(position_eci, gmst_rad(epoch))


def ecef_to_eci(position_ecef: np.ndarray, epoch: Epoch | np.ndarray) -> np.ndarray:
    """Rotate ECEF positions (km) into the inertial frame at ``epoch``.

    Accepts the same scalar-or-array ``epoch`` forms as :func:`eci_to_ecef`.
    """
    return rotate_rows_about_z(position_ecef, np.negative(gmst_rad(epoch)))


def ecef_to_geodetic(position_ecef: np.ndarray):
    """Convert ECEF positions [km] to (latitude, longitude, altitude).

    Latitude and longitude are geocentric-spherical in radians, altitude is
    above the equatorial radius in km.  The spherical approximation (rather
    than the WGS-84 ellipsoid) introduces sub-0.2 degree latitude error, which
    is negligible at the 0.5-degree resolution of the demand and radiation
    grids used by the paper.  ``position_ecef`` has shape ``(..., 3)``; each
    result has the input shape minus the trailing axis, and a ``(3,)`` input
    returns three floats.
    """
    from ..constants import EARTH_RADIUS_KM

    position = np.asarray(position_ecef, dtype=float)
    if position.shape[-1:] != (3,):
        raise ValueError(f"positions must have a trailing axis of length 3, got {position.shape}")
    r = np.linalg.norm(position, axis=-1)
    if np.any(r == 0.0):
        raise ValueError("cannot convert the origin to geodetic coordinates")
    coordinates = (
        np.arcsin(position[..., 2] / r),
        np.arctan2(position[..., 1], position[..., 0]),
        r - EARTH_RADIUS_KM,
    )
    if position.ndim == 1:
        return tuple(float(value) for value in coordinates)
    return coordinates


def geodetic_to_ecef(
    latitude_rad: float, longitude_rad: float, altitude_km: float = 0.0
) -> np.ndarray:
    """Convert spherical (latitude, longitude, altitude) to an ECEF position [km]."""
    from ..constants import EARTH_RADIUS_KM

    r = EARTH_RADIUS_KM + altitude_km
    cos_lat = math.cos(latitude_rad)
    return np.array(
        [
            r * cos_lat * math.cos(longitude_rad),
            r * cos_lat * math.sin(longitude_rad),
            r * math.sin(latitude_rad),
        ]
    )


def eci_to_latlon(position_eci: np.ndarray, epoch: Epoch | np.ndarray):
    """Return (latitude, longitude, altitude) of ECI positions at ``epoch``.

    Accepts the scalar-or-array ``epoch`` forms of :func:`eci_to_ecef` and
    returns in the form of :func:`ecef_to_geodetic`.
    """
    return ecef_to_geodetic(eci_to_ecef(position_eci, epoch))


# --------------------------------------------------------------------------
# Sun-fixed frame: latitude stays the same; longitude is replaced by local
# mean solar time.
# --------------------------------------------------------------------------


def local_solar_time_hours(longitude_rad, epoch: Epoch | np.ndarray):
    """Return the local mean solar time [hours, 0-24) at Earth-fixed longitudes.

    Defined from the hour angle of the mean Sun: local noon occurs when the
    subsolar meridian coincides with the given longitude.  ``epoch`` is one
    :class:`Epoch` or an array of Julian dates broadcasting against
    ``longitude_rad``; scalar inputs return a float.
    """
    sun_ra = solar_right_ascension_rad(epoch)
    subsolar_longitude = sun_ra - gmst_rad(epoch)
    hour_angle = np.asarray(longitude_rad, dtype=float) - subsolar_longitude  # 0 at local noon
    hours = np.mod(12.0 + hour_angle * HOURS_PER_DAY / (2.0 * math.pi), HOURS_PER_DAY)
    return float(hours) if hours.ndim == 0 else hours


def eci_to_sunfixed(position_eci: np.ndarray, epoch: Epoch | np.ndarray):
    """Return (latitude_rad, local_time_hours, altitude_km) of ECI positions.

    This is the coordinate chart of the paper's Figure 8: a point's "longitude"
    is the local solar time of the meridian beneath it.  Accepts and returns
    the forms of :func:`eci_to_latlon`.
    """
    latitude, longitude, altitude = eci_to_latlon(position_eci, epoch)
    return latitude, local_solar_time_hours(longitude, epoch), altitude


def sunfixed_longitude_to_local_time(sunfixed_longitude_rad: float) -> float:
    """Convert a sun-fixed longitude (0 at the subsolar meridian) to local time [h]."""
    hours = 12.0 + sunfixed_longitude_rad * HOURS_PER_DAY / (2.0 * math.pi)
    return float(np.mod(hours, HOURS_PER_DAY))


def local_time_to_sunfixed_longitude(local_time_hours: float) -> float:
    """Convert a local solar time [h] to a sun-fixed longitude in (-pi, pi]."""
    longitude = (local_time_hours - 12.0) / HOURS_PER_DAY * 2.0 * math.pi
    return float(np.mod(longitude + math.pi, 2.0 * math.pi) - math.pi)


def great_circle_distance_rad(
    lat1_rad: float, lon1_rad: float, lat2_rad: float, lon2_rad: float
) -> float:
    """Return the central angle [rad] between two (lat, lon) points.

    Uses the haversine formulation, which is numerically stable for the small
    separations that matter for coverage tests.
    """
    dlat = lat2_rad - lat1_rad
    dlon = lon2_rad - lon1_rad
    a = (
        math.sin(dlat / 2.0) ** 2
        + math.cos(lat1_rad) * math.cos(lat2_rad) * math.sin(dlon / 2.0) ** 2
    )
    return 2.0 * math.asin(min(1.0, math.sqrt(a)))
