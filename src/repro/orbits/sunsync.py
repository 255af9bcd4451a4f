"""Sun-synchronous orbit design.

A sun-synchronous (SS) orbit is one whose J2-driven nodal precession rate
exactly matches the mean motion of the Sun along the ecliptic
(~0.9856 deg/day eastward), so that the orbital plane keeps a fixed
orientation relative to the Sun.  Its ground track therefore crosses every
latitude at a fixed local solar time -- the property the SS-plane design
exploits to pin constellation supply to the (latitude, local-time-of-day)
demand grid.

This module solves the design problem in both directions:

* given an altitude, find the (retrograde) inclination that makes the orbit
  sun-synchronous (:func:`sun_synchronous_inclination_rad`),
* given an inclination, find the altitude (:func:`sun_synchronous_altitude_km`),

and provides :class:`SunSynchronousOrbit`, a convenience wrapper that also
tracks the orbit's local time of ascending node (LTAN).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..constants import (
    EARTH_RADIUS_KM,
    HOURS_PER_DAY,
    SUN_SYNC_PRECESSION_RATE,
)
from .elements import OrbitalElements
from .perturbations import raan_drift_rate

__all__ = [
    "sun_synchronous_inclination_rad",
    "sun_synchronous_inclination_deg",
    "sun_synchronous_altitude_km",
    "is_sun_synchronous",
    "SunSynchronousOrbit",
]

#: Altitude search range for :func:`sun_synchronous_altitude_km` [km].
_MIN_ALTITUDE_KM = 100.0
_MAX_ALTITUDE_KM = 6000.0


def sun_synchronous_inclination_rad(
    altitude_km: float, eccentricity: float = 0.0
) -> float:
    """Return the inclination [rad] that makes an orbit sun-synchronous.

    Solves ``raan_drift_rate(a, e, i) == SUN_SYNC_PRECESSION_RATE`` for ``i``.
    The result is always retrograde (between 90 and 180 degrees).  Raises
    ``ValueError`` if the altitude is too high for sun-synchronicity (above
    roughly 6000 km the required ``|cos i|`` exceeds 1).
    """
    a = EARTH_RADIUS_KM + altitude_km
    # raan_rate = -k * cos(i)  with  k = 1.5 n J2 (Re/p)^2  > 0
    k = -raan_drift_rate(a, eccentricity, 0.0)  # rate at i=0 is -k
    cos_i = -SUN_SYNC_PRECESSION_RATE / k
    if not -1.0 <= cos_i <= 1.0:
        raise ValueError(
            f"no sun-synchronous inclination exists at altitude {altitude_km:.1f} km"
        )
    return math.acos(cos_i)


def sun_synchronous_inclination_deg(
    altitude_km: float, eccentricity: float = 0.0
) -> float:
    """Return the sun-synchronous inclination in degrees (see the rad variant)."""
    return math.degrees(sun_synchronous_inclination_rad(altitude_km, eccentricity))


def sun_synchronous_altitude_km(
    inclination_rad: float, eccentricity: float = 0.0
) -> float:
    """Return the altitude [km] at which ``inclination_rad`` is sun-synchronous.

    Only retrograde inclinations admit a solution; a ``ValueError`` is raised
    otherwise or when no altitude in the LEO/MEO search range matches.
    """
    # Imported here, not at module level: scipy.optimize costs ~0.6 s to
    # import and no simulation or design sweep solves for an altitude.
    from scipy.optimize import brentq

    if inclination_rad <= math.pi / 2.0:
        raise ValueError("sun-synchronous orbits must be retrograde (i > 90 deg)")

    def residual(altitude: float) -> float:
        a = EARTH_RADIUS_KM + altitude
        return raan_drift_rate(a, eccentricity, inclination_rad) - SUN_SYNC_PRECESSION_RATE

    low = residual(_MIN_ALTITUDE_KM)
    high = residual(_MAX_ALTITUDE_KM)
    if low * high > 0:
        raise ValueError(
            f"inclination {math.degrees(inclination_rad):.2f} deg is not "
            "sun-synchronous at any altitude in the supported range"
        )
    return float(brentq(residual, _MIN_ALTITUDE_KM, _MAX_ALTITUDE_KM, xtol=1e-6))


def is_sun_synchronous(elements: OrbitalElements, tolerance: float = 0.01) -> bool:
    """Return whether an element set is sun-synchronous within ``tolerance``.

    ``tolerance`` is the allowed relative error of the nodal precession rate
    with respect to the required ~0.9856 deg/day.
    """
    rate = raan_drift_rate(
        elements.semi_major_axis_km, elements.eccentricity, elements.inclination_rad
    )
    return abs(rate - SUN_SYNC_PRECESSION_RATE) <= tolerance * SUN_SYNC_PRECESSION_RATE


@dataclass(frozen=True)
class SunSynchronousOrbit:
    """A circular sun-synchronous orbit identified by altitude and LTAN.

    Attributes
    ----------
    altitude_km:
        Circular orbit altitude.
    ltan_hours:
        Local Time of the Ascending Node, in hours in [0, 24).  An LTAN of
        12.0 means the satellite crosses the equator northbound at local noon;
        its descending crossings then happen at local midnight.
    """

    altitude_km: float
    ltan_hours: float = 12.0

    def __post_init__(self) -> None:
        # Validate that an SS inclination exists; stores nothing (frozen).
        sun_synchronous_inclination_rad(self.altitude_km)
        if not 0.0 <= self.ltan_hours < HOURS_PER_DAY:
            raise ValueError(f"LTAN must be in [0, 24) hours, got {self.ltan_hours}")

    @property
    def inclination_rad(self) -> float:
        """Sun-synchronous inclination at this altitude, in radians."""
        return sun_synchronous_inclination_rad(self.altitude_km)

    @property
    def inclination_deg(self) -> float:
        """Sun-synchronous inclination at this altitude, in degrees."""
        return math.degrees(self.inclination_rad)

    @property
    def ltdn_hours(self) -> float:
        """Local time of the descending node, 12 hours after the ascending node."""
        return (self.ltan_hours + 12.0) % HOURS_PER_DAY

    def to_elements(
        self, true_anomaly_rad: float = 0.0, sun_right_ascension_rad: float = 0.0
    ) -> OrbitalElements:
        """Return Keplerian elements for a satellite on this orbit.

        The RAAN is placed so that the ascending node sits at the requested
        local solar time given the Sun's current right ascension
        (``sun_right_ascension_rad``).  With the default Sun at RA 0 the RAAN
        directly encodes the LTAN.
        """
        raan = (
            sun_right_ascension_rad
            + (self.ltan_hours - 12.0) / HOURS_PER_DAY * 2.0 * math.pi
        ) % (2.0 * math.pi)
        return OrbitalElements(
            semi_major_axis_km=EARTH_RADIUS_KM + self.altitude_km,
            eccentricity=0.0,
            inclination_rad=self.inclination_rad,
            raan_rad=raan,
            arg_perigee_rad=0.0,
            true_anomaly_rad=true_anomaly_rad % (2.0 * math.pi),
        )
