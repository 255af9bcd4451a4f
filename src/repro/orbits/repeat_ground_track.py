"""Repeat ground-track (RGT) orbit design.

An RGT orbit retraces the same path over the Earth's surface after ``k``
orbital revolutions and ``j`` nodal days.  The repeat condition, including the
secular J2 rates, is

    k * T_nodal = j * T_nodal_day

where ``T_nodal`` is the draconitic period of the orbit and ``T_nodal_day`` is
the rotation period of the Earth relative to the (precessing) orbit plane.

Section 2.2 of the paper enumerates the RGT orbits available at LEO altitudes
for a fixed inclination and shows that covering even a *single* such track
continuously needs more satellites than uniform global Walker coverage.  This
module provides the altitude solver and the enumeration of LEO repeat pairs
used in that analysis (Figure 1 and Figure 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..constants import EARTH_RADIUS_KM
from .elements import OrbitalElements
from .perturbations import nodal_day_s, nodal_period_s

__all__ = [
    "RepeatGroundTrack",
    "repeat_ground_track_altitude_km",
    "enumerate_leo_repeat_ground_tracks",
    "revolutions_per_day",
]

#: Altitude search bracket for the RGT altitude solver [km].
_MIN_ALTITUDE_KM = 150.0
_MAX_ALTITUDE_KM = 3000.0


@dataclass(frozen=True)
class RepeatGroundTrack:
    """A repeat ground-track orbit: ``revolutions`` orbits per ``days`` nodal days.

    Attributes
    ----------
    revolutions:
        Number of orbital revolutions in one repeat cycle (``k``).
    days:
        Number of nodal days in one repeat cycle (``j``).
    altitude_km:
        Circular altitude at which the repeat condition holds for the given
        inclination.
    inclination_rad:
        Orbit inclination used when solving for the altitude.
    """

    revolutions: int
    days: int
    altitude_km: float
    inclination_rad: float

    @property
    def revs_per_day(self) -> float:
        """Average number of revolutions per nodal day."""
        return self.revolutions / self.days

    @property
    def elements(self) -> OrbitalElements:
        """Keplerian elements of a satellite on this RGT (RAAN and phase zero)."""
        return OrbitalElements(
            semi_major_axis_km=EARTH_RADIUS_KM + self.altitude_km,
            inclination_rad=self.inclination_rad,
        )

    @property
    def equatorial_pass_spacing_rad(self) -> float:
        """Longitudinal spacing between adjacent equator crossings [rad].

        After one repeat cycle the ground track has crossed the equator
        ``revolutions`` times (ascending), spaced evenly over 2*pi.  This is
        the quantity that determines whether adjacent passes' footprints
        overlap and hence whether the "single track" degenerates into uniform
        global coverage (Section 2.2).
        """
        return 2.0 * math.pi / self.revolutions


def _repeat_residual(altitude_km: float, revolutions: int, days: int, inclination_rad: float) -> float:
    """Residual of the repeat condition at a trial altitude."""
    a = EARTH_RADIUS_KM + altitude_km
    t_nodal = nodal_period_s(a, 0.0, inclination_rad)
    t_day = nodal_day_s(a, 0.0, inclination_rad)
    return revolutions * t_nodal - days * t_day


def repeat_ground_track_altitude_km(
    revolutions: int, days: int, inclination_deg: float
) -> float:
    """Return the circular altitude [km] of the (``revolutions``:``days``) RGT.

    Parameters
    ----------
    revolutions:
        Orbits per repeat cycle (``k``); must be positive.
    days:
        Nodal days per repeat cycle (``j``); must be positive.
    inclination_deg:
        Orbit inclination in degrees.

    Raises
    ------
    ValueError
        If no altitude in the LEO search range satisfies the repeat condition
        (e.g. the ratio corresponds to an orbit below 150 km or above 3000 km).
    """
    # Imported here, not at module level: scipy.optimize costs ~0.6 s to
    # import and no simulation or design sweep solves for an altitude.
    from scipy.optimize import brentq

    if revolutions <= 0 or days <= 0:
        raise ValueError("revolutions and days must be positive integers")
    inclination_rad = math.radians(inclination_deg)

    low = _repeat_residual(_MIN_ALTITUDE_KM, revolutions, days, inclination_rad)
    high = _repeat_residual(_MAX_ALTITUDE_KM, revolutions, days, inclination_rad)
    if low * high > 0:
        raise ValueError(
            f"no LEO altitude satisfies a {revolutions}:{days} repeat ground track"
        )
    altitude = brentq(
        _repeat_residual,
        _MIN_ALTITUDE_KM,
        _MAX_ALTITUDE_KM,
        args=(revolutions, days, inclination_rad),
        xtol=1e-6,
    )
    return float(altitude)


def revolutions_per_day(altitude_km: float, inclination_deg: float) -> float:
    """Return the (generally non-integer) revolutions per nodal day at an altitude."""
    a = EARTH_RADIUS_KM + altitude_km
    inclination_rad = math.radians(inclination_deg)
    return nodal_day_s(a, 0.0, inclination_rad) / nodal_period_s(a, 0.0, inclination_rad)


def enumerate_leo_repeat_ground_tracks(
    inclination_deg: float,
    min_altitude_km: float = 400.0,
    max_altitude_km: float = 2000.0,
    max_days: int = 1,
) -> list[RepeatGroundTrack]:
    """Enumerate the RGT orbits between two altitudes for a given inclination.

    The paper (Figure 1) considers one-day repeat cycles, for which the
    possible tracks at LEO correspond to integer revolution counts of roughly
    12-16 per day.  Setting ``max_days`` above 1 also includes multi-day
    repeat cycles (k revolutions in j days with gcd(k, j) == 1).

    Returns the tracks sorted by altitude (ascending).
    """
    if min_altitude_km >= max_altitude_km:
        raise ValueError("min_altitude_km must be below max_altitude_km")

    revs_low = revolutions_per_day(max_altitude_km, inclination_deg)
    revs_high = revolutions_per_day(min_altitude_km, inclination_deg)

    tracks: list[RepeatGroundTrack] = []
    for days in range(1, max_days + 1):
        k_min = math.ceil(revs_low * days)
        k_max = math.floor(revs_high * days)
        for revolutions in range(k_min, k_max + 1):
            if math.gcd(revolutions, days) != 1:
                continue
            try:
                altitude = repeat_ground_track_altitude_km(
                    revolutions, days, inclination_deg
                )
            except ValueError:
                continue
            if not min_altitude_km <= altitude <= max_altitude_km:
                continue
            tracks.append(
                RepeatGroundTrack(
                    revolutions=revolutions,
                    days=days,
                    altitude_km=altitude,
                    inclination_rad=math.radians(inclination_deg),
                )
            )
    tracks.sort(key=lambda track: track.altitude_km)
    return tracks
