"""The SS-plane primitive.

An *SS-plane* is one orbital plane of sun-synchronous satellites, identified
by its altitude and its Local Time of Ascending Node (LTAN).  Because the
plane precesses at exactly the rate of the mean Sun, its ground track is a
fixed curve on the sun-fixed (latitude, local-time-of-day) chart: the same
chart on which the paper shows demand to be (quasi-)static (Figure 8).  A
plane with enough satellites for a continuous street of coverage therefore
supplies every (latitude, local-time) cell along its path with one
satellite's worth of capacity, at all times -- the property the greedy design
algorithm of Section 4.2 builds on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..constants import HOURS_PER_DAY
from ..coverage.footprint import coverage_half_angle_rad
from ..coverage.grid import LatLocalTimeGrid
from ..orbits.elements import OrbitalElements
from ..orbits.sunsync import SunSynchronousOrbit, sun_synchronous_inclination_rad

__all__ = ["SSPlane", "satellites_per_plane", "plane_local_time_offset_hours"]


def satellites_per_plane(
    altitude_km: float,
    min_elevation_deg: float = 25.0,
    street_half_width_fraction: float = 0.5,
) -> int:
    """Return the satellites one plane needs for a continuous street of coverage.

    ``street_half_width_fraction`` sets the guaranteed covered half-width of
    the street as a fraction of the footprint half-angle ``lambda``; the
    along-orbit spacing follows from the streets-of-coverage relation
    ``cos(lambda) = cos(c) * cos(spacing / 2)``.  A fraction of 0.5 keeps a
    street of half-width ``lambda / 2`` continuously covered, which is what
    the design algorithm credits a plane with.
    """
    if not 0.0 < street_half_width_fraction < 1.0:
        raise ValueError("street_half_width_fraction must be in (0, 1)")
    lam = coverage_half_angle_rad(altitude_km, min_elevation_deg)
    street = street_half_width_fraction * lam
    half_spacing = math.acos(min(1.0, math.cos(lam) / math.cos(street)))
    if half_spacing <= 0.0:
        raise ValueError("footprint too small for the requested street width")
    return int(math.ceil(math.pi / half_spacing))


def plane_local_time_offset_hours(
    latitude_rad: float, inclination_rad: float, ascending: bool = True
) -> float:
    """Return the local-time offset [h] of a plane's pass over a latitude.

    For an orbit with ascending node at local time LTAN, the point of the
    (ascending or descending) branch at geocentric latitude ``latitude_rad``
    sits at longitude offset ``delta`` from the node, with
    ``tan(delta) = cos(i) * tan(u)`` and ``sin(latitude) = sin(i) * sin(u)``.
    Converted to hours (15 degrees per hour), this is how far in local time
    the covered point is from the LTAN.  Raises ``ValueError`` if the latitude
    is not reached by the orbit.
    """
    sin_i = math.sin(inclination_rad)
    if abs(sin_i) < 1e-9:
        raise ValueError("equatorial orbits have no latitude excursion")
    sin_u = math.sin(latitude_rad) / sin_i
    if abs(sin_u) > 1.0:
        raise ValueError(
            f"latitude {math.degrees(latitude_rad):.1f} deg is beyond the orbit's reach"
        )
    u = math.asin(sin_u)
    if not ascending:
        u = math.pi - u
    delta = math.atan2(math.cos(inclination_rad) * math.sin(u), math.cos(u))
    return delta * HOURS_PER_DAY / (2.0 * math.pi)


@dataclass(frozen=True)
class SSPlane:
    """One sun-synchronous orbital plane of an SS-plane constellation.

    Attributes
    ----------
    altitude_km:
        Circular altitude of the plane.
    ltan_hours:
        Local time of the ascending node, in [0, 24).
    satellite_count:
        Number of satellites in the plane (enough for a continuous street).
    min_elevation_deg:
        Elevation mask used for the footprint geometry.
    street_half_width_fraction:
        Fraction of the footprint half-angle credited as continuously covered
        street half-width (must match how ``satellite_count`` was derived).
    """

    altitude_km: float
    ltan_hours: float
    satellite_count: int
    min_elevation_deg: float = 25.0
    street_half_width_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.satellite_count <= 0:
            raise ValueError("satellite_count must be positive")
        if not 0.0 <= self.ltan_hours < HOURS_PER_DAY:
            raise ValueError("ltan_hours must be in [0, 24)")

    # -- orbit geometry ----------------------------------------------------------

    @cached_property
    def inclination_rad(self) -> float:
        """Sun-synchronous inclination at this altitude [rad]."""
        return sun_synchronous_inclination_rad(self.altitude_km)

    @property
    def inclination_deg(self) -> float:
        """Sun-synchronous inclination at this altitude [deg]."""
        return math.degrees(self.inclination_rad)

    @property
    def orbit(self) -> SunSynchronousOrbit:
        """The underlying sun-synchronous orbit description."""
        return SunSynchronousOrbit(altitude_km=self.altitude_km, ltan_hours=self.ltan_hours)

    @property
    def street_half_width_rad(self) -> float:
        """Continuously covered street half-width around the plane's path [rad]."""
        lam = coverage_half_angle_rad(self.altitude_km, self.min_elevation_deg)
        return self.street_half_width_fraction * lam

    def satellite_elements(self, sun_right_ascension_rad: float = 0.0) -> list[OrbitalElements]:
        """Return Keplerian elements of every satellite in the plane."""
        orbit = self.orbit
        return [
            orbit.to_elements(
                true_anomaly_rad=2.0 * math.pi * index / self.satellite_count,
                sun_right_ascension_rad=sun_right_ascension_rad,
            )
            for index in range(self.satellite_count)
        ]

    # -- sun-fixed path and grid coverage ----------------------------------------

    def path_local_time_hours(self, latitudes_rad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return local times [h] of the ascending and descending passes.

        For each requested latitude the plane crosses it twice per orbit (once
        on the ascending branch, once on the descending branch); latitudes
        beyond the orbit's reach return ``nan``.
        """
        latitudes = np.asarray(latitudes_rad, dtype=float)
        sin_i = math.sin(self.inclination_rad)
        cos_i = math.cos(self.inclination_rad)
        sin_u = np.clip(np.sin(latitudes) / sin_i, -1.5, 1.5)
        reachable = np.abs(sin_u) <= 1.0
        u_asc = np.arcsin(np.clip(sin_u, -1.0, 1.0))
        u_desc = math.pi - u_asc
        delta_asc = np.arctan2(cos_i * np.sin(u_asc), np.cos(u_asc))
        delta_desc = np.arctan2(cos_i * np.sin(u_desc), np.cos(u_desc))
        ascending = (self.ltan_hours + delta_asc * HOURS_PER_DAY / (2.0 * math.pi)) % HOURS_PER_DAY
        descending = (self.ltan_hours + delta_desc * HOURS_PER_DAY / (2.0 * math.pi)) % HOURS_PER_DAY
        ascending = np.where(reachable, ascending, np.nan)
        descending = np.where(reachable, descending, np.nan)
        return ascending, descending

    def coverage_mask(self, grid: LatLocalTimeGrid) -> np.ndarray:
        """Return the boolean mask of grid cells this plane keeps covered.

        A cell is covered if its centre lies within the street half-width of
        the plane's path.  The angular distance in the sun-fixed chart is
        evaluated with the local-time axis converted to degrees of longitude
        and weighted by ``cos(latitude)`` so that the street has a constant
        *surface* width at every latitude (which is what the satellites'
        footprints actually provide).

        Every row is evaluated at once: each row has up to two pass times
        (ascending and descending branch; for a latitude beyond the orbit's
        reach but within the street, the turnaround point's local time) and a
        half-width along the local-time axis, and a cell is covered if its
        wrapped local-time distance to either pass is within that half-width.
        The arithmetic is elementwise, so each cell's verdict is the same as
        a row-by-row evaluation would give.
        """
        latitudes_deg = grid.latitudes_deg
        latitudes_rad = np.radians(latitudes_deg)
        street_deg = math.degrees(self.street_half_width_rad)
        ascending, descending = self.path_local_time_hours(latitudes_rad)

        margin_deg = street_deg + grid.lat_resolution_deg / 2.0
        # Width of the street measured along the local-time axis, wider at
        # high latitude where time-of-day lines converge.
        half_width_hours = (
            margin_deg / np.maximum(np.cos(latitudes_rad), 1e-3) * HOURS_PER_DAY / 360.0
            + grid.time_resolution_hours / 2.0
        )

        # Latitudes beyond the orbit's reach are covered only within the
        # street of the appropriate turnaround point: a quarter orbit away
        # from the ascending node (the sign depends on whether the orbit is
        # prograde or retrograde).
        max_lat_deg = math.degrees(
            math.asin(min(1.0, abs(math.sin(self.inclination_rad))))
        )
        quarter = 6.0 if math.cos(self.inclination_rad) >= 0 else -6.0
        north_turn_time = (self.ltan_hours + quarter) % HOURS_PER_DAY
        south_turn_time = (self.ltan_hours - quarter) % HOURS_PER_DAY
        turn_time = np.where(latitudes_deg > 0, north_turn_time, south_turn_time)
        near_turn = np.abs(latitudes_deg) <= max_lat_deg + street_deg
        first_pass = np.where(
            np.isnan(ascending), np.where(near_turn, turn_time, np.nan), ascending
        )

        local_times = grid.local_times_hours
        mask = np.zeros((grid.n_lat, grid.n_time), dtype=bool)
        # NaN pass times (no pass on that branch) compare False everywhere.
        for pass_times in (first_pass, descending):
            delta = np.abs(
                (local_times[None, :] - pass_times[:, None] + 12.0) % HOURS_PER_DAY - 12.0
            )
            mask |= delta <= half_width_hours[:, None]
        return mask

    def covers(self, latitude_deg: float, local_time_hours: float, grid: LatLocalTimeGrid) -> bool:
        """Return whether this plane covers a particular grid cell."""
        row, col = grid.index_of(latitude_deg, local_time_hours)
        return bool(self.coverage_mask(grid)[row, col])
