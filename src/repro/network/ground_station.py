"""Ground stations and user terminals.

Ground endpoints of the satellite network: their positions, which satellites
they can currently see, and the resulting up/down links.  City endpoints are
generated from the same metro catalogue as the demand model so the network
workloads stay consistent with the design-layer demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..coverage.visibility import elevation_and_slant_range
from ..demand.population import METRO_AREAS
from ..orbits.frames import geodetic_to_ecef
from .isl import propagation_delay_ms

__all__ = [
    "GroundStation",
    "default_ground_stations",
    "visibility_mask",
    "visible_satellites",
]


@dataclass(frozen=True)
class GroundStation:
    """A ground station or aggregated user-terminal site.

    Coordinates and the elevation mask must be finite, with
    ``|latitude_deg| <= 90`` and ``min_elevation_deg`` in [-90, 90]; a
    negative mask (seeing below the horizon plane) is allowed.
    """

    name: str
    latitude_deg: float
    longitude_deg: float
    min_elevation_deg: float = 25.0

    def __post_init__(self) -> None:
        for name in ("latitude_deg", "longitude_deg", "min_elevation_deg"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if abs(self.latitude_deg) > 90.0:
            raise ValueError(f"latitude_deg must be in [-90, 90], got {self.latitude_deg!r}")
        if abs(self.min_elevation_deg) > 90.0:
            raise ValueError(
                f"min_elevation_deg must be in [-90, 90], got {self.min_elevation_deg!r}"
            )

    def position_ecef_km(self) -> np.ndarray:
        """Return the station's Earth-fixed position [km]."""
        return geodetic_to_ecef(
            math.radians(self.latitude_deg), math.radians(self.longitude_deg), 0.0
        )

    def elevation_to_rad(self, satellite_ecef_km: np.ndarray) -> float:
        """Return the elevation angle [rad] of a satellite (ECEF position).

        Raises ``ValueError`` if the position coincides with the station.
        """
        elevation, slant_km = elevation_and_slant_range(
            self.position_ecef_km(), satellite_ecef_km
        )
        if slant_km == 0.0:
            raise ValueError("satellite position coincides with the station")
        return float(elevation)

    def can_see(self, satellite_ecef_km: np.ndarray) -> bool:
        """Return whether the satellite is above the station's elevation mask."""
        return self.elevation_to_rad(satellite_ecef_km) >= math.radians(self.min_elevation_deg)

    def uplink_delay_ms(self, satellite_ecef_km: np.ndarray) -> float:
        """Return the one-way propagation delay [ms] to a satellite."""
        distance = float(
            np.linalg.norm(np.asarray(satellite_ecef_km) - self.position_ecef_km())
        )
        return propagation_delay_ms(distance)


def default_ground_stations(
    min_population_millions: float = 5.0, min_elevation_deg: float = 25.0
) -> list[GroundStation]:
    """Return ground stations at every metro above a population threshold."""
    return [
        GroundStation(
            name=metro.name,
            latitude_deg=metro.latitude_deg,
            longitude_deg=metro.longitude_deg,
            min_elevation_deg=min_elevation_deg,
        )
        for metro in METRO_AREAS
        if metro.population_millions >= min_population_millions
    ]


def visibility_mask(
    station: GroundStation, satellite_positions_ecef_km: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Return (visible, distances) of satellites as seen from a station.

    ``satellite_positions_ecef_km`` has shape ``(..., 3)`` -- e.g. ``(N, 3)``
    for one instant or ``(T, N, 3)`` for a whole snapshot sequence; leading
    axes broadcast.  ``visible`` is the boolean elevation-above-mask array and
    ``distances`` the slant range [km], both of the input shape minus the
    trailing axis, from the library's one visibility model
    (:func:`~repro.coverage.visibility.elevation_and_slant_range`).  The
    snapshot-sequence engine passes one station's candidate positions of
    every step.
    """
    elevation, distances = elevation_and_slant_range(
        station.position_ecef_km(), satellite_positions_ecef_km
    )
    return elevation >= math.radians(station.min_elevation_deg), distances


def visible_satellites(
    station: GroundStation, satellite_positions_ecef_km: np.ndarray
) -> np.ndarray:
    """Return indices of satellites visible from a station (vectorised).

    ``satellite_positions_ecef_km`` has shape (N, 3); the result is the array
    of indices whose elevation exceeds the station's mask.
    """
    positions = np.asarray(satellite_positions_ecef_km, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("satellite positions must have shape (N, 3)")
    visible, _ = visibility_mask(station, positions)
    return np.nonzero(visible)[0]
