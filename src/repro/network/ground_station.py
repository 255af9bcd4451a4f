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
        """Return the elevation angle [rad] of a satellite (ECEF position)."""
        site = self.position_ecef_km()
        zenith = site / np.linalg.norm(site)
        line_of_sight = np.asarray(satellite_ecef_km, dtype=float) - site
        norm = np.linalg.norm(line_of_sight)
        if norm == 0.0:
            raise ValueError("satellite position coincides with the station")
        return math.asin(float(np.clip(np.dot(line_of_sight, zenith) / norm, -1.0, 1.0)))

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
    trailing axis.  This is the single definition of the visibility model,
    shared by :func:`visible_satellites` and the snapshot-sequence engine
    (which passes one station's candidate positions of every step).
    """
    positions = np.asarray(satellite_positions_ecef_km, dtype=float)
    if positions.shape[-1] != 3:
        raise ValueError("satellite positions must have a trailing axis of length 3")
    site = station.position_ecef_km()
    zenith = site / np.linalg.norm(site)
    lines_of_sight = positions - site
    norms = np.linalg.norm(lines_of_sight, axis=-1)
    sin_elevation = (lines_of_sight @ zenith) / np.maximum(norms, 1e-9)
    elevation = np.arcsin(np.clip(sin_elevation, -1.0, 1.0))
    return elevation >= math.radians(station.min_elevation_deg), norms


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
