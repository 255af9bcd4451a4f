"""Satellite-to-ground visibility.

:func:`elevation_and_slant_range` is the one visibility model of the
library: the elevation angle of Earth-fixed satellite positions above a
site's horizon, with their slant ranges, in one array pass.  The network
layer's ground stations (``visibility_mask``, ``visible_satellites``,
``GroundStation.elevation_to_rad`` and ``can_see``, hence every snapshot
sequence) and :func:`visibility_windows` all decide visibility through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..constants import SOLAR_DAY_S
from ..orbits.elements import OrbitalElements
from ..orbits.frames import eci_to_ecef, geodetic_to_ecef
from ..orbits.propagation import sample_positions_eci
from ..orbits.time import Epoch

__all__ = [
    "elevation_and_slant_range",
    "VisibilityWindow",
    "visibility_windows",
]


def elevation_and_slant_range(
    site_ecef_km: np.ndarray, satellite_positions_ecef_km: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Return (elevation [rad], slant range [km]) of satellites seen from a site.

    ``site_ecef_km`` is the site's Earth-fixed position, shape ``(3,)``;
    ``satellite_positions_ecef_km`` has shape ``(..., 3)`` -- e.g. ``(N, 3)``
    for one instant or ``(T, N, 3)`` for a whole trajectory stack.  Both
    results have the input shape minus the trailing axis.  Negative
    elevations are below the horizon plane.  A position on the site itself
    (zero slant range) gets a finite elevation here; callers that need to
    reject it test the returned range.
    """
    positions = np.asarray(satellite_positions_ecef_km, dtype=float)
    if positions.shape[-1:] != (3,):
        raise ValueError("satellite positions must have a trailing axis of length 3")
    site = np.asarray(site_ecef_km, dtype=float)
    zenith = site / np.linalg.norm(site)
    lines_of_sight = positions - site
    norms = np.linalg.norm(lines_of_sight, axis=-1)
    sin_elevation = (lines_of_sight @ zenith) / np.maximum(norms, 1e-9)
    return np.arcsin(np.clip(sin_elevation, -1.0, 1.0)), norms


@dataclass(frozen=True)
class VisibilityWindow:
    """A contiguous interval during which a satellite is visible from a site."""

    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        """Window duration in seconds."""
        return self.end_s - self.start_s


def visibility_windows(
    elements: OrbitalElements,
    epoch: Epoch,
    latitude_deg: float,
    longitude_deg: float,
    duration_s: float,
    step_s: float = 30.0,
    min_elevation_deg: float = 25.0,
) -> list[VisibilityWindow]:
    """Return the visibility windows of one satellite from one ground site.

    The satellite's trajectory is sampled every ``step_s`` seconds over
    ``duration_s`` in one batch pass
    (:func:`~repro.orbits.propagation.sample_positions_eci`, which rejects a
    non-finite or non-positive step and a non-finite or negative duration),
    rotated into the Earth-fixed frame and tested against the elevation
    mask.  A window opens at its first visible sample and closes at the
    first invisible one, or at the last sample if it is still open there, so
    window edges are quantised to the sampling step, which is fine for the
    pass-statistics purposes of the network layer.
    """
    times, positions = sample_positions_eci(elements, epoch, duration_s, step_s)
    positions_ecef = eci_to_ecef(positions, epoch.jd + times / SOLAR_DAY_S)
    site = geodetic_to_ecef(math.radians(latitude_deg), math.radians(longitude_deg), 0.0)
    elevation, _ = elevation_and_slant_range(site, positions_ecef)
    visible = elevation >= math.radians(min_elevation_deg)
    # +1 where a run of visible samples starts, -1 one past where it ends.
    edges = np.diff(visible.astype(np.int8), prepend=0, append=0)
    starts = np.flatnonzero(edges == 1)
    ends = np.minimum(np.flatnonzero(edges == -1), times.size - 1)
    return [
        VisibilityWindow(start_s=float(times[start]), end_s=float(times[end]))
        for start, end in zip(starts, ends)
    ]
