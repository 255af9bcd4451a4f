"""Ground-track computation.

A ground track is the path of the sub-satellite point over the Earth's
surface.  This module samples ground tracks in both the Earth-fixed frame
(latitude/longitude, used for Figure 2 and for RGT coverage analysis) and the
sun-fixed frame (latitude/local-time-of-day, used by the SS-plane design of
Section 4).  Both are whole-array conversions of one
:func:`~repro.orbits.propagation.sample_positions_eci` trajectory, each
sample rotated at its own Julian date.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import SOLAR_DAY_S
from .elements import OrbitalElements
from .frames import eci_to_latlon, eci_to_sunfixed
from .propagation import sample_positions_eci
from .time import Epoch

__all__ = ["GroundTrack", "compute_ground_track", "compute_sunfixed_track"]


@dataclass(frozen=True, eq=False)
class GroundTrack:
    """A sampled ground track, one array entry per sample in time order.

    Instances compare by identity: array fields have no single truth value.

    Attributes
    ----------
    elapsed_s:
        Seconds since the track's reference epoch.
    latitudes_rad, longitudes_rad:
        The sub-satellite point [rad]; longitudes in (-pi, pi].
    altitudes_km:
        Altitude above the equatorial radius [km].
    """

    elapsed_s: np.ndarray
    latitudes_rad: np.ndarray
    longitudes_rad: np.ndarray
    altitudes_km: np.ndarray

    def __len__(self) -> int:
        return len(self.elapsed_s)

    @property
    def latitudes_deg(self) -> np.ndarray:
        """Latitudes of all samples in degrees."""
        return np.degrees(self.latitudes_rad)

    @property
    def longitudes_deg(self) -> np.ndarray:
        """Longitudes of all samples in degrees."""
        return np.degrees(self.longitudes_rad)

    def max_latitude_deg(self) -> float:
        """Maximum absolute latitude reached by the track, in degrees."""
        return float(np.max(np.abs(self.latitudes_deg)))


def _trajectory(
    elements: OrbitalElements, epoch: Epoch, duration_s: float, step_s: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (elapsed seconds, ECI positions, Julian dates) of the samples."""
    times, positions = sample_positions_eci(elements, epoch, duration_s, step_s)
    return times, positions, epoch.jd + times / SOLAR_DAY_S


def compute_ground_track(
    elements: OrbitalElements,
    epoch: Epoch,
    duration_s: float,
    step_s: float = 30.0,
) -> GroundTrack:
    """Sample the Earth-fixed ground track of one satellite.

    Parameters
    ----------
    elements, epoch:
        Orbit and its reference epoch.
    duration_s:
        Length of the sampled window in seconds (one repeat cycle for an RGT,
        one day for general visualisation); finite and non-negative.
    step_s:
        Sampling interval in seconds; finite and positive.
    """
    times, positions, jds = _trajectory(elements, epoch, duration_s, step_s)
    latitudes, longitudes, altitudes = eci_to_latlon(positions, jds)
    return GroundTrack(
        elapsed_s=times,
        latitudes_rad=latitudes,
        longitudes_rad=longitudes,
        altitudes_km=altitudes,
    )


def compute_sunfixed_track(
    elements: OrbitalElements,
    epoch: Epoch,
    duration_s: float,
    step_s: float = 30.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the track in the sun-fixed (latitude, local-time-of-day) chart.

    Returns
    -------
    (latitudes_rad, local_times_hours):
        Arrays of equal length sampling the satellite's latitude and the local
        solar time of the meridian beneath it.  For a sun-synchronous orbit
        this path is (nearly) time-invariant, which is exactly the property
        the SS-plane design builds on.
    """
    _, positions, jds = _trajectory(elements, epoch, duration_s, step_s)
    latitudes, local_times, _ = eci_to_sunfixed(positions, jds)
    return latitudes, local_times
