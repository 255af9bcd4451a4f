"""Coverage analysis of repeat-ground-track constellations.

Prior work (Chen et al., HotNets 2024, reference [6] of the paper) proposed
placing satellites along a repeat ground track (RGT) so that coverage is
pinned to a fixed path over the Earth's surface.  Such a constellation is a
"train": ``N`` satellites that all share the same ground track, each offset
from the next by a fixed fraction of the repeat cycle.  Because the track is
fixed on the rotating Earth, the satellites must occupy *different* orbital
planes (their RAANs are staggered to cancel the Earth's rotation between
successive slots).

Section 2.2 of the paper shows that continuously covering even a single RGT
requires *more* satellites than uniform global coverage with a Walker-delta
pattern at the same altitude, and that most LEO RGTs degenerate into uniform
coverage anyway because adjacent passes overlap.  This module implements the
train construction and both analytic and simulation-based estimates of the
satellite count required, which together produce Figure 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..constants import EARTH_ROTATION_RATE
from ..orbits.elements import OrbitalElements
from ..orbits.perturbations import nodal_period_s, raan_drift_rate
from ..orbits.repeat_ground_track import RepeatGroundTrack
from .footprint import coverage_half_angle_rad
from .walker import (
    _best_cosines,
    _integer,
    _require_time_samples,
    _test_grid,
    circular_positions_eci,
)

__all__ = [
    "RGTTrain",
    "ground_track_rate_rad_s",
    "analytic_satellites_for_track_coverage",
    "required_street_half_width_rad",
    "satellites_to_cover_track",
    "train_covers_region",
    "swath_sample_points",
    "provides_uniform_coverage",
]


def ground_track_rate_rad_s(track: RepeatGroundTrack) -> float:
    """Return the average angular speed [rad/s] of the sub-satellite point.

    Measured along the ground track in the Earth-fixed frame.  For prograde
    orbits the Earth's rotation partially cancels the orbital motion near the
    equator, so the track rate is slightly below the orbital mean motion; the
    repeat condition makes the *average* rate exactly ``track length / repeat
    period`` with the track length equal to ``revolutions`` time the per-rev
    path length.
    """
    a = track.elements.semi_major_axis_km
    i = track.inclination_rad
    n = 2.0 * math.pi / nodal_period_s(a, 0.0, i)
    omega_rel = EARTH_ROTATION_RATE - raan_drift_rate(a, 0.0, i)
    # Relative angular velocity of the sub-satellite point: orbital motion in
    # the plane combined with the rotation of the Earth beneath the plane.
    return math.sqrt(n * n - 2.0 * n * omega_rel * math.cos(i) + omega_rel * omega_rel)


@dataclass(frozen=True)
class RGTTrain:
    """``count`` satellites sharing a single repeat ground track.

    Satellite ``j`` lags satellite ``j-1`` by ``repeat period / count`` along
    the common track; its RAAN and along-track phase are offset accordingly.
    """

    track: RepeatGroundTrack
    count: int

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("satellite count must be positive")

    def raan_and_phase_rad(self) -> tuple[np.ndarray, np.ndarray]:
        """Return per-satellite (RAAN, argument of latitude) offsets [rad]."""
        j = np.arange(self.count)
        fraction = j / self.count
        phase = 2.0 * math.pi * self.track.revolutions * fraction
        raan = -2.0 * math.pi * self.track.days * fraction
        return np.mod(raan, 2.0 * math.pi), np.mod(phase, 2.0 * math.pi)

    def satellite_elements(self) -> list[OrbitalElements]:
        """Return Keplerian elements of every satellite in the train."""
        raan, phase = self.raan_and_phase_rad()
        return [
            OrbitalElements(
                semi_major_axis_km=self.track.elements.semi_major_axis_km,
                inclination_rad=self.track.inclination_rad,
                raan_rad=float(r),
                true_anomaly_rad=float(p),
            )
            for r, p in zip(raan, phase)
        ]

    def positions_eci(self, cycle_fraction: float) -> np.ndarray:
        """Return ECI positions (km) of all satellites at a fraction of the cycle.

        ``cycle_fraction`` in [0, 1) selects the instant within one repeat
        cycle.  The Earth-rotation angle corresponding to the same fraction
        must be applied separately when Earth-fixed positions are needed.
        """
        raan, phase = self.raan_and_phase_rad()
        advance = 2.0 * math.pi * self.track.revolutions * cycle_fraction
        return circular_positions_eci(
            self.track.altitude_km,
            self.track.inclination_rad,
            raan,
            phase + advance,
        )


def analytic_satellites_for_track_coverage(
    track: RepeatGroundTrack, min_elevation_deg: float = 25.0
) -> int:
    """Return a lower bound on the train size that covers the RGT centreline.

    The satellites of an RGT train are equally spaced along the full repeat
    track, whose angular length is ``revolutions`` times the per-revolution
    path length.  Keeping every point of the *centreline* within reach
    requires the spacing between successive sub-satellite points to stay
    within one footprint diameter (``2 * lambda``), giving

        N >= track_length / (2 * lambda).

    This is only a lower bound on the figure the paper reports: serving the
    regions the track passes over means continuously covering the whole
    *swath* (all surface points within one footprint half-angle of the
    track), which :func:`simulated_satellites_for_track_coverage` evaluates.
    """
    lam = coverage_half_angle_rad(track.altitude_km, min_elevation_deg)
    track_rate = ground_track_rate_rad_s(track)
    a = track.elements.semi_major_axis_km
    per_rev_length = track_rate * nodal_period_s(a, 0.0, track.inclination_rad)
    track_length = track.revolutions * per_rev_length
    return int(math.ceil(track_length / (2.0 * lam)))


def _track_sample_points(track: RepeatGroundTrack, samples_per_rev: int) -> np.ndarray:
    """Return unit vectors (Earth-fixed) sampling the repeat ground track."""
    total = samples_per_rev * track.revolutions
    fractions = np.arange(total) / total
    # Satellite 0 traces the whole track over one repeat cycle; evaluate its
    # Earth-fixed direction at evenly spaced cycle fractions.
    phase = 2.0 * math.pi * track.revolutions * fractions
    raan = np.zeros_like(phase)
    positions = circular_positions_eci(
        track.altitude_km, track.inclination_rad, raan, phase
    )
    # Rotate into the Earth-fixed frame: the Earth (relative to the orbit
    # plane) advances by `days` full turns per cycle.
    rotation = -2.0 * math.pi * track.days * fractions
    cos_r, sin_r = np.cos(rotation), np.sin(rotation)
    x = cos_r * positions[:, 0] - sin_r * positions[:, 1]
    y = sin_r * positions[:, 0] + cos_r * positions[:, 1]
    fixed = np.stack([x, y, positions[:, 2]], axis=-1)
    return fixed / np.linalg.norm(fixed, axis=1, keepdims=True)


def _points_near_track(
    track: RepeatGroundTrack,
    half_width_rad: float,
    grid_step_deg: float,
    samples_per_rev: int,
) -> np.ndarray:
    """Return the global test grid points within ``half_width_rad`` of the
    track centreline (sampled ``samples_per_rev`` times per revolution).

    The grid is the Walker checks' test grid up to the poles, so a
    non-finite or non-positive ``grid_step_deg`` raises ``ValueError``, as
    does a ``samples_per_rev`` below 1.  Each point's best cosine to the
    track samples comes from :func:`_best_cosines`, one block of grid rows
    at a time.
    """
    if _integer("samples_per_rev", samples_per_rev) < 1:
        raise ValueError(f"samples_per_rev must be at least 1, got {samples_per_rev!r}")
    grid_units = _test_grid(grid_step_deg, 90.0)
    track_units = _track_sample_points(track, samples_per_rev)
    near = _best_cosines(grid_units, track_units.T) >= math.cos(half_width_rad)
    return grid_units[near]


def swath_sample_points(
    track: RepeatGroundTrack,
    min_elevation_deg: float = 25.0,
    grid_step_deg: float = 4.0,
    samples_per_rev: int = 90,
) -> np.ndarray:
    """Return unit vectors sampling the *swath* served by the track.

    The swath is the union of single-satellite footprints along the track --
    the red region of the paper's Figure 2.  It is what an RGT constellation
    is meant to serve, so it is the coverage target used when sizing the
    train.  Points are drawn from a regular latitude/longitude grid and kept
    if they lie within one footprint half-angle of the track centreline;
    the grid x track product is formed one block of grid rows at a time.

    Raises ``ValueError`` if ``grid_step_deg`` is not finite and positive or
    ``samples_per_rev`` is below 1, naming the parameter and its value.
    """
    half_angle = coverage_half_angle_rad(track.altitude_km, min_elevation_deg)
    return _points_near_track(track, half_angle, grid_step_deg, samples_per_rev)


def _train_covers_points(
    train: RGTTrain,
    target_units: np.ndarray,
    half_angle_rad: float,
    time_samples: int,
) -> bool:
    """Return whether the train keeps every target point covered at all times.

    The Earth-fixed position *set* of an ``N``-satellite train is periodic
    with period ``repeat_period / N`` (satellite ``j`` moves onto the former
    position of satellite ``j-1``), so sampling that short interval suffices
    to establish continuous coverage.  Each sample's best cosines come from
    :func:`_best_cosines`, one block of target points at a time.
    """
    cos_threshold = math.cos(half_angle_rad)
    pattern_period_fraction = 1.0 / train.count
    for sample in range(time_samples):
        fraction = pattern_period_fraction * sample / time_samples
        positions = train.positions_eci(fraction)
        # Earth-fixed satellite directions at this instant.
        rotation = -2.0 * math.pi * train.track.days * fraction
        cos_r, sin_r = math.cos(rotation), math.sin(rotation)
        x = cos_r * positions[:, 0] - sin_r * positions[:, 1]
        y = sin_r * positions[:, 0] + cos_r * positions[:, 1]
        fixed = np.stack([x, y, positions[:, 2]], axis=-1)
        sat_units = fixed / np.linalg.norm(fixed, axis=1, keepdims=True)
        if _best_cosines(target_units, sat_units.T).min() < cos_threshold:
            return False
    return True


def required_street_half_width_rad(
    track: RepeatGroundTrack,
    min_elevation_deg: float = 25.0,
    swath_fraction: float = 0.95,
) -> float:
    """Return the street half-width [rad] the RGT train must maintain.

    A train of satellites along one track produces a continuous "street of
    coverage" around the track centreline.  To serve the region the track is
    meant to serve the street must be wide enough that

    * for tracks whose adjacent passes overlap (the "uniform" case) the
      streets of neighbouring passes seal the gap between them: the half-width
      must reach half the perpendicular distance between adjacent ascending
      passes at the equator;
    * for genuinely non-uniform tracks the street must span (almost all of)
      the single-satellite swath itself; ``swath_fraction`` of the footprint
      half-angle is used because covering the extreme swath edge with a single
      row of satellites would require an unbounded count.
    """
    if not 0.0 < swath_fraction < 1.0:
        raise ValueError("swath_fraction must lie strictly between 0 and 1")
    lam = coverage_half_angle_rad(track.altitude_km, min_elevation_deg)
    gap = 2.0 * math.pi * track.days / track.revolutions
    perpendicular_gap = gap * math.sin(track.inclination_rad)
    return min(perpendicular_gap / 2.0, swath_fraction * lam)


def satellites_to_cover_track(
    track: RepeatGroundTrack,
    min_elevation_deg: float = 25.0,
    swath_fraction: float = 0.95,
) -> int:
    """Return the train size required to continuously serve the RGT's region.

    Uses the streets-of-coverage relation along the track: ``N`` satellites
    spread over the ``k``-revolution track are spaced ``2*pi*k/N`` apart in
    argument of latitude and sustain a street of half-width ``c`` given by
    ``cos(lambda) = cos(c) * cos(pi*k/N)``.  Solving for the ``N`` that
    achieves the half-width required by :func:`required_street_half_width_rad`
    yields the satellite count plotted as the RGT series of Figure 1.
    """
    lam = coverage_half_angle_rad(track.altitude_km, min_elevation_deg)
    street = required_street_half_width_rad(track, min_elevation_deg, swath_fraction)
    ratio = math.cos(lam) / math.cos(street)
    # The half-spacing between adjacent satellites along the track.
    half_spacing = math.acos(min(1.0, ratio))
    if half_spacing <= 0.0:
        raise ValueError("footprint too small to sustain the required street")
    return int(math.ceil(math.pi * track.revolutions / half_spacing))


def train_covers_region(
    train: RGTTrain,
    min_elevation_deg: float = 25.0,
    street_half_width_rad: float | None = None,
    grid_step_deg: float = 4.0,
    samples_per_rev: int = 90,
    time_samples: int = 8,
) -> bool:
    """Check by simulation that a train keeps its street continuously covered.

    The target region is every sampled surface point within
    ``street_half_width_rad`` (default: the requirement computed by
    :func:`required_street_half_width_rad`) of the track centreline.  The
    Earth-fixed position *set* of an ``N``-satellite train is periodic with
    period ``repeat_period / N``, so only that short interval is sampled.
    Every points x satellites (or points x track) product is formed one
    block of grid rows at a time, so memory does not grow with the grid.

    Raises
    ------
    ValueError
        If ``time_samples`` or ``samples_per_rev`` is below 1,
        ``grid_step_deg`` or ``street_half_width_rad`` is not finite and
        positive, or the street holds no test grid point: the check would
        otherwise pass without testing anything.  Each message names the
        parameter and its value.
    """
    _require_time_samples(time_samples)
    half_angle = coverage_half_angle_rad(train.track.altitude_km, min_elevation_deg)
    if street_half_width_rad is None:
        street_half_width_rad = required_street_half_width_rad(
            train.track, min_elevation_deg
        )
    if not (math.isfinite(street_half_width_rad) and street_half_width_rad > 0.0):
        raise ValueError(
            "street_half_width_rad must be finite and positive, "
            f"got {street_half_width_rad!r}"
        )
    target_units = _points_near_track(
        train.track, street_half_width_rad, grid_step_deg, samples_per_rev
    )
    if not len(target_units):
        raise ValueError(
            f"street_half_width_rad={street_half_width_rad!r} holds no test grid "
            f"point at grid_step_deg={grid_step_deg!r}"
        )
    return _train_covers_points(train, target_units, half_angle, time_samples)


def provides_uniform_coverage(
    track: RepeatGroundTrack, min_elevation_deg: float = 25.0
) -> bool:
    """Return whether covering this RGT implies (near-)uniform global coverage.

    Adjacent ascending passes of a ``k``-revolutions-per-``j``-days track are
    separated by ``2*pi*j/k`` of longitude at the equator.  If that gap is no
    wider than the footprint diameter projected onto the equator
    (``2*lambda / sin(i)``), the passes' coverage bands merge and the "single
    track" covers every longitude -- the degenerate case called out in
    Section 2.2 (only a few low-altitude LEO RGTs escape it).
    """
    lam = coverage_half_angle_rad(track.altitude_km, min_elevation_deg)
    gap = 2.0 * math.pi * track.days / track.revolutions
    projected_width = 2.0 * lam / max(math.sin(track.inclination_rad), 1e-6)
    return gap <= projected_width
