"""Walker-delta constellations: generation, coverage checking, and sizing.

The Walker-delta pattern ``i: T/P/F`` spreads ``T`` satellites over ``P``
equally spaced orbital planes (ascending nodes spread over 360 degrees) at a
common inclination ``i``, with an inter-plane phase offset controlled by the
phasing factor ``F``.  It is the de-facto architecture of today's LSNs and is
the baseline the paper compares SS-plane designs against.

This module provides:

* :class:`WalkerDelta` -- constellation description and satellite generation,
* fast vectorised coverage checks against a latitude/longitude grid,
* :func:`minimum_walker_for_coverage` -- the smallest Walker-delta (by total
  satellite count) that provides continuous single coverage, used for the
  Walker curve of Figure 1,
* :func:`streets_of_coverage_size` -- the classical analytic sizing, used as a
  search seed and as a cross-check of the numerical result.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..constants import EARTH_RADIUS_KM
from ..orbits.elements import OrbitalElements
from .footprint import coverage_half_angle_rad

__all__ = [
    "WalkerDelta",
    "circular_positions_eci",
    "coverage_fraction",
    "is_continuously_covered",
    "streets_of_coverage_size",
    "minimum_walker_for_coverage",
]


def _integer(name: str, value: object) -> int:
    """Return ``value`` as an ``int``, or raise naming ``name``.

    ``operator.index`` admits Python and numpy integers but not floats
    (``24.0`` included); ``bool`` is rejected explicitly.
    """
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class WalkerDelta:
    """A Walker-delta constellation ``inclination: total/planes/phasing``.

    Attributes
    ----------
    altitude_km:
        Common circular altitude of all satellites (finite, positive).
    inclination_deg:
        Common inclination in degrees, in [0, 180].
    total_satellites:
        Total number of satellites ``T``.
    planes:
        Number of equally spaced orbital planes ``P`` (must divide ``T``).
    phasing:
        Walker phasing factor ``F`` in [0, P).

    The three counts must be integers; numpy integers are accepted and
    stored as ``int``, while ``bool`` and floats (``24.0`` too) are rejected.
    """

    altitude_km: float
    inclination_deg: float
    total_satellites: int
    planes: int
    phasing: int = 1

    def __post_init__(self) -> None:
        for name in ("total_satellites", "planes", "phasing"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not (math.isfinite(self.altitude_km) and self.altitude_km > 0.0):
            raise ValueError(
                f"altitude_km must be finite and positive, got {self.altitude_km!r}"
            )
        if not (
            math.isfinite(self.inclination_deg)
            and 0.0 <= self.inclination_deg <= 180.0
        ):
            raise ValueError(
                "inclination_deg must be finite and in [0, 180], "
                f"got {self.inclination_deg!r}"
            )
        if self.planes <= 0 or self.total_satellites <= 0:
            raise ValueError("planes and total_satellites must be positive")
        if self.total_satellites % self.planes != 0:
            raise ValueError("total_satellites must be a multiple of planes")
        if not 0 <= self.phasing < self.planes:
            raise ValueError("phasing factor must be in [0, planes)")

    @property
    def satellites_per_plane(self) -> int:
        """Number of satellites in each plane."""
        return self.total_satellites // self.planes

    def satellite_elements(self) -> list[OrbitalElements]:
        """Return the Keplerian elements of every satellite in the pattern."""
        elements = []
        sats_per_plane = self.satellites_per_plane
        for plane_index in range(self.planes):
            raan_deg = 360.0 * plane_index / self.planes
            for slot_index in range(sats_per_plane):
                phase_deg = (
                    360.0 * slot_index / sats_per_plane
                    + 360.0 * self.phasing * plane_index / self.total_satellites
                )
                elements.append(
                    OrbitalElements.circular(
                        altitude_km=self.altitude_km,
                        inclination_deg=self.inclination_deg,
                        raan_deg=raan_deg,
                        true_anomaly_deg=phase_deg,
                    )
                )
        return elements

    def raan_and_phase_rad(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (RAAN, argument-of-latitude) arrays for all satellites [rad]."""
        plane_index = np.repeat(np.arange(self.planes), self.satellites_per_plane)
        slot_index = np.tile(np.arange(self.satellites_per_plane), self.planes)
        raan = 2.0 * math.pi * plane_index / self.planes
        phase = (
            2.0 * math.pi * slot_index / self.satellites_per_plane
            + 2.0 * math.pi * self.phasing * plane_index / self.total_satellites
        )
        return raan, phase


def circular_positions_eci(
    altitude_km: float,
    inclination_rad: float,
    raan_rad: np.ndarray,
    arg_latitude_rad: np.ndarray,
) -> np.ndarray:
    """Return ECI positions [km] of circular-orbit satellites, vectorised.

    Parameters
    ----------
    altitude_km, inclination_rad:
        Common altitude and inclination.
    raan_rad, arg_latitude_rad:
        Per-satellite RAAN and argument of latitude arrays (same shape).

    Returns
    -------
    numpy.ndarray of shape (N, 3).
    """
    raan = np.asarray(raan_rad, dtype=float)
    u = np.asarray(arg_latitude_rad, dtype=float)
    if raan.shape != u.shape:
        raise ValueError("raan_rad and arg_latitude_rad must have the same shape")
    radius = EARTH_RADIUS_KM + altitude_km
    cos_i = math.cos(inclination_rad)
    sin_i = math.sin(inclination_rad)
    x = radius * (np.cos(u) * np.cos(raan) - np.sin(u) * cos_i * np.sin(raan))
    y = radius * (np.cos(u) * np.sin(raan) + np.sin(u) * cos_i * np.cos(raan))
    z = radius * (np.sin(u) * sin_i)
    return np.stack([x, y, z], axis=-1)


@lru_cache(maxsize=64)
def _grid_unit_vectors(lat_step_deg: float, lat_limit_deg: float) -> np.ndarray:
    """Return unit vectors of a lat/lon test grid up to ``lat_limit_deg``.

    The grid is built once per ``(lat_step_deg, lat_limit_deg)`` and shared,
    so the returned array is read-only.
    """
    latitudes = np.arange(-lat_limit_deg + lat_step_deg / 2, lat_limit_deg, lat_step_deg)
    longitudes = np.arange(-180.0 + lat_step_deg / 2, 180.0, lat_step_deg)
    lat_grid, lon_grid = np.meshgrid(np.radians(latitudes), np.radians(longitudes), indexing="ij")
    cos_lat = np.cos(lat_grid)
    vectors = np.stack(
        [cos_lat * np.cos(lon_grid), cos_lat * np.sin(lon_grid), np.sin(lat_grid)], axis=-1
    )
    vectors = vectors.reshape(-1, 3)
    vectors.flags.writeable = False
    return vectors


#: Rows of a points x satellites cosine product formed at once.  Of 64, 128,
#: 256 and 512 rows, 64 timed as fast as any on the design sweep and fastest
#: on 1-degree grids (a 64 x 1,584 block, 0.8 MB, stays in a 2 MB L2 cache);
#: it caps the live product at 0.5 MB per 1,000 satellites.
_COSINE_BLOCK_ROWS = 64


def _best_cosines(points: np.ndarray, units: np.ndarray) -> np.ndarray:
    """Return the best cosine of each ``(M, 3)`` point to the ``(3, N)`` unit vectors.

    This is ``(points @ units).max(axis=1)``, computed over fixed blocks of
    ``_COSINE_BLOCK_ROWS`` rows so that only one ``(block, N)`` product is
    live, however many points there are.  It equals the full expression bit
    for bit when the points fit in one block; otherwise a block's product
    may differ from the full one in its last bits (BLAS blocks differently),
    so a verdict that must be exact has to come from this same call on the
    same arrays.  With no unit vector every point's best cosine is ``-inf``.
    """
    best = np.empty(len(points))
    for start in range(0, len(points), _COSINE_BLOCK_ROWS):
        stop = start + _COSINE_BLOCK_ROWS
        np.max(points[start:stop] @ units, axis=1, out=best[start:stop], initial=-np.inf)
    return best


def _require_time_samples(time_samples: int) -> None:
    """Reject a sample count that would let a coverage check test nothing."""
    if _integer("time_samples", time_samples) < 1:
        raise ValueError(f"time_samples must be at least 1, got {time_samples!r}")


def _test_grid(grid_step_deg: float, lat_limit_deg: float) -> np.ndarray:
    """Return the coverage test grid, rejecting settings that leave it empty.

    An empty grid would let a coverage check pass without testing a single
    point (the mean of nothing is NaN), so a non-finite or non-positive
    step, a non-finite limit and an empty grid raise ``ValueError`` naming
    the parameter and its value.
    """
    if not (math.isfinite(grid_step_deg) and grid_step_deg > 0.0):
        raise ValueError(
            f"grid_step_deg must be finite and positive, got {grid_step_deg!r}"
        )
    if not math.isfinite(lat_limit_deg):
        raise ValueError(f"lat_limit_deg must be finite, got {lat_limit_deg!r}")
    grid_units = _grid_unit_vectors(grid_step_deg, lat_limit_deg)
    if not len(grid_units):
        raise ValueError(
            f"the coverage test grid is empty: grid_step_deg={grid_step_deg!r} leaves "
            f"no point within lat_limit_deg={lat_limit_deg!r}"
        )
    return grid_units


def coverage_fraction(
    positions_eci_km: np.ndarray,
    half_angle_rad: float,
    grid_step_deg: float = 5.0,
    lat_limit_deg: float = 90.0,
) -> float:
    """Return the fraction of surface grid points covered by at least one satellite.

    Coverage is evaluated in the inertial frame: because the test grid spans
    all longitudes uniformly, rotating it into the Earth-fixed frame does not
    change the answer, so the GMST rotation can be skipped.  A point is
    covered when its best cosine to the sub-satellite points (see
    :func:`_best_cosines`, which forms the grid x satellites product one
    block of rows at a time) reaches ``cos(half_angle_rad)``.

    Raises ``ValueError`` if a position is not finite or is the origin,
    ``grid_step_deg`` is not finite and positive, or the test grid up to
    ``lat_limit_deg`` holds no point.
    """
    positions = np.asarray(positions_eci_km, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("positions must have shape (N, 3)")
    norms = np.linalg.norm(positions, axis=1)
    bad = ~(np.isfinite(norms) & (norms > 0.0))
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(
            f"positions must be finite and non-zero, got row {row}: {positions[row].tolist()}"
        )
    grid_units = _test_grid(grid_step_deg, lat_limit_deg)
    best = _best_cosines(grid_units, (positions / norms[:, None]).T)
    return float(np.mean(best >= math.cos(half_angle_rad)))


def is_continuously_covered(
    constellation: WalkerDelta,
    min_elevation_deg: float,
    lat_limit_deg: float | None = None,
    grid_step_deg: float = 5.0,
    time_samples: int = 8,
) -> bool:
    """Return whether a Walker-delta pattern provides continuous single coverage.

    The pattern is advanced through ``time_samples`` snapshots of the orbital
    period (the coverage pattern of a Walker constellation is periodic in the
    satellites' argument of latitude) and every snapshot must cover every test
    grid point up to ``lat_limit_deg``.

    ``lat_limit_deg`` defaults to the constellation's inclination latitude
    (or its supplement for retrograde patterns): the band that an inclined
    Walker constellation is designed to serve.  Latitudes beyond the
    turnaround latitude receive only grazing coverage and demanding them
    continuously would inflate the satellite count without bound.

    Each snapshot's best cosines come from :func:`_best_cosines`, one block
    of grid rows at a time, so memory stays bounded whatever the grid and
    the constellation size.

    Raises
    ------
    ValueError
        If ``time_samples < 1``, ``grid_step_deg`` is not finite and positive,
        or the test grid holds no point: the check would otherwise pass
        without testing anything.
    """
    half_angle = coverage_half_angle_rad(constellation.altitude_km, min_elevation_deg)
    if lat_limit_deg is None:
        lat_limit_deg = min(
            constellation.inclination_deg, 180.0 - constellation.inclination_deg
        )
    _require_time_samples(time_samples)
    grid_units = _test_grid(grid_step_deg, lat_limit_deg)
    return _covers_samples(constellation, grid_units, math.cos(half_angle), time_samples, 0)


def _sample_unit_vectors(constellation: WalkerDelta, sample: int, time_samples: int) -> np.ndarray:
    """Return the ``(3, N)`` sub-satellite unit vectors at snapshot ``sample``.

    Snapshot ``sample`` of ``time_samples`` advances every satellite's
    argument of latitude by ``2 pi sample / time_samples``.
    """
    raan, phase = constellation.raan_and_phase_rad()
    advance = 2.0 * math.pi * sample / time_samples
    inclination_rad = math.radians(constellation.inclination_deg)
    positions = circular_positions_eci(
        constellation.altitude_km, inclination_rad, raan, phase + advance
    )
    return (positions / np.linalg.norm(positions, axis=1, keepdims=True)).T


def _covers_samples(
    constellation: WalkerDelta,
    grid_units: np.ndarray,
    cos_half_angle: float,
    time_samples: int,
    first_sample: int,
) -> bool:
    """Return whether snapshots ``first_sample`` to ``time_samples - 1`` all
    give every grid point a best cosine of at least ``cos_half_angle``.

    :func:`is_continuously_covered` starts at snapshot 0.
    :func:`minimum_walker_for_coverage` starts at 1 once its full-grid check
    of snapshot 0 passed: that check is this helper's snapshot-0 check (the
    same :func:`_best_cosines` call on the same grid array and the same unit
    vectors), so its verdict is the one snapshot 0 would give here.
    """
    for sample in range(first_sample, time_samples):
        sat_units = _sample_unit_vectors(constellation, sample, time_samples)
        if _best_cosines(grid_units, sat_units).min() < cos_half_angle:
            return False
    return True


def streets_of_coverage_size(
    altitude_km: float, inclination_deg: float, min_elevation_deg: float
) -> tuple[int, int]:
    """Return an analytic (planes, satellites_per_plane) sizing estimate.

    Uses the classical "streets of coverage" argument: ``S`` satellites per
    plane produce a continuous street of half-width ``c`` with
    ``cos(lambda) = cos(c) * cos(pi/S)``; ``P`` planes whose adjacent streets
    (including both ascending and descending passes) must close around the
    equator give ``P * (c + lambda) * sin(i) >= pi``.  The result seeds the
    numerical search of :func:`minimum_walker_for_coverage`.
    """
    lam = coverage_half_angle_rad(altitude_km, min_elevation_deg)
    inclination_rad = math.radians(inclination_deg)
    satellites_per_plane = int(math.ceil(math.pi / lam)) + 1
    street_half_width = math.acos(
        min(1.0, math.cos(lam) / math.cos(math.pi / satellites_per_plane))
    )
    planes = int(
        math.ceil(math.pi / ((street_half_width + lam) * max(math.sin(inclination_rad), 0.3)))
    )
    return planes, satellites_per_plane


#: Cosine margin below which a witness point rejects a candidate: far above
#: the ~1e-15 error of the closed-form best cosine (and of the dot products
#: behind a coverage verdict).
_WITNESS_MARGIN = 1e-9

#: Sizing candidates whose witness bounds are evaluated in one array pass.
#: The pass holds (witnesses x the window's planes) arrays, which grow with
#: the witnesses found; at 128 they set the design sweep's peak RSS, 2 MB
#: above that at 32.  Verdicts do not depend on the window.
_WITNESS_WINDOW = 32

#: Every ``_FIRST_CHECK_STRIDE``-th test grid point forms the grid a screened
#: candidate is checked on first, before its full sample-0 check.
_FIRST_CHECK_STRIDE = 4


def _witness_rejects(
    witnesses: np.ndarray,
    totals: np.ndarray,
    planes: np.ndarray,
    inclination_rad: float,
    cos_floor: float,
) -> np.ndarray:
    """Return, per candidate ``(totals[j], planes[j])``, whether a witness rejects it.

    Candidates have phasing 1.  Satellite ``k`` of plane ``p`` sits at the
    unit vector ``cos(u) a_p + sin(u) b_p`` with ``a_p = (cos W, sin W, 0)``,
    ``b_p = (-sin W cos i, cos W cos i, sin i)``, ``W = 2 pi p / P`` and
    ``u = 2 pi k / S + 2 pi p / T``.  Its cosine to a witness ``w`` is
    ``A cos(u) + B sin(u) = hypot(A, B) cos(u - atan2(B, A))`` with
    ``A = w . a_p`` and ``B = w . b_p``, so the plane's best cosine is
    ``hypot(A, B) cos(d)``, ``d`` being the distance from
    ``atan2(B, A) - 2 pi p / T`` to the nearest multiple of ``2 pi / S``.
    The candidate's best cosine is the maximum over its planes; a witness
    rejects it when that falls below ``cos_floor``.
    """
    if not len(witnesses) or not len(totals):
        return np.zeros(len(totals), dtype=bool)
    starts = np.cumsum(planes) - planes
    owner = np.repeat(np.arange(len(totals)), planes)
    plane_index = np.arange(int(planes.sum())) - starts[owner]
    raan = 2.0 * math.pi * plane_index / planes[owner]
    node_phase = 2.0 * math.pi * plane_index / totals[owner]
    slot_spacing = 2.0 * math.pi / (totals // planes)[owner]

    cos_raan, sin_raan = np.cos(raan), np.sin(raan)
    cos_i, sin_i = math.cos(inclination_rad), math.sin(inclination_rad)
    wx, wy, wz = (witnesses[:, axis, None] for axis in range(3))
    along_node = wx * cos_raan + wy * sin_raan
    across_node = (wy * cos_raan - wx * sin_raan) * cos_i + wz * sin_i
    slots = (np.arctan2(across_node, along_node) - node_phase) / slot_spacing
    gap = np.abs(slots - np.rint(slots)) * slot_spacing
    best = np.hypot(along_node, across_node) * np.cos(gap)
    best_per_candidate = np.maximum.reduceat(best, starts, axis=1)
    return np.any(best_per_candidate < cos_floor, axis=0)


def _uncovered_point(
    points: np.ndarray, sat_units: np.ndarray, cos_floor: float
) -> np.ndarray | None:
    """Return the ``(1, 3)`` point worst covered by the ``(3, N)`` satellite
    unit vectors if its best cosine is below ``cos_floor``, else ``None``.

    The best cosines come from :func:`_best_cosines`, so only one block of
    points is multiplied at a time.
    """
    best = _best_cosines(points, sat_units)
    worst = int(np.argmin(best))
    return points[worst : worst + 1] if best[worst] < cos_floor else None


def minimum_walker_for_coverage(
    altitude_km: float,
    inclination_deg: float,
    min_elevation_deg: float = 25.0,
    lat_limit_deg: float | None = None,
    grid_step_deg: float = 5.0,
    time_samples: int = 8,
    max_total: int = 5000,
) -> WalkerDelta:
    """Return the smallest Walker-delta giving continuous single coverage.

    The search enumerates plane counts and satellites-per-plane counts in
    order of increasing total satellite count (ties in plane-count order),
    bounded around the analytic streets-of-coverage seed, and returns the
    first configuration that passes :func:`is_continuously_covered`.

    Candidates are ``(total, planes)`` pairs, held as two integer arrays put
    in search order by one stable sort.  Almost every failing candidate
    already leaves some grid point uncovered at the first time sample, so
    the search keeps *witnesses*: grid points that earlier candidates left
    uncovered at that sample.  A witness's best cosine to a candidate's
    satellites has a closed form per orbital plane (see
    :func:`_witness_rejects`), so windows of ``_WITNESS_WINDOW`` candidates
    are screened against all witnesses in one array pass, without building
    any satellite.  The closed form is within ~1e-15 of the dot products a
    coverage check computes, far inside ``_WITNESS_MARGIN`` (1e-9): a
    candidate it puts below ``cos(half_angle) - _WITNESS_MARGIN`` leaves the
    witness uncovered in the full check too, so rejection is sound.

    A candidate that survives the screen gets its satellites built, and its
    first-sample best cosines are computed on a strided quarter of the test
    grid (every ``_FIRST_CHECK_STRIDE``-th point).  Those are the dot
    products sample 0 of the full check computes at the same points, up to
    the last-bit rounding of differently blocked products, far inside
    ``_WITNESS_MARGIN``: a point below ``cos(half_angle) - _WITNESS_MARGIN``
    there is uncovered in the full check too, so the candidate fails and the
    point becomes a witness.  Most failing candidates are caught this way at
    a quarter of the cost.  Otherwise the best cosines are computed on the
    whole grid by the same :func:`_best_cosines` call, on the same grid array
    and unit vectors, that sample 0 of the full check makes, so its verdict
    is exactly sample 0's: a point it leaves uncovered fails the candidate
    and becomes a witness.  A candidate that passes it is accepted only if
    samples 1 onwards of the full check pass too (sample 0 is not computed
    twice), so the returned pattern is the one the exhaustive search in this
    order would return.  Every points x satellites product here is formed
    one block of grid rows at a time, so memory does not grow with the grid.

    Raises
    ------
    ValueError
        If ``time_samples < 1``, ``grid_step_deg`` is not finite and
        positive, ``max_total`` is not positive, or the test grid holds no
        point (each message names the parameter and its value); or if no
        configuration with at most ``max_total`` satellites covers the
        requested region (e.g. the altitude is too low for the elevation
        mask).
    """
    if not max_total > 0:
        raise ValueError(f"max_total must be positive, got {max_total!r}")
    if lat_limit_deg is None:
        lat_limit_deg = min(inclination_deg, 180.0 - inclination_deg)
    _require_time_samples(time_samples)
    grid_units = _test_grid(grid_step_deg, lat_limit_deg)
    first_units = np.ascontiguousarray(grid_units[::_FIRST_CHECK_STRIDE])

    seed_planes, seed_sats = streets_of_coverage_size(
        altitude_km, inclination_deg, min_elevation_deg
    )
    lam = coverage_half_angle_rad(altitude_km, min_elevation_deg)
    min_sats_per_plane = max(3, int(math.ceil(math.pi / lam)))

    # Plane counts outer, satellites per plane inner; a stable sort on the
    # total keeps equal totals in plane-count order.
    plane_axis = np.arange(2, max(seed_planes * 3, 8) + 1)
    sats_axis = np.arange(min_sats_per_plane, max(seed_sats * 3, min_sats_per_plane + 10) + 1)
    all_totals = np.outer(plane_axis, sats_axis)
    kept = all_totals <= max_total
    all_planes = np.broadcast_to(plane_axis[:, None], all_totals.shape)[kept]
    all_totals = all_totals[kept]
    order = np.argsort(all_totals, kind="stable")
    all_totals, all_planes = all_totals[order], all_planes[order]

    inclination_rad = math.radians(inclination_deg)
    cos_half_angle = math.cos(lam)
    cos_floor = cos_half_angle - _WITNESS_MARGIN
    witnesses = np.empty((0, 3))

    for window_start in range(0, len(all_totals), _WITNESS_WINDOW):
        window = slice(window_start, window_start + _WITNESS_WINDOW)
        totals, plane_counts = all_totals[window], all_planes[window]
        rejected = _witness_rejects(witnesses, totals, plane_counts, inclination_rad, cos_floor)
        for index, (total, planes) in enumerate(zip(totals.tolist(), plane_counts.tolist())):
            if rejected[index]:
                continue
            # Plane counts start at 2, so phasing factor 1 is always valid.
            constellation = WalkerDelta(
                altitude_km=altitude_km,
                inclination_deg=inclination_deg,
                total_satellites=total,
                planes=planes,
                phasing=1,
            )
            sat_units = _sample_unit_vectors(constellation, 0, time_samples)
            witness = _uncovered_point(first_units, sat_units, cos_floor)
            if witness is None:
                witness = _uncovered_point(grid_units, sat_units, cos_half_angle)
            if witness is not None:
                witnesses = np.vstack([witnesses, witness])
                rejected[index + 1 :] |= _witness_rejects(
                    witness,
                    totals[index + 1 :],
                    plane_counts[index + 1 :],
                    inclination_rad,
                    cos_floor,
                )
                continue
            if _covers_samples(constellation, grid_units, cos_half_angle, time_samples, 1):
                return constellation
    raise ValueError(
        f"no Walker-delta with at most {max_total} satellites covers the requested region"
    )
