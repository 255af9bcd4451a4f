"""Reference implementations of the design sweep, kept as test oracles.

``src/`` builds each greedy design from a per-peak-cell table, computes
SS-plane masks for all rows at once, rejects Walker sizing candidates with a
closed-form witness bound and memoises orbit fluences.  The straightforward
versions they replaced live here, unchanged in behaviour, so tests can assert
that the fast paths return exactly what these return:

* :func:`coverage_mask_by_rows` -- the per-row ``SSPlane.coverage_mask`` loop;
* :func:`minimum_walker_by_candidates` -- the sizing search that builds every
  candidate's satellites and tests witnesses with dot products;
* :func:`greedy_design_by_rounds` -- the greedy loop that re-derives the peak,
  both branch planes and their masks every iteration, sharing masks through
  a cache keyed on the LTAN rounded to the second;
* :func:`walker_design_by_rounds` -- the Walker baseline loop on the grid's
  ``peak`` / ``total`` helpers.
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import HOURS_PER_DAY
from repro.core.greedy_cover import GreedyCoverResult, GreedySSPlaneDesigner
from repro.core.ssplane import SSPlane
from repro.core.walker_baseline import DemandDrivenWalkerDesigner, WalkerBaselineResult
from repro.coverage.footprint import coverage_half_angle_rad
from repro.coverage.grid import LatLocalTimeGrid
from repro.coverage.walker import (
    _WITNESS_MARGIN,
    WalkerDelta,
    _grid_unit_vectors,
    circular_positions_eci,
    is_continuously_covered,
    streets_of_coverage_size,
)


def coverage_mask_by_rows(plane: SSPlane, grid: LatLocalTimeGrid) -> np.ndarray:
    """Return the plane's coverage mask, one latitude row at a time."""
    latitudes_rad = np.radians(grid.latitudes_deg)
    local_times = grid.local_times_hours
    street_deg = math.degrees(plane.street_half_width_rad)

    ascending, descending = plane.path_local_time_hours(latitudes_rad)
    mask = np.zeros((grid.n_lat, grid.n_time), dtype=bool)
    cos_lat = np.cos(latitudes_rad)
    lat_step_deg = grid.lat_resolution_deg

    max_lat_deg = math.degrees(math.asin(min(1.0, abs(math.sin(plane.inclination_rad)))))
    quarter = 6.0 if math.cos(plane.inclination_rad) >= 0 else -6.0
    north_turn_time = (plane.ltan_hours + quarter) % HOURS_PER_DAY
    south_turn_time = (plane.ltan_hours - quarter) % HOURS_PER_DAY

    for row in range(grid.n_lat):
        margin_deg = street_deg + lat_step_deg / 2.0
        half_width_hours = (
            margin_deg / max(cos_lat[row], 1e-3) * HOURS_PER_DAY / 360.0
            + grid.time_resolution_hours / 2.0
        )
        pass_times = [t for t in (ascending[row], descending[row]) if not np.isnan(t)]
        if not pass_times:
            latitude_deg = grid.latitudes_deg[row]
            if abs(latitude_deg) <= max_lat_deg + street_deg:
                pass_times = [north_turn_time if latitude_deg > 0 else south_turn_time]
            else:
                continue
        for pass_time in pass_times:
            delta = np.abs((local_times - pass_time + 12.0) % HOURS_PER_DAY - 12.0)
            mask[row, :] |= delta <= half_width_hours
    return mask


def _start_unit_vectors(constellation: WalkerDelta) -> np.ndarray:
    raan, phase = constellation.raan_and_phase_rad()
    positions = circular_positions_eci(
        constellation.altitude_km, math.radians(constellation.inclination_deg), raan, phase
    )
    return positions / np.linalg.norm(positions, axis=1, keepdims=True)


def minimum_walker_by_candidates(
    altitude_km: float,
    inclination_deg: float,
    min_elevation_deg: float = 25.0,
    lat_limit_deg: float | None = None,
    grid_step_deg: float = 5.0,
    time_samples: int = 8,
    max_total: int = 5000,
) -> WalkerDelta:
    """The sizing search building every candidate's satellite unit vectors."""
    seed_planes, seed_sats = streets_of_coverage_size(
        altitude_km, inclination_deg, min_elevation_deg
    )
    lam = coverage_half_angle_rad(altitude_km, min_elevation_deg)
    min_sats_per_plane = max(3, int(math.ceil(math.pi / lam)))

    candidates: list[tuple[int, int]] = []
    max_planes = max(seed_planes * 3, 8)
    max_sats_per_plane = max(seed_sats * 3, min_sats_per_plane + 10)
    for planes in range(2, max_planes + 1):
        for sats_per_plane in range(min_sats_per_plane, max_sats_per_plane + 1):
            total = planes * sats_per_plane
            if total <= max_total:
                candidates.append((total, planes))
    candidates.sort(key=lambda item: item[0])

    if lat_limit_deg is None:
        lat_limit_deg = min(inclination_deg, 180.0 - inclination_deg)
    grid_units = _grid_unit_vectors(grid_step_deg, lat_limit_deg)
    cos_half_angle = math.cos(lam)
    witnesses = np.empty((0, 3))

    for total, planes in candidates:
        constellation = WalkerDelta(
            altitude_km=altitude_km,
            inclination_deg=inclination_deg,
            total_satellites=total,
            planes=planes,
            phasing=1,
        )
        sat_units = _start_unit_vectors(constellation)
        if len(witnesses) and np.any(
            (witnesses @ sat_units.T).max(axis=1) < cos_half_angle - _WITNESS_MARGIN
        ):
            continue
        if is_continuously_covered(
            constellation,
            min_elevation_deg,
            lat_limit_deg=lat_limit_deg,
            grid_step_deg=grid_step_deg,
            time_samples=time_samples,
        ):
            return constellation
        best = (grid_units @ sat_units.T).max(axis=1)
        worst = int(np.argmin(best))
        if best[worst] < cos_half_angle:
            witnesses = np.vstack([witnesses, grid_units[worst]])
    raise ValueError(
        f"no Walker-delta with at most {max_total} satellites covers the requested region"
    )


def greedy_design_by_rounds(
    designer: GreedySSPlaneDesigner, demand: LatLocalTimeGrid
) -> GreedyCoverResult:
    """The greedy SS-plane loop, re-deriving every branch each iteration."""
    mask_cache: dict[tuple[int, int, int], np.ndarray] = {}

    def plane_mask(plane: SSPlane, grid: LatLocalTimeGrid) -> np.ndarray:
        key = (int(round(plane.ltan_hours * 3600.0)), grid.n_lat, grid.n_time)
        if key not in mask_cache:
            mask_cache[key] = coverage_mask_by_rows(plane, grid)
        return mask_cache[key]

    remaining = demand.copy()
    planes: list[SSPlane] = []
    iterations = 0
    remaining.values[remaining.values < designer.demand_floor] = 0.0
    probe = SSPlane(
        altitude_km=designer.altitude_km,
        ltan_hours=0.0,
        satellite_count=1,
        min_elevation_deg=designer.min_elevation_deg,
        street_half_width_fraction=designer.street_half_width_fraction,
    )
    max_lat_deg = math.degrees(
        math.asin(min(1.0, abs(math.sin(probe.inclination_rad))))
    ) + math.degrees(probe.street_half_width_rad)
    unreachable = np.abs(remaining.latitudes_deg) > max_lat_deg
    clipped_demand = float(remaining.values[unreachable].sum())
    remaining.values[unreachable] = 0.0
    satellite_count = designer.satellites_per_plane()

    while remaining.total() > 1e-9 and iterations < designer.max_planes:
        iterations += 1
        peak_lat, peak_time, peak_value = remaining.peak()
        if peak_value <= 1e-9:
            break
        best_plane = None
        best_removed = -1.0
        for ascending in (True, False):
            try:
                plane = designer._plane_for(
                    peak_lat, peak_time, ascending, probe.inclination_rad, satellite_count
                )
            except ValueError:
                continue
            mask = plane_mask(plane, remaining)
            removed = float(np.minimum(remaining.values, 1.0)[mask].sum())
            if removed > best_removed:
                best_removed = removed
                best_plane = plane
        if best_plane is None:
            row, col = remaining.index_of(peak_lat, peak_time)
            clipped_demand += float(remaining.values[row, col])
            remaining.values[row, col] = 0.0
            continue
        planes.append(best_plane)
        mask = plane_mask(best_plane, remaining)
        remaining.values[mask] = np.maximum(remaining.values[mask] - 1.0, 0.0)

    return GreedyCoverResult(
        planes=tuple(planes),
        total_satellites=sum(plane.satellite_count for plane in planes),
        residual_demand=float(remaining.total()) + clipped_demand,
        iterations=iterations,
    )


def walker_design_by_rounds(
    designer: DemandDrivenWalkerDesigner, demand: LatLocalTimeGrid
) -> WalkerBaselineResult:
    """The Walker baseline loop on the grid's ``peak`` and ``total`` helpers."""
    remaining = demand.copy()
    shells = []
    iterations = 0
    remaining.values[remaining.values < designer.demand_floor] = 0.0
    while remaining.total() > 1e-9 and iterations < designer.max_shells:
        iterations += 1
        peak_lat, _, peak_value = remaining.peak()
        if peak_value <= 1e-9:
            break
        shell = designer._shell_for_latitude(peak_lat, len(shells))
        shells.append(shell)
        rows = np.abs(remaining.latitudes_deg) <= shell.inclination_deg
        remaining.values[rows, :] = np.maximum(remaining.values[rows, :] - 1.0, 0.0)
    return WalkerBaselineResult(
        shells=tuple(shells),
        total_satellites=sum(shell.satellite_count for shell in shells),
        residual_demand=float(remaining.total()),
        iterations=iterations,
    )
