"""Greedy SS-plane covering of the demand grid (Section 4.2).

The SS constellation design problem is: choose a set of SS-planes (each a
fixed path on the latitude x local-time-of-day chart) such that every cell's
demand -- measured in multiples of a single satellite's capacity -- is met,
using as few planes (and hence satellites) as possible.  The paper solves it
with a simple greedy loop:

1. pick the cell with the largest remaining demand,
2. add an SS-plane whose path passes through that cell and subtract one
   satellite-capacity unit from every cell the plane covers (clamping at 0),
3. repeat until no demand remains.

This module implements that loop, with the plane's LTAN chosen so that either
its ascending or its descending branch crosses the peak cell (whichever
branch also relieves more of the remaining demand elsewhere).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..coverage.grid import LatLocalTimeGrid
from .ssplane import SSPlane, plane_local_time_offset_hours, satellites_per_plane

__all__ = ["GreedyCoverResult", "GreedySSPlaneDesigner"]


@dataclass(frozen=True)
class GreedyCoverResult:
    """Outcome of the greedy covering run.

    Attributes
    ----------
    planes:
        The SS-planes selected, in the order they were added.
    total_satellites:
        Sum of the per-plane satellite counts.
    residual_demand:
        Demand left uncovered (non-zero only if ``max_planes`` was hit).
    iterations:
        Number of greedy iterations executed.
    """

    planes: tuple[SSPlane, ...]
    total_satellites: int
    residual_demand: float
    iterations: int

    @property
    def plane_count(self) -> int:
        """Number of planes selected."""
        return len(self.planes)

    @property
    def satisfied(self) -> bool:
        """Whether all demand was covered."""
        return self.residual_demand <= 1e-9

    def ltans_hours(self) -> list[float]:
        """Return the LTAN of every selected plane."""
        return [plane.ltan_hours for plane in self.planes]


@dataclass
class GreedySSPlaneDesigner:
    """Greedy designer of SS-plane constellations.

    Attributes
    ----------
    altitude_km:
        Altitude of every plane (the paper evaluates a single ~560 km shell).
    min_elevation_deg:
        Elevation mask for the footprint geometry.
    street_half_width_fraction:
        Fraction of the footprint half-angle credited as covered street
        half-width (also determines the per-plane satellite count).
    demand_floor:
        Demand below this many satellite-capacity units per cell is treated
        as zero; it corresponds to populations too small to drive
        constellation sizing.
    max_planes:
        Safety bound on the number of greedy iterations.
    """

    altitude_km: float = 560.0
    min_elevation_deg: float = 25.0
    street_half_width_fraction: float = 0.5
    demand_floor: float = 0.01
    max_planes: int = 20000
    _mask_cache: dict[tuple[int, int, int], np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

    def satellites_per_plane(self) -> int:
        """Return the per-plane satellite count used by this designer."""
        return satellites_per_plane(
            self.altitude_km, self.min_elevation_deg, self.street_half_width_fraction
        )

    def _plane_for(
        self,
        latitude_deg: float,
        local_time_hours: float,
        ascending: bool,
        inclination_rad: float,
        satellite_count: int,
    ) -> SSPlane:
        """Return the SS-plane whose chosen branch crosses the given cell.

        ``inclination_rad`` and ``satellite_count`` are the designer's shared
        plane inclination and per-plane count, computed once per design run.
        """
        offset = plane_local_time_offset_hours(
            math.radians(latitude_deg), inclination_rad, ascending=ascending
        )
        ltan = (local_time_hours - offset) % 24.0
        return SSPlane(
            altitude_km=self.altitude_km,
            ltan_hours=ltan,
            satellite_count=satellite_count,
            min_elevation_deg=self.min_elevation_deg,
            street_half_width_fraction=self.street_half_width_fraction,
        )

    def _coverage_mask(self, plane: SSPlane, grid: LatLocalTimeGrid) -> np.ndarray:
        """Return (and cache) the plane's coverage mask on this grid geometry."""
        key = (
            int(round(plane.ltan_hours * 3600.0)),
            grid.n_lat,
            grid.n_time,
        )
        if key not in self._mask_cache:
            self._mask_cache[key] = plane.coverage_mask(grid)
        return self._mask_cache[key]

    def design(self, demand: LatLocalTimeGrid) -> GreedyCoverResult:
        """Run the greedy covering loop of Section 4.2 on a demand grid.

        The input grid is not modified; demand is expressed in multiples of a
        single satellite's capacity.
        """
        remaining = demand.copy()
        planes: list[SSPlane] = []
        iterations = 0

        # Demand below the floor is noise from the synthetic population
        # background; it never drives real constellation sizing.
        remaining.values[remaining.values < self.demand_floor] = 0.0

        # Clip reachable latitudes: cells poleward of the orbit's maximum
        # latitude plus the street width can never be covered by this shell;
        # treat them as out of scope exactly once so the loop terminates.
        probe = SSPlane(
            altitude_km=self.altitude_km,
            ltan_hours=0.0,
            satellite_count=1,
            min_elevation_deg=self.min_elevation_deg,
            street_half_width_fraction=self.street_half_width_fraction,
        )
        max_lat_deg = math.degrees(
            math.asin(min(1.0, abs(math.sin(probe.inclination_rad))))
        ) + math.degrees(probe.street_half_width_rad)
        unreachable = np.abs(remaining.latitudes_deg) > max_lat_deg
        clipped_demand = float(remaining.values[unreachable].sum())
        remaining.values[unreachable] = 0.0
        satellite_count = self.satellites_per_plane()

        while remaining.total() > 1e-9 and iterations < self.max_planes:
            iterations += 1
            peak_lat, peak_time, peak_value = remaining.peak()
            if peak_value <= 1e-9:
                break
            # Try both branches through the peak cell and keep the one that
            # removes the most remaining demand.
            best_plane = None
            best_removed = -1.0
            for ascending in (True, False):
                try:
                    plane = self._plane_for(
                        peak_lat, peak_time, ascending, probe.inclination_rad, satellite_count
                    )
                except ValueError:
                    continue
                mask = self._coverage_mask(plane, remaining)
                removed = float(np.minimum(remaining.values, 1.0)[mask].sum())
                if removed > best_removed:
                    best_removed = removed
                    best_plane = plane
            if best_plane is None:
                # Peak cell unreachable (should have been clipped); zero it out.
                row, col = remaining.index_of(peak_lat, peak_time)
                clipped_demand += float(remaining.values[row, col])
                remaining.values[row, col] = 0.0
                continue
            planes.append(best_plane)
            mask = self._coverage_mask(best_plane, remaining)
            remaining.values[mask] = np.maximum(remaining.values[mask] - 1.0, 0.0)

        total_satellites = sum(plane.satellite_count for plane in planes)
        return GreedyCoverResult(
            planes=tuple(planes),
            total_satellites=total_satellites,
            residual_demand=float(remaining.total()) + clipped_demand,
            iterations=iterations,
        )
