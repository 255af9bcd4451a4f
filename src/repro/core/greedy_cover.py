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

The loop runs thousands of iterations at high demand, yet only a handful of
distinct cells ever become the peak.  :meth:`GreedySSPlaneDesigner.design`
therefore keeps, per peak cell, the two branch planes and the flat indices
of the cells each covers, built on the first visit; an iteration is then a
few array operations on those indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    def _branches_through(
        self,
        latitude_deg: float,
        local_time_hours: float,
        grid: LatLocalTimeGrid,
        inclination_rad: float,
        satellite_count: int,
    ) -> list[tuple[SSPlane, np.ndarray]]:
        """Return ``(plane, covered flat indices)`` for each branch through a cell.

        The ascending branch comes first; a branch whose path cannot reach the
        cell's latitude is left out, so the list is empty for a cell no plane
        of this shell reaches.
        """
        options = []
        for ascending in (True, False):
            try:
                plane = self._plane_for(
                    latitude_deg, local_time_hours, ascending, inclination_rad, satellite_count
                )
            except ValueError:
                continue
            options.append((plane, np.flatnonzero(plane.coverage_mask(grid))))
        return options

    def design(self, demand: LatLocalTimeGrid) -> GreedyCoverResult:
        """Run the greedy covering loop of Section 4.2 on a demand grid.

        The input grid is not modified; demand is expressed in multiples of a
        single satellite's capacity, and every cell must be finite and
        non-negative (``ValueError`` names the first bad cell otherwise).

        Each iteration's branch options -- the plane through the peak cell on
        each branch and the flat indices of the cells it covers -- are built
        on the first visit to that peak cell and reused on every later one.
        An iteration is then one full sum (the termination test), one
        ``argmax``, one clamped sum per branch over its covered cells and one
        scatter of the chosen plane's update.  ``np.flatnonzero`` lists cells
        in the order a boolean mask selects them, so every sum and every
        comparison is the one a mask-indexed loop makes, bit for bit.
        """
        demand.require_finite_non_negative()
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

        values = remaining.values
        flat = values.reshape(-1)  # a view: writes through it land in ``values``
        latitudes = remaining.latitudes_deg
        local_times = remaining.local_times_hours
        # Flat index of a peak cell -> its branch options.
        branches: dict[int, list[tuple[SSPlane, np.ndarray]]] = {}

        while float(values.sum()) > 1e-9 and iterations < self.max_planes:
            iterations += 1
            peak = int(flat.argmax())
            if flat[peak] <= 1e-9:
                break
            options = branches.get(peak)
            if options is None:
                row, col = divmod(peak, remaining.n_time)
                options = branches[peak] = self._branches_through(
                    float(latitudes[row]),
                    float(local_times[col]),
                    remaining,
                    probe.inclination_rad,
                    satellite_count,
                )
            if not options:
                # Peak cell unreachable (should have been clipped); zero it out.
                clipped_demand += float(flat[peak])
                flat[peak] = 0.0
                continue
            # Keep the branch that removes the most remaining demand (the
            # first, ascending one on a tie).
            removed = [np.minimum(flat[cells], 1.0).sum() for _, cells in options]
            best_plane, best_cells = options[removed.index(max(removed))]
            planes.append(best_plane)
            flat[best_cells] = np.maximum(flat[best_cells] - 1.0, 0.0)

        total_satellites = sum(plane.satellite_count for plane in planes)
        return GreedyCoverResult(
            planes=tuple(planes),
            total_satellites=total_satellites,
            residual_demand=float(values.sum()) + clipped_demand,
            iterations=iterations,
        )
