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
distinct cells ever become the peak, and the same ones at every bandwidth
multiplier.  :meth:`GreedySSPlaneDesigner.design` therefore keeps, per peak
cell, its branch planes and the concatenated flat indices of the cells they
cover, built on the first visit and shared by every design with the same
shell and grid geometry.  An iteration is then one ``argmax``, one gather of
those cells and a few array operations on the gathered copy; the full-grid
sum of the termination test runs only once the peak is (nearly) zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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


class _PeakBranches(NamedTuple):
    """The branch planes through one peak cell and the cells they cover.

    ``cells`` concatenates each branch's covered flat indices in plane
    order; ``spans[k]`` is the slice of ``cells`` holding plane ``k``'s.
    """

    planes: tuple[SSPlane, ...]
    cells: np.ndarray
    spans: tuple[slice, ...]


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

    def _probe(self) -> SSPlane:
        """Return a plane of this designer's shell (for its inclination and street)."""
        return SSPlane(
            altitude_km=self.altitude_km,
            ltan_hours=0.0,
            satellite_count=1,
            min_elevation_deg=self.min_elevation_deg,
            street_half_width_fraction=self.street_half_width_fraction,
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
        self, latitude_deg: float, local_time_hours: float, grid: LatLocalTimeGrid
    ) -> _PeakBranches:
        """Return the branch planes through a cell and the cells they cover.

        The ascending branch comes first; a branch whose path cannot reach the
        cell's latitude is left out, so a cell no plane of this shell reaches
        gets no plane.
        """
        inclination_rad = self._probe().inclination_rad
        satellite_count = self.satellites_per_plane()
        planes: list[SSPlane] = []
        covered: list[np.ndarray] = []
        for ascending in (True, False):
            try:
                plane = self._plane_for(
                    latitude_deg, local_time_hours, ascending, inclination_rad, satellite_count
                )
            except ValueError:
                continue
            planes.append(plane)
            covered.append(np.flatnonzero(plane.coverage_mask(grid)))
        cells = np.concatenate(covered) if covered else np.empty(0, dtype=np.intp)
        cells.flags.writeable = False  # shared through ``_peak_branches``
        bounds = np.cumsum([0] + [len(branch) for branch in covered]).tolist()
        return _PeakBranches(
            planes=tuple(planes),
            cells=cells,
            spans=tuple(slice(start, stop) for start, stop in zip(bounds[:-1], bounds[1:])),
        )

    def design(self, demand: LatLocalTimeGrid) -> GreedyCoverResult:
        """Run the greedy covering loop of Section 4.2 on a demand grid.

        The input grid is not modified; demand is expressed in multiples of a
        single satellite's capacity, and every cell must be finite and
        non-negative (``ValueError`` names the first bad cell otherwise).

        Each iteration's branch options -- the plane through the peak cell on
        each branch and the flat indices of the cells it covers, concatenated
        branch after branch -- are built on the first visit to that peak cell
        and reused on every later one, in this design and in later designs
        with the same shell and grid (see :func:`_peak_branches`).  An
        iteration is then one ``argmax``, one gather of the covered cells,
        one ``np.minimum`` over the copy, one sum per branch over its
        contiguous slice (none for a single branch: there is nothing to
        compare) and one scatter of the chosen branch's update,
        ``x - min(x, 1)``, computed from the same copy.  ``np.flatnonzero``
        lists cells in the order a boolean mask selects them, and numpy sums
        a contiguous slice of the same values in the same order to the same
        float, so every sum and every comparison is the one a mask-indexed
        loop makes, bit for bit.

        The termination test on the full-grid sum runs only once the peak is
        at most 1e-9: the sum of non-negative floats is never below their
        maximum, so before then it cannot stop the loop.
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
        probe = self._probe()
        max_lat_deg = math.degrees(
            math.asin(min(1.0, abs(math.sin(probe.inclination_rad))))
        ) + math.degrees(probe.street_half_width_rad)
        unreachable = np.abs(remaining.latitudes_deg) > max_lat_deg
        clipped_demand = float(remaining.values[unreachable].sum())
        remaining.values[unreachable] = 0.0

        values = remaining.values
        flat = values.reshape(-1)  # a view: writes through it land in ``values``
        # Flat index of a peak cell -> its branch planes and covered cells.
        branches: dict[int, _PeakBranches] = {}

        while iterations < self.max_planes:
            peak = int(flat.argmax())
            if flat[peak] <= 1e-9:
                # Every value is non-negative, so the sum is never below the
                # peak: it exceeds 1e-9 whenever the peak does.  Only now can
                # it fall to 1e-9 or below, and only then is it needed.
                if float(values.sum()) > 1e-9:
                    iterations += 1
                break
            iterations += 1
            options = branches.get(peak)
            if options is None:
                options = branches[peak] = _peak_branches(
                    type(self),
                    self.altitude_km,
                    self.min_elevation_deg,
                    self.street_half_width_fraction,
                    remaining.lat_resolution_deg,
                    remaining.time_resolution_hours,
                    peak,
                )
            branch_planes, cells, spans = options
            if not branch_planes:
                # Peak cell unreachable (should have been clipped); zero it out.
                clipped_demand += float(flat[peak])
                flat[peak] = 0.0
                continue
            gathered = flat[cells]
            clamped = np.minimum(gathered, 1.0)
            best = 0
            if len(spans) == 2:
                # Keep the branch that removes more remaining demand (the
                # ascending one on a tie).
                ascending, descending = spans
                if np.add.reduce(clamped[descending]) > np.add.reduce(clamped[ascending]):
                    best = 1
            planes.append(branch_planes[best])
            # ``x - min(x, 1)`` is ``max(x - 1, 0)`` bit for bit: the same
            # ``x - 1`` for x >= 1 and +0.0 below.
            chosen = spans[best]
            flat[cells[chosen]] = np.subtract(gathered[chosen], clamped[chosen])

        total_satellites = sum(plane.satellite_count for plane in planes)
        return GreedyCoverResult(
            planes=tuple(planes),
            total_satellites=total_satellites,
            residual_demand=float(values.sum()) + clipped_demand,
            iterations=iterations,
        )


@lru_cache(maxsize=256)
def _peak_branches(
    designer_type: type[GreedySSPlaneDesigner],
    altitude_km: float,
    min_elevation_deg: float,
    street_half_width_fraction: float,
    lat_resolution_deg: float,
    time_resolution_hours: float,
    peak: int,
) -> _PeakBranches:
    """Return the branches through the cell with flat index ``peak``.

    The result is a function of the arguments alone: the designer's type (a
    subclass may place planes differently), its shell, the grid's two
    resolutions (which fix its geometry) and the cell.  The designs of one
    sweep share shell and grid and visit the same few peak cells at every
    bandwidth multiplier, so each cell's planes and masks are built once per
    process.  The result is immutable: its index arrays are read-only.
    """
    designer = designer_type(
        altitude_km=altitude_km,
        min_elevation_deg=min_elevation_deg,
        street_half_width_fraction=street_half_width_fraction,
    )
    grid = LatLocalTimeGrid(lat_resolution_deg, time_resolution_hours)
    row, col = divmod(peak, grid.n_time)
    return designer._branches_through(
        float(grid.latitudes_deg[row]), float(grid.local_times_hours[col]), grid
    )
