"""Spatiotemporal demand model.

Section 3.1 of the paper combines the spatial structure of demand (gridded
population density) with its temporal structure (the diurnal cycle) into a
single spatiotemporal model:

* **Earth-fixed snapshots** (Figure 5): at a given instant, demand at each
  latitude/longitude cell is the population density scaled by the diurnal
  factor of that cell's current local solar time.
* **Sun-fixed demand grid** (Figure 8): a (latitude, local-time-of-day) grid
  where each cell holds the *maximum over longitudes* of population density at
  that latitude, scaled by the diurnal factor of the cell's local time.  A
  cell of this grid sees every longitude once per day as the Earth rotates,
  so a constellation that satisfies the grid satisfies every Earth-fixed
  location -- the key reduction that makes SS-plane design tractable.

Demand is expressed in "satellite capacity units": the grid is normalised so
its peak cell equals the requested ``bandwidth multiplier`` (demand measured
in multiples of a single satellite's capacity), mirroring Section 4.3.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ..coverage.grid import LatLocalTimeGrid, LatLonGrid
from .diurnal import DiurnalProfile
from .population import synthetic_population_grid

__all__ = ["SpatiotemporalDemandModel", "demand_snapshot", "build_demand_grid"]


def _require_bandwidth_multiplier(multiplier: object) -> None:
    """Reject a multiplier that is not a finite, non-negative real number.

    ``bool`` and non-real values raise ``TypeError``; NaN, infinities and
    negative values raise ``ValueError``.  Zero is legal (an empty grid).
    """
    if isinstance(multiplier, (bool, np.bool_)) or not isinstance(multiplier, numbers.Real):
        raise TypeError(f"bandwidth_multiplier must be a real number, got {multiplier!r}")
    # ``isfinite`` rejects NaN and inf, which ``x < 0`` lets through.
    if not (math.isfinite(multiplier) and multiplier >= 0):
        raise ValueError(
            f"bandwidth_multiplier must be finite and non-negative, got {multiplier!r}"
        )


@dataclass
class SpatiotemporalDemandModel:
    """Population density combined with the diurnal cycle.

    Attributes
    ----------
    population:
        Gridded population density [people / km^2]; defaults to the synthetic
        SEDAC substitute.
    profile:
        Diurnal demand profile; defaults to the synthetic CESNET substitute.
    """

    population: LatLonGrid = field(default_factory=synthetic_population_grid)
    profile: DiurnalProfile = field(default_factory=DiurnalProfile)

    # -- Earth-fixed view -------------------------------------------------------

    def snapshot(self, utc_hour: float) -> LatLonGrid:
        """Return the Earth-fixed demand snapshot at a given UTC hour (Figure 5).

        Each cell's demand is its population density multiplied by the diurnal
        fraction evaluated at the cell's local mean solar time
        (``UTC + longitude / 15``).  Units are people / km^2 scaled by the
        dimensionless diurnal factor; only relative structure matters here.
        """
        longitudes = self.population.longitudes_deg
        local_times = (utc_hour + longitudes / 15.0) % 24.0
        diurnal = np.asarray(self.profile.fraction_of_median(local_times))
        snapshot = self.population.copy()
        snapshot.values = self.population.values * diurnal[None, :]
        return snapshot

    # -- Sun-fixed view ---------------------------------------------------------

    def max_density_per_latitude(self) -> np.ndarray:
        """Return the maximum population density at each latitude (Figure 3)."""
        return self.population.max_over_longitude()

    def latitude_time_grid(
        self,
        lat_resolution_deg: float = 2.0,
        time_resolution_hours: float = 1.0,
        bandwidth_multiplier: float = 1.0,
    ) -> LatLocalTimeGrid:
        """Return the sun-fixed demand grid of Figure 8.

        Each (latitude, local-time) cell holds

            max-over-longitude population density at that latitude
            x diurnal fraction at that local time,

        rescaled so that the grid peak equals ``bandwidth_multiplier``
        satellite-capacity units.  With the default multiplier of 1 the grid
        is the normalised "percent of peak" view shown in the paper.

        ``bandwidth_multiplier`` must be a finite, non-negative real number:
        ``TypeError`` for ``bool`` and non-real values, ``ValueError`` for
        NaN, infinities and negative values, raised before any grid is built.
        """
        _require_bandwidth_multiplier(bandwidth_multiplier)
        grid = LatLocalTimeGrid(
            lat_resolution_deg=lat_resolution_deg,
            time_resolution_hours=time_resolution_hours,
        )
        max_density = self._max_density_at(grid.latitudes_deg)
        diurnal = np.asarray(self.profile.fraction_of_median(grid.local_times_hours))
        values = np.outer(max_density, diurnal)
        peak = float(values.max())
        if peak > 0:
            values = values / peak * bandwidth_multiplier
        grid.values = values
        return grid

    def _max_density_at(self, latitudes_deg: np.ndarray) -> np.ndarray:
        """Return max-over-longitude density resampled at arbitrary latitudes."""
        source_lats = self.population.latitudes_deg
        source_max = self.population.max_over_longitude()
        resolution = self.population.resolution_deg
        result = np.empty(len(latitudes_deg))
        for index, latitude in enumerate(latitudes_deg):
            # Take the maximum of all source rows that fall inside this
            # (possibly coarser) latitude bin so no demand peak is lost.
            half_width = max(resolution, latitudes_deg[1] - latitudes_deg[0]) / 2.0
            mask = np.abs(source_lats - latitude) <= half_width
            result[index] = float(source_max[mask].max()) if mask.any() else 0.0
        return result


def demand_snapshot(utc_hour: float, resolution_deg: float = 1.0) -> LatLonGrid:
    """Convenience wrapper returning a demand snapshot with default models."""
    model = SpatiotemporalDemandModel(
        population=synthetic_population_grid(resolution_deg=resolution_deg)
    )
    return model.snapshot(utc_hour)


def build_demand_grid(
    bandwidth_multiplier: float = 1.0,
    lat_resolution_deg: float = 2.0,
    time_resolution_hours: float = 1.0,
    population_resolution_deg: float = 1.0,
) -> LatLocalTimeGrid:
    """Convenience wrapper returning the Figure 8 demand grid with default models."""
    model = SpatiotemporalDemandModel(
        population=synthetic_population_grid(resolution_deg=population_resolution_deg)
    )
    return model.latitude_time_grid(
        lat_resolution_deg=lat_resolution_deg,
        time_resolution_hours=time_resolution_hours,
        bandwidth_multiplier=bandwidth_multiplier,
    )
