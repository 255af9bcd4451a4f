"""Surface grids.

Two grid charts are used throughout the library:

* :class:`LatLonGrid` -- the usual Earth-fixed latitude/longitude grid, used
  for population density (Figure 3), radiation maps (Figure 6) and coverage
  checks.
* :class:`LatLocalTimeGrid` -- the sun-fixed latitude/local-time-of-day grid
  of the paper's Figure 8, on which both demand and SS-plane supply are
  (nearly) stationary.

Both are thin wrappers around ``numpy`` arrays of cell-centre coordinates plus
value arrays, with helpers for indexing, aggregation and area weighting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..constants import EARTH_MEAN_RADIUS_KM, HOURS_PER_DAY

__all__ = ["LatLonGrid", "LatLocalTimeGrid"]


def _cell_centres(start: float, stop: float, step: float) -> np.ndarray:
    """Return cell-centre coordinates for cells of width ``step`` in [start, stop]."""
    count = int(round((stop - start) / step))
    if count <= 0:
        raise ValueError("grid must contain at least one cell")
    return start + (np.arange(count) + 0.5) * step


def _divides_evenly(span: float, step: float, tol: float = 1e-9) -> bool:
    """Return whether ``step`` divides ``span`` into a whole number of cells.

    A float-modulo test (``span % step > tol``) wrongly rejects steps like
    0.1, whose binary representation makes ``180.0 % 0.1`` come out near
    ``step`` instead of near zero; comparing the step ratio against its
    nearest integer accepts every evenly dividing resolution.
    """
    if step <= 0:
        return False
    ratio = span / step
    return round(ratio) >= 1 and abs(round(ratio) - ratio) < tol


@dataclass(eq=False)
class LatLonGrid:
    """A regular Earth-fixed latitude x longitude grid of scalar values.

    Instances compare by identity: array fields have no single truth value.

    Attributes
    ----------
    resolution_deg:
        Width of each (square) cell in degrees; the paper's population and
        radiation grids use 0.5 degrees.
    values:
        Array of shape (n_lat, n_lon) holding the gridded quantity.  Rows run
        South to North, columns West to East.
    """

    resolution_deg: float
    values: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not _divides_evenly(180.0, self.resolution_deg):
            raise ValueError("resolution must evenly divide 180 degrees")
        shape = (self.n_lat, self.n_lon)
        if self.values is None:
            self.values = np.zeros(shape)
        else:
            self.values = np.asarray(self.values, dtype=float)
            if self.values.shape != shape:
                raise ValueError(
                    f"values shape {self.values.shape} does not match grid shape {shape}"
                )

    # -- geometry --------------------------------------------------------------

    @property
    def n_lat(self) -> int:
        """Number of latitude rows."""
        return int(round(180.0 / self.resolution_deg))

    @property
    def n_lon(self) -> int:
        """Number of longitude columns."""
        return int(round(360.0 / self.resolution_deg))

    @property
    def latitudes_deg(self) -> np.ndarray:
        """Cell-centre latitudes, South to North [deg]."""
        return _cell_centres(-90.0, 90.0, self.resolution_deg)

    @property
    def longitudes_deg(self) -> np.ndarray:
        """Cell-centre longitudes, West to East [deg]."""
        return _cell_centres(-180.0, 180.0, self.resolution_deg)

    def row_cell_area_km2(self) -> np.ndarray:
        """Return the surface area of one cell of each row [km^2], shape (n_lat,).

        Every cell of a latitude row has the same area.
        """
        lat_edges = np.radians(
            np.linspace(-90.0, 90.0, self.n_lat + 1)
        )
        return (
            2.0
            * math.pi
            * EARTH_MEAN_RADIUS_KM**2
            * (np.sin(lat_edges[1:]) - np.sin(lat_edges[:-1]))
            / self.n_lon
        )

    def cell_area_km2(self) -> np.ndarray:
        """Return the surface area of each cell [km^2], shape (n_lat, n_lon)."""
        return np.repeat(self.row_cell_area_km2()[:, None], self.n_lon, axis=1)

    # -- indexing ---------------------------------------------------------------

    def index_of(self, latitude_deg: float, longitude_deg: float) -> tuple[int, int]:
        """Return the (row, column) index of the cell containing a point."""
        if not -90.0 <= latitude_deg <= 90.0:
            raise ValueError(f"latitude {latitude_deg} out of range")
        longitude = ((longitude_deg + 180.0) % 360.0) - 180.0
        row = min(int((latitude_deg + 90.0) / self.resolution_deg), self.n_lat - 1)
        col = min(int((longitude + 180.0) / self.resolution_deg), self.n_lon - 1)
        return row, col

    def value_at(self, latitude_deg: float, longitude_deg: float) -> float:
        """Return the gridded value at a point."""
        row, col = self.index_of(latitude_deg, longitude_deg)
        return float(self.values[row, col])

    def add_at(self, latitude_deg: float, longitude_deg: float, amount: float) -> None:
        """Add ``amount`` to the cell containing the point."""
        row, col = self.index_of(latitude_deg, longitude_deg)
        self.values[row, col] += amount

    # -- aggregation ------------------------------------------------------------

    def max_over_longitude(self) -> np.ndarray:
        """Return the maximum value at each latitude (the paper's Figure 3 view)."""
        return self.values.max(axis=1)

    def mean_over_longitude(self) -> np.ndarray:
        """Return the longitude-mean value at each latitude."""
        return self.values.mean(axis=1)

    def total(self, area_weighted: bool = False) -> float:
        """Return the grid total, optionally weighting each cell by its area."""
        if area_weighted:
            return float(np.sum(self.values * self.cell_area_km2()))
        return float(np.sum(self.values))

    def copy(self) -> "LatLonGrid":
        """Return a deep copy of the grid."""
        return LatLonGrid(resolution_deg=self.resolution_deg, values=self.values.copy())


@dataclass(eq=False)
class LatLocalTimeGrid:
    """A sun-fixed latitude x local-time-of-day grid of scalar values.

    Instances compare by identity: array fields have no single truth value.

    This is the coordinate chart of the paper's Figure 8: the "longitude" axis
    is replaced by local mean solar time in hours.  Because the Earth rotates
    under this chart once per day, a point (latitude, local time) sweeps all
    longitudes; supplying its demand therefore supplies every Earth-fixed
    location at that latitude when its clock shows that time.

    Attributes
    ----------
    lat_resolution_deg:
        Latitude cell height in degrees.
    time_resolution_hours:
        Local-time cell width in hours.
    values:
        Array of shape (n_lat, n_time); rows South to North, columns from
        local midnight to local midnight.
    """

    lat_resolution_deg: float
    time_resolution_hours: float
    values: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not _divides_evenly(180.0, self.lat_resolution_deg):
            raise ValueError("latitude resolution must evenly divide 180 degrees")
        if not _divides_evenly(HOURS_PER_DAY, self.time_resolution_hours):
            raise ValueError("time resolution must evenly divide 24 hours")
        shape = (self.n_lat, self.n_time)
        if self.values is None:
            self.values = np.zeros(shape)
        else:
            self.values = np.asarray(self.values, dtype=float)
            if self.values.shape != shape:
                raise ValueError(
                    f"values shape {self.values.shape} does not match grid shape {shape}"
                )

    # -- geometry --------------------------------------------------------------

    @property
    def n_lat(self) -> int:
        """Number of latitude rows."""
        return int(round(180.0 / self.lat_resolution_deg))

    @property
    def n_time(self) -> int:
        """Number of local-time columns."""
        return int(round(HOURS_PER_DAY / self.time_resolution_hours))

    @property
    def latitudes_deg(self) -> np.ndarray:
        """Cell-centre latitudes, South to North [deg]."""
        return _cell_centres(-90.0, 90.0, self.lat_resolution_deg)

    @property
    def local_times_hours(self) -> np.ndarray:
        """Cell-centre local times, 0 to 24 [h]."""
        return _cell_centres(0.0, HOURS_PER_DAY, self.time_resolution_hours)

    # -- indexing ---------------------------------------------------------------

    def index_of(self, latitude_deg: float, local_time_hours: float) -> tuple[int, int]:
        """Return the (row, column) index of the cell containing a point."""
        if not -90.0 <= latitude_deg <= 90.0:
            raise ValueError(f"latitude {latitude_deg} out of range")
        time = local_time_hours % HOURS_PER_DAY
        row = min(int((latitude_deg + 90.0) / self.lat_resolution_deg), self.n_lat - 1)
        col = min(int(time / self.time_resolution_hours), self.n_time - 1)
        return row, col

    def value_at(self, latitude_deg: float, local_time_hours: float) -> float:
        """Return the gridded value at a (latitude, local time) point."""
        row, col = self.index_of(latitude_deg, local_time_hours)
        return float(self.values[row, col])

    # -- aggregation and arithmetic ---------------------------------------------

    def require_finite_non_negative(self) -> None:
        """Raise ``ValueError`` naming the first NaN, infinite or negative cell.

        Cells are scanned in row-major order; the message gives the cell's
        ``(row, col)`` index and its value.
        """
        bad = ~(np.isfinite(self.values) & (self.values >= 0.0))
        if bad.any():
            row, col = np.argwhere(bad)[0]
            raise ValueError(
                "grid values must be finite and non-negative; cell "
                f"(row, col) = ({row}, {col}) holds {float(self.values[row, col])!r}"
            )

    def total(self) -> float:
        """Return the sum of all cell values."""
        return float(np.sum(self.values))

    def peak(self) -> tuple[float, float, float]:
        """Return (latitude_deg, local_time_hours, value) of the maximum cell."""
        row, col = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        return (
            float(self.latitudes_deg[row]),
            float(self.local_times_hours[col]),
            float(self.values[row, col]),
        )

    def subtract_clamped(self, other: np.ndarray) -> None:
        """Subtract ``other`` cell-wise, clamping the result at zero.

        This is the update step of the greedy covering algorithm of Section
        4.2: each added SS-plane removes one satellite's worth of capacity
        from every cell it covers.
        """
        other = np.asarray(other, dtype=float)
        if other.shape != self.values.shape:
            raise ValueError("shape mismatch in subtract_clamped")
        self.values = np.maximum(self.values - other, 0.0)

    def copy(self) -> "LatLocalTimeGrid":
        """Return a deep copy of the grid."""
        return LatLocalTimeGrid(
            lat_resolution_deg=self.lat_resolution_deg,
            time_resolution_hours=self.time_resolution_hours,
            values=self.values.copy(),
        )
