"""Endpoint traffic matrices for the network layer.

The constellation-design experiments of the paper only need the aggregate
(latitude, local-time) demand grid, but exploring the Section 5 implications
(routing, topology, traffic engineering over SS-plane constellations)
requires end-to-end flows between ground locations.  This module generates
such flows with a classic gravity model driven by the same synthetic
population grid, modulated in time by the same diurnal profile, so that the
network-layer workloads are consistent with the design-layer demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..coverage.grid import LatLonGrid
from .diurnal import DiurnalProfile
from .population import METRO_AREAS, MetroArea

__all__ = ["City", "TrafficMatrix", "GravityTrafficModel"]


@dataclass(frozen=True)
class City:
    """A traffic endpoint: a city with a population-derived weight."""

    name: str
    latitude_deg: float
    longitude_deg: float
    weight: float

    @classmethod
    def from_metro(cls, metro: MetroArea) -> "City":
        """Build an endpoint from a metro-catalogue entry."""
        return cls(
            name=metro.name,
            latitude_deg=metro.latitude_deg,
            longitude_deg=metro.longitude_deg,
            weight=metro.population_millions,
        )


@dataclass(eq=False)
class TrafficMatrix:
    """A set of directed demands between cities at one instant.

    Instances compare by identity: array fields have no single truth value.

    Attributes
    ----------
    cities:
        Endpoint list; row/column ``i`` of ``demands`` refers to
        ``cities[i]``.
    demands:
        Matrix of shape (n, n) in arbitrary bandwidth units (consistent with
        the satellite-capacity units used elsewhere when built through
        :class:`GravityTrafficModel`).
    """

    cities: tuple[City, ...]
    demands: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.cities)
        self.demands = np.asarray(self.demands, dtype=float)
        if self.demands.shape != (n, n):
            raise ValueError("demands must be a square matrix matching cities")
        finite = np.isfinite(self.demands)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            value = float(self.demands[row, col])
            raise ValueError(f"demands[{row}, {col}] must be finite, got {value!r}")
        if np.any(self.demands < 0):
            raise ValueError("demands must be non-negative")

    def total_demand(self) -> float:
        """Return the sum of all entries."""
        return float(self.demands.sum())

    def entry_codes(
        self, names: "tuple[str, ...] | None" = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The non-zero off-diagonal entries as flat codes, in one array pass.

        Returns ``(ids, codes, demand)``.  ``ids`` lists, in ``names`` order
        (``self.cities`` when ``names`` is None), the index into ``names`` of
        every name with a matching city; names with none contribute no
        entries.  Entry ``k`` is the demand ``demand[k]`` from
        ``ids[codes[k] // ids.size]`` to ``ids[codes[k] % ids.size]``, in
        row-major order of the named submatrix.  Decoding is left to the
        caller, so a selection can cut on demand before it decodes.

        The submatrix is gathered only when the names are not the matrix's
        own city order.  Raises ``ValueError`` naming the first name that
        ``names`` repeats.
        """
        if names is None:
            ids = np.arange(len(self.cities), dtype=np.int64)
            sub = self.demands
        else:
            seen: set[str] = set()
            for name in names:
                if name in seen:
                    raise ValueError(f"names must be distinct, {name!r} is repeated")
                seen.add(name)
            by_name = {city.name: row for row, city in enumerate(self.cities)}
            located = [
                (index, by_name[name])
                for index, name in enumerate(names)
                if name in by_name
            ]
            ids = np.array([index for index, _ in located], dtype=np.int64)
            positions = [row for _, row in located]
            if positions == list(range(len(self.cities))):
                sub = self.demands
            else:
                sub = self.demands[np.ix_(positions, positions)]
        flat = sub.ravel()
        mask = flat > 0.0
        mask[:: ids.size + 1] = False
        codes = np.flatnonzero(mask)
        return ids, codes, flat[codes]

    def entry_arrays(
        self, names: "tuple[str, ...] | None" = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised export of the non-zero off-diagonal entries.

        Returns ``(src_ids, dst_ids, demand)`` (``int64``, ``int64``,
        ``float64``) where the id arrays index ``names`` (or ``self.cities``
        when ``names`` is None), in row-major order: :meth:`entry_codes`,
        decoded.  Names with no matching city contribute no entries; a
        repeated name raises ``ValueError``.
        """
        ids, codes, demand = self.entry_codes(names)
        src, dst = np.divmod(codes, ids.size)
        return ids[src], ids[dst], demand


def _default_cities() -> tuple[City, ...]:
    """Default gravity-model cities: metros of at least 3M people.

    A named module-level function (not a lambda) so models built with the
    default stay picklable for the process-executor sweep path.
    """
    return tuple(
        City.from_metro(m) for m in METRO_AREAS if m.population_millions >= 3.0
    )


@dataclass
class GravityTrafficModel:
    """Gravity-model traffic generator modulated by the diurnal cycle.

    Demand between cities ``i`` and ``j`` at UTC hour ``t`` is

        w_i(t) * w_j(t) / sum_k w_k(t)

    where ``w_i(t)`` is city ``i``'s population weight scaled by the diurnal
    fraction at ``i``'s local time.  The result is normalised so the total
    instantaneous demand equals ``total_demand`` (in satellite-capacity
    units), which lets network experiments sweep load the same way the design
    experiments sweep the bandwidth multiplier.

    Construction requires at least two cities, every city weight finite and
    positive, and ``total_demand`` finite and non-negative.
    """

    cities: tuple[City, ...] = field(default_factory=_default_cities)
    profile: DiurnalProfile = field(default_factory=DiurnalProfile)
    total_demand: float = 100.0

    def __post_init__(self) -> None:
        if len(self.cities) < 2:
            raise ValueError(
                f"cities must hold at least 2 cities, got {len(self.cities)}"
            )
        for city in self.cities:
            if not (math.isfinite(city.weight) and city.weight > 0):
                raise ValueError(
                    f"city {city.name!r} weight must be finite and positive, "
                    f"got {city.weight!r}"
                )
        if not (math.isfinite(self.total_demand) and self.total_demand >= 0):
            raise ValueError(
                f"total_demand must be finite and non-negative, got {self.total_demand!r}"
            )

    def weights_at(self, utc_hour: float) -> np.ndarray:
        """Return the diurnally modulated weight of each city at a UTC hour.

        One array pass: every city's local time is ``utc_hour`` plus its
        longitude over 15 degrees per hour, and one
        :meth:`DiurnalProfile.fraction_of_median` call turns them all into
        diurnal fractions.  Raises ``ValueError`` on a non-finite hour.
        """
        if not math.isfinite(utc_hour):
            raise ValueError(f"utc_hour must be finite, got {utc_hour!r}")
        longitudes = np.array([city.longitude_deg for city in self.cities], dtype=float)
        weights = np.array([city.weight for city in self.cities], dtype=float)
        local_times = (utc_hour + longitudes / 15.0) % 24.0
        return weights * self.profile.fraction_of_median(local_times)

    def matrix_at(self, utc_hour: float) -> TrafficMatrix:
        """Return the gravity traffic matrix at a UTC hour."""
        weights = self.weights_at(utc_hour)
        total_weight = weights.sum()
        if total_weight <= 0:
            raise ValueError("total city weight must be positive")
        demands = np.outer(weights, weights) / total_weight
        np.fill_diagonal(demands, 0.0)
        demands *= self.total_demand / demands.sum()
        return TrafficMatrix(cities=self.cities, demands=demands)

    def offered_load_by_latitude(self, utc_hour: float, grid: LatLonGrid) -> LatLonGrid:
        """Return per-cell offered load (sum of a city's outgoing demand).

        Useful for sanity-checking that network-layer load matches the
        design-layer demand snapshots.
        """
        matrix = self.matrix_at(utc_hour)
        result = grid.copy()
        result.values = np.zeros_like(grid.values)
        outgoing = matrix.demands.sum(axis=1)
        for city, load in zip(matrix.cities, outgoing):
            result.add_at(city.latitude_deg, city.longitude_deg, float(load))
        return result
