"""Demand-driven Walker-delta baseline (Section 4.3).

The paper compares SS-plane designs against Walker-delta constellations
"constructed by multiple shells (e.g., slightly above and below this
altitude) at different inclinations determined by maximum population density
at each latitude".  This module implements that baseline:

* supply of a Walker shell is uniform in longitude and time: a shell sized
  for continuous single coverage provides one satellite-capacity unit to every
  (latitude, local-time) cell whose latitude its inclination reaches;
* shells are added greedily: each iteration looks at the cell with the
  largest unmet demand and adds a shell whose inclination just covers that
  cell's latitude (so the constellation's inclination mix follows the
  latitudinal structure of demand, exactly as the paper describes);
* each shell's satellite count is the minimum Walker-delta providing
  continuous coverage at that inclination and altitude, and successive shells
  are staggered slightly in altitude to avoid co-location.

Because supply is time-invariant, the Walker baseline must provision for the
*peak-hour* demand at every latitude -- which is precisely the inefficiency
the SS-plane design removes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ..coverage.grid import LatLocalTimeGrid
from ..coverage.walker import WalkerDelta, minimum_walker_for_coverage
from ..orbits.elements import OrbitalElements

__all__ = ["WalkerShell", "WalkerBaselineResult", "DemandDrivenWalkerDesigner"]


@lru_cache(maxsize=256)
def _cached_minimum_walker(
    altitude_km: float, inclination_deg: float, min_elevation_deg: float
) -> WalkerDelta:
    """Cache the expensive minimum-coverage search per (altitude, inclination)."""
    return minimum_walker_for_coverage(
        altitude_km=altitude_km,
        inclination_deg=inclination_deg,
        min_elevation_deg=min_elevation_deg,
        grid_step_deg=6.0,
        time_samples=6,
    )


def _repeats_on_peak(peak: float, before: np.ndarray, after: np.ndarray) -> int:
    """Return how many more shells the peak cell draws once one has lowered it.

    ``peak`` is the peak cell's value before its first shell; ``before`` and
    ``after`` are the rows outside that shell's band, below and above it in
    flat order.  The shell lowers only its band, uniformly, so after ``j``
    shells the peak (``peak - j``) is still ``argmax``'s pick while it stays
    above ``1e-9``, above every cell before the band, and at least every
    cell after it (``argmax`` takes the lowest index on ties).  Returns 0
    when ``peak`` is ``2**53`` or more, where ``peak - j`` is not exact.
    """
    if peak >= 2.0**53:
        return 0
    floor = max(float(before.max(initial=0.0)), 1e-9)
    ceiling = float(after.max(initial=0.0))

    def holds(repeats: int) -> bool:
        lowered = peak - repeats
        return lowered > floor and lowered >= ceiling

    # An estimate within one or two of the answer, then exact steps on the
    # predicate itself, which only gets false as ``repeats`` grows.
    repeats = max(int(peak - max(floor, ceiling)) - 1, 0)
    while repeats and not holds(repeats):
        repeats -= 1
    while holds(repeats + 1):
        repeats += 1
    return repeats


@dataclass(frozen=True)
class WalkerShell:
    """One Walker-delta shell of the baseline constellation."""

    pattern: WalkerDelta
    altitude_km: float

    @property
    def inclination_deg(self) -> float:
        """Shell inclination in degrees."""
        return self.pattern.inclination_deg

    @property
    def satellite_count(self) -> int:
        """Number of satellites in the shell."""
        return self.pattern.total_satellites

    def satellite_elements(self) -> list[OrbitalElements]:
        """Return Keplerian elements of every satellite in the shell.

        The shell's pattern is sized at the designer's base altitude; its
        satellites fly at the shell's own (staggered) ``altitude_km``.
        """
        return replace(self.pattern, altitude_km=self.altitude_km).satellite_elements()


@dataclass(frozen=True)
class WalkerBaselineResult:
    """Outcome of the demand-driven Walker design.

    Attributes
    ----------
    shells:
        Shells in the order they were added.
    total_satellites:
        Sum of per-shell satellite counts.
    residual_demand:
        Demand left unmet (non-zero only if the iteration bound was hit or
        demand exists at latitudes no shell can reach).
    iterations:
        Number of greedy iterations executed.
    """

    shells: tuple[WalkerShell, ...]
    total_satellites: int
    residual_demand: float
    iterations: int

    @property
    def shell_count(self) -> int:
        """Number of shells."""
        return len(self.shells)

    @property
    def satisfied(self) -> bool:
        """Whether all demand was covered."""
        return self.residual_demand <= 1e-9

    def inclinations_deg(self) -> list[float]:
        """Return the inclination of every shell."""
        return [shell.inclination_deg for shell in self.shells]


@dataclass
class DemandDrivenWalkerDesigner:
    """Greedy multi-shell Walker-delta designer.

    Attributes
    ----------
    altitude_km:
        Base altitude; successive shells are offset by ``altitude_spacing_km``
        alternating above and below it.
    min_elevation_deg:
        Elevation mask for footprint geometry and shell sizing.
    min_inclination_deg:
        Lower bound on shell inclination (a shell must still close its streets
        of coverage; very low inclinations are never useful because demand is
        spread over a wide latitude band).
    inclination_margin_deg:
        Extra inclination added above the target latitude so the target sits
        inside well-covered latitudes rather than exactly at the turnaround.
    altitude_spacing_km:
        Vertical separation between neighbouring shells; shells cycle through
        a small stack of altitudes around ``altitude_km`` ("slightly above and
        below this altitude", as the paper puts it).
    altitude_slots:
        Number of distinct altitudes in that stack.
    demand_floor:
        Demand below this many satellite-capacity units per cell is treated
        as zero: it corresponds to populations too small to drive
        constellation sizing and would otherwise force whole shells for
        vanishing traffic.
    max_shells:
        Safety bound on the number of greedy iterations.
    """

    altitude_km: float = 560.0
    min_elevation_deg: float = 25.0
    min_inclination_deg: float = 25.0
    inclination_margin_deg: float = 2.0
    altitude_spacing_km: float = 10.0
    altitude_slots: int = 5
    demand_floor: float = 0.01
    max_shells: int = 20000

    def _shell_for_latitude(self, latitude_deg: float, shell_index: int) -> WalkerShell:
        """Return the smallest shell whose coverage reaches ``latitude_deg``."""
        inclination = min(
            90.0,
            max(self.min_inclination_deg, abs(latitude_deg) + self.inclination_margin_deg),
        )
        # Quantise the inclination so the expensive sizing search caches well;
        # 2.5-degree steps are finer than the demand grid's latitude bins.
        inclination = round(inclination / 2.5) * 2.5
        pattern = _cached_minimum_walker(
            self.altitude_km, inclination, self.min_elevation_deg
        )
        slot = shell_index % self.altitude_slots - self.altitude_slots // 2
        altitude = self.altitude_km + slot * self.altitude_spacing_km
        return WalkerShell(pattern=pattern, altitude_km=altitude)

    def design(self, demand: LatLocalTimeGrid) -> WalkerBaselineResult:
        """Greedily add shells until the demand grid is satisfied.

        Every cell of ``demand`` must be finite and non-negative
        (``ValueError`` names the first bad cell otherwise).  A shell serves
        every latitude up to its inclination, a contiguous band of rows
        centred on the equator, so each iteration updates that band of the
        remaining grid in place.

        A shell lowers every cell of its band by one unit and leaves the
        rest alone, so the peak cell stays the peak, and draws the same
        shell, for as long as it beats the best cell outside the band.
        Those repeats are counted up front (:func:`_repeats_on_peak`) and
        their shells added at once, each in its own altitude slot, and the
        band is lowered once by all of them: ``x - j`` is exact for
        ``j <= x < 2**53``, so this equals stepping one shell at a time.
        """
        demand.require_finite_non_negative()
        remaining = demand.copy()
        shells: list[WalkerShell] = []
        iterations = 0

        # Demand below the floor is noise from the synthetic population
        # background (tiny fractions of a satellite's capacity); it never
        # drives real constellation sizing and is excluded up front.
        remaining.values[remaining.values < self.demand_floor] = 0.0

        values = remaining.values
        latitudes = remaining.latitudes_deg
        abs_latitudes = np.abs(latitudes)
        # The shell cap is checked in the body: a pass may add many shells.
        while float(values.sum()) > 1e-9:
            if iterations >= self.max_shells:
                break
            iterations += 1
            peak = int(values.argmax())
            if values.flat[peak] <= 1e-9:
                break
            row = peak // remaining.n_time
            shell = self._shell_for_latitude(float(latitudes[row]), len(shells))
            rows = np.flatnonzero(abs_latitudes <= shell.inclination_deg)
            repeats = 0
            if rows.size and rows[0] <= row <= rows[-1]:
                repeats = min(
                    _repeats_on_peak(
                        float(values.flat[peak]),
                        values[: rows[0]],
                        values[rows[-1] + 1 :],
                    ),
                    self.max_shells - iterations,
                )
            first = len(shells)
            shells.append(shell)
            shells.extend(
                self._shell_for_latitude(float(latitudes[row]), index)
                for index in range(first + 1, first + 1 + repeats)
            )
            iterations += repeats
            if rows.size:
                band = values[rows[0] : rows[-1] + 1]
                np.maximum(band - float(1 + repeats), 0.0, out=band)

        total = sum(shell.satellite_count for shell in shells)
        return WalkerBaselineResult(
            shells=tuple(shells),
            total_satellites=total,
            residual_demand=float(values.sum()),
            iterations=iterations,
        )
