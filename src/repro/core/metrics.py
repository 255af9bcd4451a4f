"""Constellation metrics: size, radiation exposure, coverage accounting.

These are the quantities the paper's evaluation section reports: total
satellite counts (Figure 9), the median per-satellite daily radiation fluence
(Figure 10), and the headline ratios derived from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..numerics import _pairwise_sum
from ..orbits.elements import OrbitalElements
from ..radiation.exposure import DailyFluence, ExposureCalculator
from .greedy_cover import GreedyCoverResult
from .ssplane import SSPlane
from .walker_baseline import WalkerBaselineResult

__all__ = ["ConstellationMetrics", "MetricsCalculator"]


def _group_median(values: np.ndarray, counts: np.ndarray) -> float:
    """Return ``np.median(np.repeat(values, counts))`` without the repeat.

    The counted groups are sorted by value and their cumulative counts locate
    the middle order statistics (one for an odd total, two for an even one,
    averaged as ``(lower + upper) / 2``): the values and the arithmetic
    ``np.median`` uses, so the same float.  A NaN in a counted group makes
    the median NaN, as in ``np.median``; a zero total gives NaN explicitly,
    without the warnings of a median over nothing.
    """
    counted = counts > 0
    values, counts = values[counted], counts[counted]
    if not len(values):
        return math.nan
    order = np.argsort(values)
    values = values[order]
    if math.isnan(values[-1]):  # NaN sorts last
        return float(values[-1])
    ends = np.cumsum(counts[order])
    middle = int(ends[-1]) // 2
    upper = float(values[np.searchsorted(ends, middle, side="right")])
    if ends[-1] % 2:
        return upper
    lower = float(values[np.searchsorted(ends, middle - 1, side="right")])
    return (lower + upper) / 2.0


def _group_mean(values: np.ndarray, counts: np.ndarray) -> float:
    """Return ``np.mean(np.repeat(values, counts))`` without the repeat.

    ``np.mean`` divides ``np.add.reduce`` of the repeated array by its
    length; the sum is taken by :func:`repro.numerics._pairwise_sum` over
    runs of the repeated array built one at a time, so it is the same float
    while memory stays bounded however many satellites the groups hold.
    ``counts`` must not sum to zero.
    """
    ends = np.cumsum(counts)
    starts = ends - counts

    def repeated(lo: int, hi: int) -> np.ndarray:
        first = int(np.searchsorted(ends, lo, side="right"))
        last = int(np.searchsorted(ends, hi - 1, side="right")) + 1
        taken = np.minimum(ends[first:last], hi) - np.maximum(starts[first:last], lo)
        return np.repeat(values[first:last], taken)

    size = int(ends[-1])
    return _pairwise_sum(repeated, size) / size


@dataclass(frozen=True)
class ConstellationMetrics:
    """Summary metrics of one designed constellation.

    Attributes
    ----------
    design:
        Human-readable label of the design method ("ss-plane", "walker", ...).
    total_satellites:
        Total number of satellites.
    plane_count:
        Number of orbital planes (SS design) or shells (Walker design).
    median_fluence:
        Median per-satellite daily radiation fluence.
    mean_fluence:
        Mean per-satellite daily radiation fluence.
    satisfied:
        Whether the design fully covered its demand grid.
    """

    design: str
    total_satellites: int
    plane_count: int
    median_fluence: DailyFluence
    mean_fluence: DailyFluence
    satisfied: bool

    @property
    def median_electron_fluence(self) -> float:
        """Median per-satellite electron fluence [#/cm^2/MeV/day]."""
        return self.median_fluence.electron

    @property
    def median_proton_fluence(self) -> float:
        """Median per-satellite proton fluence [#/cm^2/MeV/day]."""
        return self.median_fluence.proton


@dataclass
class MetricsCalculator:
    """Computes :class:`ConstellationMetrics` for SS-plane and Walker designs.

    Statistics are group-native: a design is a list of ``(elements, count)``
    groups, one per SS-plane or Walker shell, and no per-satellite list is
    ever built.  Radiation fluence only depends on a satellite's altitude,
    inclination and (weakly, through SAA sampling) RAAN, which every
    satellite of a plane or shell shares, so one fluence per group is
    evaluated; a design repeats a few dozen distinct orbits thousands of
    times, and each is built and looked up once.  The median is taken over
    the ``(fluence, count)`` groups (sorted values and cumulative counts
    pick the middle order statistics), and the mean is numpy's pairwise sum
    of the fluences repeated ``count`` times, walked over short runs of that
    virtual per-satellite array, so its memory does not grow with the
    constellation.  Both are exactly those of the expanded constellation.
    A design without satellites has NaN median and mean fluences and emits
    no warning.
    """

    exposure: ExposureCalculator = field(default_factory=ExposureCalculator)

    def _fluence_stats(
        self, orbits: list[OrbitalElements], orbit_of_group: list[int], counts: list[int]
    ) -> tuple[DailyFluence, DailyFluence]:
        """Return the median and mean fluence over ``(orbit, count)`` groups.

        Group ``g`` has ``counts[g]`` satellites on ``orbits[orbit_of_group[g]]``.
        ``orbits`` lists each distinct orbit once, in the order the groups
        first use it, so the exposure calculator's first-seen rule resolves
        it as it would over the per-group list.
        """
        fluences = self.exposure.constellation_fluences(orbits)
        orbit_of_group = np.asarray(orbit_of_group, dtype=np.intp)
        counts = np.asarray(counts, dtype=int)
        electrons = np.array([f.electron for f in fluences], dtype=float)[orbit_of_group]
        protons = np.array([f.proton for f in fluences], dtype=float)[orbit_of_group]
        median = DailyFluence(_group_median(electrons, counts), _group_median(protons, counts))
        if not counts.sum():
            return median, DailyFluence(math.nan, math.nan)
        mean = DailyFluence(_group_mean(electrons, counts), _group_mean(protons, counts))
        return median, mean

    # -- per-design entry points --------------------------------------------------

    def for_ssplane(self, result: GreedyCoverResult) -> ConstellationMetrics:
        """Return metrics of a greedy SS-plane design."""
        # ``orbit.to_elements()`` is the plane's first satellite (true anomaly 0,
        # Sun at RA 0), i.e. ``plane.satellite_elements()[0]``.  A design
        # repeats a few dozen distinct planes thousands of times, so each
        # distinct plane's elements are built, and its fluence looked up, once.
        distinct: dict[SSPlane, int] = {}
        orbit_of_plane = [distinct.setdefault(plane, len(distinct)) for plane in result.planes]
        median, mean = self._fluence_stats(
            [plane.orbit.to_elements() for plane in distinct],
            orbit_of_plane,
            [plane.satellite_count for plane in result.planes],
        )
        return ConstellationMetrics(
            design="ss-plane",
            total_satellites=result.total_satellites,
            plane_count=result.plane_count,
            median_fluence=median,
            mean_fluence=mean,
            satisfied=result.satisfied,
        )

    def for_walker(self, result: WalkerBaselineResult) -> ConstellationMetrics:
        """Return metrics of a demand-driven Walker baseline design."""
        # A shell's fluence is that of its RAAN-0 orbit, fixed by its altitude
        # and inclination; a design repeats a few dozen such pairs.
        distinct: dict[tuple[float, float], int] = {}
        orbit_of_shell = [
            distinct.setdefault((shell.altitude_km, shell.inclination_deg), len(distinct))
            for shell in result.shells
        ]
        median, mean = self._fluence_stats(
            [
                OrbitalElements.circular(altitude_km=altitude, inclination_deg=inclination)
                for altitude, inclination in distinct
            ],
            orbit_of_shell,
            [shell.satellite_count for shell in result.shells],
        )
        return ConstellationMetrics(
            design="walker",
            total_satellites=result.total_satellites,
            plane_count=result.shell_count,
            median_fluence=median,
            mean_fluence=mean,
            satisfied=result.satisfied,
        )
