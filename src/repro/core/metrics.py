"""Constellation metrics: size, radiation exposure, coverage accounting.

These are the quantities the paper's evaluation section reports: total
satellite counts (Figure 9), the median per-satellite daily radiation fluence
(Figure 10), and the headline ratios derived from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..orbits.elements import OrbitalElements
from ..radiation.exposure import DailyFluence, ExposureCalculator
from .greedy_cover import GreedyCoverResult
from .ssplane import SSPlane
from .walker_baseline import WalkerBaselineResult

__all__ = ["ConstellationMetrics", "MetricsCalculator"]


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
    evaluated and repeated ``count`` times before the median and mean.  The
    repeated arrays equal the per-satellite arrays element for element, so
    the statistics are exactly those of the expanded constellation.
    """

    exposure: ExposureCalculator = field(default_factory=ExposureCalculator)

    def _fluence_stats(
        self, groups: list[tuple[OrbitalElements, int]]
    ) -> tuple[DailyFluence, DailyFluence]:
        fluences = self.exposure.constellation_fluences([elements for elements, _ in groups])
        counts = [count for _, count in groups]
        electrons = np.repeat([f.electron for f in fluences], counts)
        protons = np.repeat([f.proton for f in fluences], counts)
        median = DailyFluence(float(np.median(electrons)), float(np.median(protons)))
        mean = DailyFluence(float(np.mean(electrons)), float(np.mean(protons)))
        return median, mean

    # -- per-design entry points --------------------------------------------------

    def for_ssplane(self, result: GreedyCoverResult) -> ConstellationMetrics:
        """Return metrics of a greedy SS-plane design."""
        # ``orbit.to_elements()`` is the plane's first satellite (true anomaly 0,
        # Sun at RA 0), i.e. ``plane.satellite_elements()[0]``.  A design
        # repeats a few dozen distinct planes thousands of times, so each
        # distinct plane's elements are built once.
        elements: dict[SSPlane, OrbitalElements] = {}
        for plane in result.planes:
            if plane not in elements:
                elements[plane] = plane.orbit.to_elements()
        groups = [(elements[plane], plane.satellite_count) for plane in result.planes]
        median, mean = self._fluence_stats(groups)
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
        groups = [
            (
                OrbitalElements.circular(
                    altitude_km=shell.altitude_km, inclination_deg=shell.inclination_deg
                ),
                shell.satellite_count,
            )
            for shell in result.shells
        ]
        median, mean = self._fluence_stats(groups)
        return ConstellationMetrics(
            design="walker",
            total_satellites=result.total_satellites,
            plane_count=result.shell_count,
            median_fluence=median,
            mean_fluence=mean,
            satisfied=result.satisfied,
        )
