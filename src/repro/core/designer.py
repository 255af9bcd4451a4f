"""High-level constellation design API.

``ConstellationDesigner`` is the main entry point a library user interacts
with: give it a spatiotemporal demand model and a bandwidth multiplier, and it
returns designed SS-plane and Walker-delta constellations together with their
metrics.  The lower-level pieces (the greedy coverer, the Walker baseline,
metrics) remain available for users who need to customise the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..coverage.grid import LatLocalTimeGrid
from ..demand.spatiotemporal import SpatiotemporalDemandModel
from .greedy_cover import GreedyCoverResult, GreedySSPlaneDesigner
from .metrics import ConstellationMetrics, MetricsCalculator
from .walker_baseline import DemandDrivenWalkerDesigner, WalkerBaselineResult

__all__ = ["DesignOutcome", "ConstellationDesigner"]


@dataclass(frozen=True)
class DesignOutcome:
    """A designed constellation plus its evaluation metrics."""

    result: GreedyCoverResult | WalkerBaselineResult
    metrics: ConstellationMetrics

    @property
    def total_satellites(self) -> int:
        """Total number of satellites in the design."""
        return self.metrics.total_satellites


@dataclass
class ConstellationDesigner:
    """Designs and evaluates SS-plane and Walker-delta constellations.

    Attributes
    ----------
    demand_model:
        Spatiotemporal demand model (population x diurnal profile).
    altitude_km, min_elevation_deg:
        Shared physical parameters of both designs.
    lat_resolution_deg, time_resolution_hours:
        Resolution of the (latitude, local-time) demand grid.
    """

    demand_model: SpatiotemporalDemandModel = field(
        default_factory=SpatiotemporalDemandModel
    )
    altitude_km: float = 560.0
    min_elevation_deg: float = 25.0
    lat_resolution_deg: float = 2.0
    time_resolution_hours: float = 1.0
    metrics_calculator: MetricsCalculator = field(default_factory=MetricsCalculator)

    def demand_grid(self, bandwidth_multiplier: float) -> LatLocalTimeGrid:
        """Return the demand grid scaled to ``bandwidth_multiplier`` (Figure 8)."""
        return self.demand_model.latitude_time_grid(
            lat_resolution_deg=self.lat_resolution_deg,
            time_resolution_hours=self.time_resolution_hours,
            bandwidth_multiplier=bandwidth_multiplier,
        )

    def design_ssplane(self, bandwidth_multiplier: float) -> DesignOutcome:
        """Design an SS-plane constellation for the given demand level."""
        return self._design_ssplane(self.demand_grid(bandwidth_multiplier))

    def design_walker(self, bandwidth_multiplier: float) -> DesignOutcome:
        """Design the Walker-delta baseline for the given demand level."""
        return self._design_walker(self.demand_grid(bandwidth_multiplier))

    def design_both(self, bandwidth_multiplier: float) -> tuple[DesignOutcome, DesignOutcome]:
        """Design both constellations for the given demand level.

        The demand grid is built once and read by both designers (each
        designs on its own copy).
        """
        grid = self.demand_grid(bandwidth_multiplier)
        return self._design_ssplane(grid), self._design_walker(grid)

    def _design_ssplane(self, grid: LatLocalTimeGrid) -> DesignOutcome:
        designer = GreedySSPlaneDesigner(
            altitude_km=self.altitude_km, min_elevation_deg=self.min_elevation_deg
        )
        result = designer.design(grid)
        return DesignOutcome(result=result, metrics=self.metrics_calculator.for_ssplane(result))

    def _design_walker(self, grid: LatLocalTimeGrid) -> DesignOutcome:
        designer = DemandDrivenWalkerDesigner(
            altitude_km=self.altitude_km, min_elevation_deg=self.min_elevation_deg
        )
        result = designer.design(grid)
        return DesignOutcome(result=result, metrics=self.metrics_calculator.for_walker(result))
