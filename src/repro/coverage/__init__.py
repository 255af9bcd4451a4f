"""Coverage geometry substrate.

Spot-beam footprints, ground-site visibility, the two surface grids used by
the paper (Earth-fixed latitude/longitude and sun-fixed latitude/local-time),
Walker-delta constellation generation and sizing, and repeat-ground-track
coverage analysis.
"""

from .footprint import (
    Footprint,
    coverage_half_angle_rad,
    footprint_area_km2,
    nadir_angle_rad,
    slant_range_km,
)
from .grid import LatLocalTimeGrid, LatLonGrid
from .rgt_coverage import (
    RGTTrain,
    analytic_satellites_for_track_coverage,
    ground_track_rate_rad_s,
    provides_uniform_coverage,
    required_street_half_width_rad,
    satellites_to_cover_track,
    swath_sample_points,
    train_covers_region,
)
from .visibility import VisibilityWindow, elevation_and_slant_range, visibility_windows
from .walker import (
    WalkerDelta,
    circular_positions_eci,
    coverage_fraction,
    is_continuously_covered,
    minimum_walker_for_coverage,
    streets_of_coverage_size,
)

__all__ = [
    "Footprint",
    "coverage_half_angle_rad",
    "footprint_area_km2",
    "nadir_angle_rad",
    "slant_range_km",
    "LatLocalTimeGrid",
    "LatLonGrid",
    "RGTTrain",
    "analytic_satellites_for_track_coverage",
    "ground_track_rate_rad_s",
    "provides_uniform_coverage",
    "required_street_half_width_rad",
    "satellites_to_cover_track",
    "swath_sample_points",
    "train_covers_region",
    "VisibilityWindow",
    "elevation_and_slant_range",
    "visibility_windows",
    "WalkerDelta",
    "circular_positions_eci",
    "coverage_fraction",
    "is_continuously_covered",
    "minimum_walker_for_coverage",
    "streets_of_coverage_size",
]
