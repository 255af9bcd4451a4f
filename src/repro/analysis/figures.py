"""Data generation for every figure of the paper.

Each ``figure..`` function returns a plain dictionary of numpy arrays /
scalars containing exactly the series plotted in the corresponding figure of
the paper.  The benchmark harness (``pytest benchmarks/ -s``) times and
prints them; the experiment runner (``python -m repro.analysis.experiments
--all``) formats them into printed tables.  Keeping the data generation
here, separate from any printing, also makes the figures easy to regenerate
from a notebook.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.comparison import ComparisonSweep, run_comparison_sweep
from ..core.designer import ConstellationDesigner
from ..core.rgt_baseline import rgt_vs_walker_sweep
from ..coverage.footprint import coverage_half_angle_rad
from ..demand.diurnal import DiurnalProfile, SyntheticTrafficDataset, time_of_day_percentiles
from ..demand.spatiotemporal import SpatiotemporalDemandModel
from ..demand.population import synthetic_population_grid
from ..orbits.elements import OrbitalElements
from ..orbits.groundtrack import compute_ground_track
from ..orbits.perturbations import nodal_period_s
from ..orbits.repeat_ground_track import repeat_ground_track_altitude_km
from ..orbits.time import Epoch
from ..radiation.exposure import daily_fluence_vs_inclination
from ..radiation.flux_map import electron_flux_map

__all__ = [
    "figure01_rgt_vs_walker",
    "figure02_rgt_ground_track",
    "figure03_population_by_latitude",
    "figure04_diurnal_percentiles",
    "figure05_demand_snapshots",
    "figure06_radiation_map",
    "figure07_fluence_vs_inclination",
    "figure08_demand_grid",
    "figure09_figure10_sweep",
    "headline_claims",
]

#: Reference epoch used by figures that need an absolute time.
REFERENCE_EPOCH = Epoch.from_calendar(2025, 3, 20, 12, 0, 0.0)


def figure01_rgt_vs_walker(
    inclination_deg: float = 65.0,
    min_altitude_km: float = 450.0,
    max_altitude_km: float = 2000.0,
) -> dict:
    """Figure 1: satellites to cover one RGT vs. the Walker-delta minimum."""
    points = rgt_vs_walker_sweep(
        inclination_deg=inclination_deg,
        min_altitude_km=min_altitude_km,
        max_altitude_km=max_altitude_km,
    )
    return {
        "altitude_km": np.array([p.altitude_km for p in points]),
        "revolutions_per_day": np.array([p.track.revolutions for p in points]),
        "rgt_satellites": np.array([p.rgt_satellites for p in points]),
        "walker_satellites": np.array([p.walker_satellites for p in points]),
        "uniform_coverage": np.array([p.uniform_coverage for p in points]),
    }


def figure02_rgt_ground_track(
    inclination_deg: float = 65.0,
    target_altitude_km: float = 560.0,
    min_elevation_deg: float = 25.0,
    step_s: float = 60.0,
) -> dict:
    """Figure 2: one repeat ground track and its single-satellite swath width."""
    # Pick the one-day RGT closest to the requested altitude.
    best = None
    for revolutions in range(12, 17):
        try:
            altitude = repeat_ground_track_altitude_km(revolutions, 1, inclination_deg)
        except ValueError:
            continue
        if best is None or abs(altitude - target_altitude_km) < abs(best[1] - target_altitude_km):
            best = (revolutions, altitude)
    if best is None:
        raise ValueError("no one-day repeat ground track found near the target altitude")
    revolutions, altitude = best
    elements = OrbitalElements.circular(altitude_km=altitude, inclination_deg=inclination_deg)
    repeat_period = revolutions * nodal_period_s(
        elements.semi_major_axis_km, 0.0, elements.inclination_rad
    )
    track = compute_ground_track(elements, REFERENCE_EPOCH, repeat_period, step_s)
    return {
        "revolutions": revolutions,
        "altitude_km": altitude,
        "latitude_deg": track.latitudes_deg,
        "longitude_deg": track.longitudes_deg,
        "swath_half_width_deg": math.degrees(
            coverage_half_angle_rad(altitude, min_elevation_deg)
        ),
    }


def figure03_population_by_latitude(resolution_deg: float = 0.5) -> dict:
    """Figure 3: maximum population density per latitude band."""
    grid = synthetic_population_grid(resolution_deg=resolution_deg)
    return {
        "latitude_deg": grid.latitudes_deg,
        "max_density_per_km2": grid.max_over_longitude(),
    }


def figure04_diurnal_percentiles(n_sites: int = 283, n_days: int = 28, seed: int = 2025) -> dict:
    """Figure 4: bandwidth demand vs. local time of day (50th/95th percentiles)."""
    dataset = SyntheticTrafficDataset(n_sites=n_sites, n_days=n_days, seed=seed)
    hours, demand = dataset.generate()
    centres, percentiles = time_of_day_percentiles(hours, demand, percentiles=(50.0, 95.0))
    return {
        "hour_of_day": centres,
        "percent_of_median_p50": percentiles[0],
        "percent_of_median_p95": percentiles[1],
    }


def figure05_demand_snapshots(
    hours: tuple[float, ...] = (0.0, 6.0, 12.0, 18.0),
    population_resolution_deg: float = 1.0,
) -> dict:
    """Figure 5: Earth-fixed demand snapshots through the day."""
    model = SpatiotemporalDemandModel(
        population=synthetic_population_grid(resolution_deg=population_resolution_deg)
    )
    snapshots = {}
    for hour in hours:
        grid = model.snapshot(hour)
        snapshots[hour] = {
            "latitude_deg": grid.latitudes_deg,
            "longitude_deg": grid.longitudes_deg,
            "demand": grid.values,
            "northern_hemisphere_total": float(
                grid.values[grid.latitudes_deg > 0, :].sum()
            ),
        }
    return {"hours": np.array(hours), "snapshots": snapshots}


def figure06_radiation_map(
    altitude_km: float = 560.0, resolution_deg: float = 2.0, n_days: int = 128
) -> dict:
    """Figure 6: maximum electron flux map at 560 km over a solar-cycle sample."""
    grid = electron_flux_map(altitude_km, resolution_deg=resolution_deg, n_days=n_days)
    return {
        "latitude_deg": grid.latitudes_deg,
        "longitude_deg": grid.longitudes_deg,
        "electron_flux": grid.values,
    }


def figure07_fluence_vs_inclination(
    altitude_km: float = 560.0, inclinations_deg: np.ndarray | None = None
) -> dict:
    """Figure 7: daily electron and proton fluence as a function of inclination."""
    inclinations, electron, proton = daily_fluence_vs_inclination(
        altitude_km, inclinations_deg
    )
    return {
        "inclination_deg": inclinations,
        "electron_fluence": electron,
        "proton_fluence": proton,
    }


def figure08_demand_grid(
    lat_resolution_deg: float = 2.0,
    time_resolution_hours: float = 1.0,
    population_resolution_deg: float = 1.0,
) -> dict:
    """Figure 8: the (latitude, local-time-of-day) demand grid in percent of peak."""
    model = SpatiotemporalDemandModel(
        population=synthetic_population_grid(resolution_deg=population_resolution_deg)
    )
    grid = model.latitude_time_grid(
        lat_resolution_deg=lat_resolution_deg,
        time_resolution_hours=time_resolution_hours,
        bandwidth_multiplier=100.0,
    )
    return {
        "latitude_deg": grid.latitudes_deg,
        "local_time_hours": grid.local_times_hours,
        "demand_percent_of_peak": grid.values,
    }


def figure09_figure10_sweep(
    bandwidth_multipliers: tuple[float, ...] = (10.0, 30.0, 100.0, 300.0, 1000.0),
    designer: ConstellationDesigner | None = None,
) -> dict:
    """Figures 9 and 10: satellite count and median radiation vs. demand.

    Both figures come from the same constellation-design sweep, so they are
    generated together (the sweep is the expensive part).
    """
    sweep: ComparisonSweep = run_comparison_sweep(bandwidth_multipliers, designer)
    return {
        "bandwidth_multiplier": sweep.bandwidth_multipliers(),
        "ss_satellites": sweep.ss_satellites(),
        "walker_satellites": sweep.walker_satellites(),
        "ss_median_electron": np.array([p.ss_median_electron for p in sweep.points]),
        "walker_median_electron": np.array([p.walker_median_electron for p in sweep.points]),
        "ss_median_proton": np.array([p.ss_median_proton for p in sweep.points]),
        "walker_median_proton": np.array([p.walker_median_proton for p in sweep.points]),
        "sweep": sweep,
    }


def headline_claims(
    bandwidth_multipliers: tuple[float, ...] = (3.0, 10.0, 30.0, 100.0),
    designer: ConstellationDesigner | None = None,
) -> dict:
    """The abstract's headline claims, derived from a (smaller) sweep."""
    sweep = run_comparison_sweep(bandwidth_multipliers, designer)
    claims = sweep.headline_claims()
    return {
        "max_satellite_reduction_factor": claims.max_satellite_reduction_factor,
        "max_electron_reduction_percent": claims.max_electron_reduction_percent,
        "max_proton_reduction_percent": claims.max_proton_reduction_percent,
        "order_of_magnitude_fewer_satellites": claims.order_of_magnitude_fewer_satellites,
    }
