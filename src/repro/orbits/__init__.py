"""Orbital mechanics substrate.

This package implements everything the paper needs from an astrodynamics
library: Keplerian elements, Kepler's equation, secular J2 perturbations,
sun-synchronous and repeat-ground-track orbit design, analytical propagation,
reference-frame conversions (including the sun-fixed chart of the paper's
Figure 8) and ground-track sampling.
"""

from .elements import OrbitalElements, mean_motion_rad_s, period_s, semi_major_axis_from_period
from .frames import (
    ecef_to_eci,
    ecef_to_geodetic,
    eci_to_ecef,
    eci_to_latlon,
    eci_to_sunfixed,
    geodetic_to_ecef,
    great_circle_distance_rad,
    local_solar_time_hours,
    local_time_to_sunfixed_longitude,
    sunfixed_longitude_to_local_time,
)
from .groundtrack import GroundTrack, compute_ground_track, compute_sunfixed_track
from .kepler import (
    eccentric_to_mean_anomaly,
    eccentric_to_true_anomaly,
    mean_to_eccentric_anomaly,
    mean_to_true_anomaly,
    solve_kepler,
    true_to_eccentric_anomaly,
    true_to_mean_anomaly,
)
from .perturbations import (
    J2SecularRates,
    arg_perigee_drift_rate,
    j2_secular_rates,
    mean_anomaly_drift_correction,
    nodal_day_s,
    nodal_period_s,
    raan_drift_rate,
)
from .propagation import BatchPropagator, sample_positions_eci
from .repeat_ground_track import (
    RepeatGroundTrack,
    enumerate_leo_repeat_ground_tracks,
    repeat_ground_track_altitude_km,
    revolutions_per_day,
)
from .sun import (
    solar_declination_rad,
    solar_right_ascension_rad,
    subsolar_point,
    sun_direction_eci,
    sun_position_eci,
)
from .sunsync import (
    SunSynchronousOrbit,
    is_sun_synchronous,
    sun_synchronous_altitude_km,
    sun_synchronous_inclination_deg,
    sun_synchronous_inclination_rad,
)
from .time import J2000, Epoch, epoch_range, gmst_rad, julian_date, step_count

__all__ = [
    "OrbitalElements",
    "mean_motion_rad_s",
    "period_s",
    "semi_major_axis_from_period",
    "ecef_to_eci",
    "ecef_to_geodetic",
    "eci_to_ecef",
    "eci_to_latlon",
    "eci_to_sunfixed",
    "geodetic_to_ecef",
    "great_circle_distance_rad",
    "local_solar_time_hours",
    "local_time_to_sunfixed_longitude",
    "sunfixed_longitude_to_local_time",
    "GroundTrack",
    "compute_ground_track",
    "compute_sunfixed_track",
    "eccentric_to_mean_anomaly",
    "eccentric_to_true_anomaly",
    "mean_to_eccentric_anomaly",
    "mean_to_true_anomaly",
    "solve_kepler",
    "true_to_eccentric_anomaly",
    "true_to_mean_anomaly",
    "J2SecularRates",
    "arg_perigee_drift_rate",
    "j2_secular_rates",
    "mean_anomaly_drift_correction",
    "nodal_day_s",
    "nodal_period_s",
    "raan_drift_rate",
    "BatchPropagator",
    "sample_positions_eci",
    "RepeatGroundTrack",
    "enumerate_leo_repeat_ground_tracks",
    "repeat_ground_track_altitude_km",
    "revolutions_per_day",
    "solar_declination_rad",
    "solar_right_ascension_rad",
    "subsolar_point",
    "sun_direction_eci",
    "sun_position_eci",
    "SunSynchronousOrbit",
    "is_sun_synchronous",
    "sun_synchronous_altitude_km",
    "sun_synchronous_inclination_deg",
    "sun_synchronous_inclination_rad",
    "J2000",
    "Epoch",
    "gmst_rad",
    "step_count",
    "epoch_range",
    "julian_date",
]
