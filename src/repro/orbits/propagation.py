"""Orbit propagation with secular J2 effects.

The propagator advances Keplerian elements analytically: the fast angle (mean
anomaly) advances at the J2-corrected mean motion, while RAAN and argument of
perigee drift at their secular J2 rates.  Short-period oscillations are
ignored -- they are metres-to-kilometres effects that do not influence
coverage, demand matching or daily radiation fluence, the quantities this
library computes.

Two propagation paths share that model:

* :class:`J2Propagator` -- the scalar reference implementation: one satellite,
  one epoch, full :class:`StateVector` output.
* :class:`BatchPropagator` -- the vectorised engine: the stacked elements of N
  satellites are held as ``numpy`` arrays (semi-major axis, eccentricity,
  inclination, RAAN, argument of perigee, mean anomaly, and the per-satellite
  J2 secular rates), and whole constellations propagate in pure array
  operations.  ``positions_eci_at`` / ``positions_ecef_at`` return ``(N, 3)``
  arrays for one epoch; ``positions_eci_many`` / ``positions_ecef_many``
  return ``(T, N, 3)`` stacks for a vector of epochs.  The batch path is
  tested to agree with the scalar reference to better than 1e-9 km; it is the
  engine behind topology snapshots, time-aware routing and radiation-exposure
  trajectory sampling.

For convenience the module also converts propagated elements to ECI position
and velocity (perifocal-to-ECI rotation) and offers a vectorised sampler that
returns whole trajectories as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elements import OrbitalElements
from .frames import eci_to_ecef
from .kepler import mean_to_true_anomaly, true_to_mean_anomaly
from .perturbations import j2_secular_rates
from .time import Epoch

__all__ = [
    "StateVector",
    "elements_to_state",
    "J2Propagator",
    "BatchPropagator",
    "sample_positions_eci",
]


@dataclass(frozen=True, eq=False)
class StateVector:
    """An ECI position/velocity pair at a given epoch.

    Instances compare by identity: array fields have no single truth value.
    """

    position_km: np.ndarray
    velocity_km_s: np.ndarray
    epoch: Epoch

    @property
    def radius_km(self) -> float:
        """Geocentric distance in km."""
        return float(np.linalg.norm(self.position_km))

    @property
    def speed_km_s(self) -> float:
        """Inertial speed in km/s."""
        return float(np.linalg.norm(self.velocity_km_s))


def _perifocal_to_eci_matrix(elements: OrbitalElements) -> np.ndarray:
    """Return the rotation matrix from the perifocal frame to ECI."""
    cos_raan = math.cos(elements.raan_rad)
    sin_raan = math.sin(elements.raan_rad)
    cos_argp = math.cos(elements.arg_perigee_rad)
    sin_argp = math.sin(elements.arg_perigee_rad)
    cos_inc = math.cos(elements.inclination_rad)
    sin_inc = math.sin(elements.inclination_rad)
    return np.array(
        [
            [
                cos_raan * cos_argp - sin_raan * sin_argp * cos_inc,
                -cos_raan * sin_argp - sin_raan * cos_argp * cos_inc,
                sin_raan * sin_inc,
            ],
            [
                sin_raan * cos_argp + cos_raan * sin_argp * cos_inc,
                -sin_raan * sin_argp + cos_raan * cos_argp * cos_inc,
                -cos_raan * sin_inc,
            ],
            [
                sin_argp * sin_inc,
                cos_argp * sin_inc,
                cos_inc,
            ],
        ]
    )


def elements_to_state(elements: OrbitalElements, epoch: Epoch) -> StateVector:
    """Convert Keplerian elements to an ECI state vector at ``epoch``."""
    from ..constants import MU_EARTH

    p = elements.semi_latus_rectum_km
    e = elements.eccentricity
    nu = elements.true_anomaly_rad
    r = p / (1.0 + e * math.cos(nu))

    position_pqw = np.array([r * math.cos(nu), r * math.sin(nu), 0.0])
    velocity_factor = math.sqrt(MU_EARTH / p)
    velocity_pqw = np.array(
        [-velocity_factor * math.sin(nu), velocity_factor * (e + math.cos(nu)), 0.0]
    )

    rotation = _perifocal_to_eci_matrix(elements)
    return StateVector(
        position_km=rotation @ position_pqw,
        velocity_km_s=rotation @ velocity_pqw,
        epoch=epoch,
    )


class J2Propagator:
    """Analytical secular-J2 propagator for a single satellite.

    Parameters
    ----------
    elements:
        Keplerian elements at ``epoch``.
    epoch:
        Reference epoch of the element set.
    """

    def __init__(self, elements: OrbitalElements, epoch: Epoch):
        self._elements = elements
        self._epoch = epoch
        self._rates = j2_secular_rates(elements)
        self._mean_anomaly_0 = true_to_mean_anomaly(
            elements.true_anomaly_rad, elements.eccentricity
        )

    @property
    def elements(self) -> OrbitalElements:
        """Element set at the reference epoch."""
        return self._elements

    @property
    def epoch(self) -> Epoch:
        """Reference epoch."""
        return self._epoch

    def elements_at(self, epoch: Epoch) -> OrbitalElements:
        """Return the osculating (secularly drifted) elements at ``epoch``."""
        dt = epoch.seconds_since(self._epoch)
        mean_anomaly = self._mean_anomaly_0 + self._rates.mean_anomaly_rate * dt
        true_anomaly = mean_to_true_anomaly(mean_anomaly, self._elements.eccentricity)
        return OrbitalElements(
            semi_major_axis_km=self._elements.semi_major_axis_km,
            eccentricity=self._elements.eccentricity,
            inclination_rad=self._elements.inclination_rad,
            raan_rad=(self._elements.raan_rad + self._rates.raan_rate * dt)
            % (2.0 * math.pi),
            arg_perigee_rad=(
                self._elements.arg_perigee_rad + self._rates.arg_perigee_rate * dt
            )
            % (2.0 * math.pi),
            true_anomaly_rad=true_anomaly % (2.0 * math.pi),
        )

    def state_at(self, epoch: Epoch) -> StateVector:
        """Return the ECI state vector at ``epoch``."""
        return elements_to_state(self.elements_at(epoch), epoch)

    def propagate(self, seconds: float) -> StateVector:
        """Return the state ``seconds`` after the reference epoch."""
        return self.state_at(self._epoch.add_seconds(seconds))


class BatchPropagator:
    """Vectorised secular-J2 propagator for a whole constellation.

    Holds the stacked elements of N satellites as ``numpy`` arrays and
    produces position arrays in pure array operations: the mean anomalies of
    every satellite advance together, one vectorised Kepler solve recovers
    all true anomalies, and the perifocal-to-ECI rotation is expanded into
    broadcast arithmetic.  Results match the scalar :class:`J2Propagator`
    (the reference implementation) to better than 1e-9 km.

    Parameters
    ----------
    elements:
        Element sets of the N satellites at ``epoch`` (order defines the
        satellite axis of every returned array).
    epoch:
        Common reference epoch of the element sets.
    """

    def __init__(self, elements: Sequence[OrbitalElements], epoch: Epoch):
        elements = list(elements)
        if not elements:
            raise ValueError("batch propagator requires at least one satellite")
        self._elements = elements
        self._epoch = epoch

        self._a = np.array([e.semi_major_axis_km for e in elements])
        self._ecc = np.array([e.eccentricity for e in elements])
        self._raan_0 = np.array([e.raan_rad for e in elements])
        self._argp_0 = np.array([e.arg_perigee_rad for e in elements])
        inclination = np.array([e.inclination_rad for e in elements])
        self._cos_i = np.cos(inclination)
        self._sin_i = np.sin(inclination)
        self._p = self._a * (1.0 - self._ecc**2)

        # Per-satellite secular rates and epoch mean anomalies come from the
        # same scalar routines the reference propagator uses, so both paths
        # integrate bit-identical rates.
        rates = [j2_secular_rates(e) for e in elements]
        self._raan_rate = np.array([r.raan_rate for r in rates])
        self._argp_rate = np.array([r.arg_perigee_rate for r in rates])
        self._mean_rate = np.array([r.mean_anomaly_rate for r in rates])
        self._mean_0 = np.array(
            [true_to_mean_anomaly(e.true_anomaly_rad, e.eccentricity) for e in elements]
        )

    @property
    def epoch(self) -> Epoch:
        """Common reference epoch of the element sets."""
        return self._epoch

    @property
    def elements(self) -> list[OrbitalElements]:
        """Element sets at the reference epoch, in satellite order."""
        return list(self._elements)

    @property
    def satellite_count(self) -> int:
        """Number of satellites in the batch."""
        return len(self._elements)

    # -- core array propagation ------------------------------------------------

    def positions_eci_offsets(self, offsets_s) -> np.ndarray:
        """Return ECI positions [km] at time offsets from the reference epoch.

        ``offsets_s`` may be a scalar (result shape ``(N, 3)``) or an array of
        shape ``(T,)`` (result shape ``(T, N, 3)``).
        """
        offsets = np.asarray(offsets_s, dtype=float)
        scalar = offsets.ndim == 0
        dt = offsets.reshape(-1, 1)  # (T, 1) broadcasting over satellites

        two_pi = 2.0 * math.pi
        mean = self._mean_0 + self._mean_rate * dt
        nu = np.mod(mean_to_true_anomaly(mean, self._ecc), two_pi)
        raan = np.mod(self._raan_0 + self._raan_rate * dt, two_pi)
        argp = np.mod(self._argp_0 + self._argp_rate * dt, two_pi)

        r = self._p / (1.0 + self._ecc * np.cos(nu))
        u = argp + nu  # argument of latitude
        cos_u, sin_u = np.cos(u), np.sin(u)
        cos_raan, sin_raan = np.cos(raan), np.sin(raan)
        x = r * (cos_u * cos_raan - sin_u * self._cos_i * sin_raan)
        y = r * (cos_u * sin_raan + sin_u * self._cos_i * cos_raan)
        z = r * (sin_u * self._sin_i)
        positions = np.stack([x, y, z], axis=-1)
        return positions[0] if scalar else positions

    # -- epoch-based conveniences ----------------------------------------------

    def _offsets_of(self, epochs: Sequence[Epoch]) -> np.ndarray:
        return np.array([epoch.seconds_since(self._epoch) for epoch in epochs])

    def positions_eci_at(self, at: Epoch | None = None) -> np.ndarray:
        """Return the ``(N, 3)`` ECI positions [km] at one epoch."""
        at = at or self._epoch
        return self.positions_eci_offsets(at.seconds_since(self._epoch))

    def positions_ecef_at(self, at: Epoch | None = None) -> np.ndarray:
        """Return the ``(N, 3)`` Earth-fixed positions [km] at one epoch."""
        at = at or self._epoch
        return eci_to_ecef(self.positions_eci_at(at), at)

    def positions_eci_many(self, epochs: Sequence[Epoch]) -> np.ndarray:
        """Return the ``(T, N, 3)`` ECI positions [km] at a vector of epochs."""
        return self.positions_eci_offsets(self._offsets_of(epochs))

    def positions_ecef_many(self, epochs: Sequence[Epoch]) -> np.ndarray:
        """Return the ``(T, N, 3)`` Earth-fixed positions [km] at a vector of epochs."""
        jds = np.array([epoch.jd for epoch in epochs])
        return eci_to_ecef(self.positions_eci_many(epochs), jds)


def sample_positions_eci(
    elements: OrbitalElements,
    epoch: Epoch,
    duration_s: float,
    step_s: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ECI positions of one satellite over a time window.

    Returns
    -------
    (times, positions):
        ``times`` is an array of elapsed seconds (shape (N,)), ``positions``
        the corresponding ECI positions in km (shape (N, 3)).
    """
    if step_s <= 0:
        raise ValueError("step_s must be positive")
    if duration_s < 0:
        raise ValueError("duration_s must be non-negative")
    times = np.arange(0.0, duration_s + step_s / 2.0, step_s)
    positions = BatchPropagator([elements], epoch).positions_eci_offsets(times)[:, 0, :]
    return times, positions

