"""Offset tilted dipole model of the geomagnetic field.

The structure of trapped radiation at LEO is organised by the geomagnetic
field: particles gyrate around field lines, bounce between mirror points and
drift around the Earth on shells of constant McIlwain parameter ``L``.  Two
features of the real field matter for the paper's analysis and both are
captured by the classic *offset tilted dipole* (OTD) approximation:

* the dipole axis is tilted ~10.5 degrees from the rotation axis, and
* the dipole centre is displaced ~500 km from the Earth's centre towards the
  western Pacific, which makes the field anomalously weak over the South
  Atlantic -- the origin of the South Atlantic Anomaly (SAA).

All functions are vectorised over arrays of positions.  Positions are in the
Earth-fixed (ECEF) frame in km; field strengths are in Gauss (1 G = 1e5 nT),
and ``L`` is in Earth radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..constants import EARTH_RADIUS_KM

__all__ = ["DipoleModel", "DEFAULT_DIPOLE"]

#: Surface equatorial field strength of the dipole term [Gauss].
_B0_GAUSS = 0.3025

#: Geographic latitude / longitude of the north geomagnetic pole [deg]
#: (approximately the IGRF-13 centred-dipole pole for the 2015-2020 era).
_POLE_LATITUDE_DEG = 80.6
_POLE_LONGITUDE_DEG = -72.7

#: Offset of the eccentric dipole centre from the Earth's centre [km] and the
#: geographic direction of that offset.  The displacement towards the western
#: Pacific is what depresses the field over the South Atlantic.
_OFFSET_KM = 560.0
_OFFSET_LATITUDE_DEG = 22.0
_OFFSET_LONGITUDE_DEG = 140.0


def _unit_vector(latitude_deg: float, longitude_deg: float) -> np.ndarray:
    """Return the ECEF unit vector pointing at a geographic (lat, lon)."""
    lat = math.radians(latitude_deg)
    lon = math.radians(longitude_deg)
    return np.array(
        [math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)]
    )


@dataclass(frozen=True)
class DipoleModel:
    """An offset tilted dipole approximation of the geomagnetic field.

    Attributes
    ----------
    surface_field_gauss:
        Equatorial surface field strength of the dipole term.
    pole_latitude_deg, pole_longitude_deg:
        Geographic coordinates of the north geomagnetic pole (defines the
        dipole axis tilt).
    offset_km, offset_latitude_deg, offset_longitude_deg:
        Magnitude and geographic direction of the eccentric-dipole offset.
    """

    surface_field_gauss: float = _B0_GAUSS
    pole_latitude_deg: float = _POLE_LATITUDE_DEG
    pole_longitude_deg: float = _POLE_LONGITUDE_DEG
    offset_km: float = _OFFSET_KM
    offset_latitude_deg: float = _OFFSET_LATITUDE_DEG
    offset_longitude_deg: float = _OFFSET_LONGITUDE_DEG

    # -- geometry helpers -------------------------------------------------------

    @property
    def axis(self) -> np.ndarray:
        """Unit vector of the dipole (magnetic north) axis in ECEF."""
        return _unit_vector(self.pole_latitude_deg, self.pole_longitude_deg)

    @property
    def centre_km(self) -> np.ndarray:
        """ECEF position of the eccentric dipole centre [km]."""
        return self.offset_km * _unit_vector(
            self.offset_latitude_deg, self.offset_longitude_deg
        )

    def _dipole_coordinates(
        self, positions_ecef_km: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return (radial distance in Earth radii, magnetic latitude in rad)."""
        positions = np.atleast_2d(np.asarray(positions_ecef_km, dtype=float))
        relative = positions - self.centre_km
        distance_km = np.linalg.norm(relative, axis=1)
        if np.any(distance_km <= 0):
            raise ValueError("positions must not coincide with the dipole centre")
        sin_maglat = (relative @ self.axis) / distance_km
        sin_maglat = np.clip(sin_maglat, -1.0, 1.0)
        return distance_km / EARTH_RADIUS_KM, np.arcsin(sin_maglat)

    # -- field quantities -------------------------------------------------------

    def field_magnitude_gauss(self, positions_ecef_km: np.ndarray) -> np.ndarray:
        """Return |B| [Gauss] at each position.

        Dipole field magnitude: ``B = B0 / r^3 * sqrt(1 + 3 sin^2(maglat))``
        with ``r`` in Earth radii measured from the (offset) dipole centre.
        """
        return self._field_at(*self._dipole_coordinates(positions_ecef_km))

    def _field_at(self, r: np.ndarray, maglat: np.ndarray) -> np.ndarray:
        return self.surface_field_gauss / r**3 * np.sqrt(1.0 + 3.0 * np.sin(maglat) ** 2)

    def magnetic_latitude_rad(self, positions_ecef_km: np.ndarray) -> np.ndarray:
        """Return the magnetic (dipole) latitude [rad] of each position."""
        _, maglat = self._dipole_coordinates(positions_ecef_km)
        return maglat

    def mcilwain_l(self, positions_ecef_km: np.ndarray) -> np.ndarray:
        """Return the McIlwain L-parameter [Earth radii] of each position.

        For a dipole the field line through a point at radial distance ``r``
        and magnetic latitude ``lambda_m`` crosses the magnetic equator at
        ``L = r / cos^2(lambda_m)``.
        """
        return self._mcilwain_l_at(*self._dipole_coordinates(positions_ecef_km))

    @staticmethod
    def _mcilwain_l_at(r: np.ndarray, maglat: np.ndarray) -> np.ndarray:
        cos_maglat = np.cos(maglat)
        # Field lines through the (near-)polar region formally have enormous
        # L; cap the cosine to keep the result finite and meaningful.
        cos_maglat = np.maximum(cos_maglat, 1e-3)
        return r / cos_maglat**2

    def _l_and_field(self, positions_ecef_km: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(mcilwain_l, field_magnitude_gauss)`` from one coordinate pass.

        Both are evaluated exactly as the public methods evaluate them, on the
        same dipole coordinates, so they equal those methods' results bit for
        bit.
        """
        r, maglat = self._dipole_coordinates(positions_ecef_km)
        return self._mcilwain_l_at(r, maglat), self._field_at(r, maglat)

    def equatorial_field_gauss(self, l_shell: np.ndarray) -> np.ndarray:
        """Return the field strength [Gauss] at the equator of an L shell."""
        l_shell = np.maximum(np.asarray(l_shell, dtype=float), 1e-3)
        return self.surface_field_gauss / l_shell**3

    def b_over_b_equator(self, positions_ecef_km: np.ndarray) -> np.ndarray:
        """Return B / B_eq, the mirror-ratio coordinate of trapped-particle models."""
        l_shell, b_local = self._l_and_field(positions_ecef_km)
        return b_local / self.equatorial_field_gauss(l_shell)

    def cutoff_field_gauss(
        self, l_shell: np.ndarray, cutoff_altitude_km: float = 100.0
    ) -> np.ndarray:
        """Return the loss-cone field strength [Gauss] for each L shell.

        Particles mirroring where the field exceeds this value dip below
        ``cutoff_altitude_km`` and are absorbed by the atmosphere, so the
        trapped population only extends up to this field strength.  The value
        is computed on a centred dipole: the latitude at which the L shell
        reaches the cutoff radius ``r_c`` satisfies ``cos^2(lat) = r_c / L``.
        """
        l_shell = np.maximum(np.asarray(l_shell, dtype=float), 1.0 + 1e-6)
        r_cut = (EARTH_RADIUS_KM + cutoff_altitude_km) / EARTH_RADIUS_KM
        ratio = np.minimum(r_cut / l_shell, 1.0)
        # sqrt(1 + 3 sin^2) with sin^2 = 1 - ratio gives sqrt(4 - 3*ratio).
        return self.surface_field_gauss / r_cut**3 * np.sqrt(4.0 - 3.0 * ratio)


#: Default geomagnetic field model shared by the radiation modules.
DEFAULT_DIPOLE = DipoleModel()
