"""Tests of the parametric Van Allen belt flux model."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.constants import SOLAR_DAY_S
from repro.orbits.elements import OrbitalElements
from repro.orbits.frames import geodetic_to_ecef
from repro.radiation.belts import BeltComponent, TrappedParticleModel
from repro.radiation.exposure import ExposureCalculator, _ecef_positions_over_day


def _position(lat_deg: float, lon_deg: float, altitude_km: float = 560.0) -> np.ndarray:
    return geodetic_to_ecef(math.radians(lat_deg), math.radians(lon_deg), altitude_km)


def species_flux_oracle(model, components, positions) -> np.ndarray:
    """One species' flux with ``L`` and ``B`` evaluated afresh, as the model
    once did for each species (and for each electron belt) separately."""
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    l_shell = model.dipole.mcilwain_l(positions)
    b_local = model.dipole.field_magnitude_gauss(positions)
    flux = np.zeros(positions.shape[0])
    for component in components:
        b_eq = model.dipole.equatorial_field_gauss(l_shell)
        b_cut = model.dipole.cutoff_field_gauss(l_shell, model.cutoff_altitude_km)
        span = np.maximum(b_cut - b_eq, 1e-12)
        visible = np.clip((b_cut - b_local) / span, 0.0, 1.0) ** component.cutoff_exponent
        flux += component.amplitude * component.profile(l_shell) * visible
    return flux


def electron_flux_oracle(model, positions, modulation=1.0) -> np.ndarray:
    inner = species_flux_oracle(model, model.electron_components[:1], positions)
    outer = species_flux_oracle(model, model.electron_components[1:], positions)
    return inner + modulation * outer


def proton_flux_oracle(model, positions, modulation=1.0) -> np.ndarray:
    return modulation * species_flux_oracle(model, model.proton_components, positions)


def _probe_positions(seed: int) -> np.ndarray:
    """Random LEO points, plus points inside the SAA and in both horns."""
    rng = np.random.default_rng(seed)
    regions = [
        (rng.uniform(-89.0, 89.0, 300), rng.uniform(-180.0, 180.0, 300)),
        (rng.uniform(-40.0, -5.0, 100), rng.uniform(-75.0, 0.0, 100)),  # SAA
        (rng.uniform(55.0, 72.0, 100), rng.uniform(-180.0, 180.0, 100)),  # northern horn
        (rng.uniform(-72.0, -50.0, 100), rng.uniform(-180.0, 180.0, 100)),  # southern horn
    ]
    latitudes = np.concatenate([lat for lat, _ in regions])
    longitudes = np.concatenate([lon for _, lon in regions])
    altitudes = rng.uniform(300.0, 2000.0, latitudes.size)
    return np.stack(
        [_position(lat, lon, alt) for lat, lon, alt in zip(latitudes, longitudes, altitudes)]
    )


class TestBeltComponent:
    def test_profile_peaks_at_centre(self):
        component = BeltComponent(amplitude=1.0, l_centre=1.5, l_width=0.3, cutoff_exponent=1.0)
        assert component.profile(np.array([1.5]))[0] == pytest.approx(1.0)
        assert component.profile(np.array([2.5]))[0] < 0.01


class TestFluxStructure:
    def test_non_negative_everywhere(self, radiation_model):
        rng = np.random.default_rng(1)
        lats = rng.uniform(-85.0, 85.0, size=50)
        lons = rng.uniform(-180.0, 180.0, size=50)
        positions = np.stack([_position(lat, lon) for lat, lon in zip(lats, lons)])
        assert np.all(radiation_model.electron_flux(positions) >= 0.0)
        assert np.all(radiation_model.proton_flux(positions) >= 0.0)

    def test_saa_proton_hotspot(self, radiation_model):
        # Protons over the South Atlantic anomaly exceed those at the same
        # latitude over the Pacific by a large factor.
        saa = float(radiation_model.proton_flux(_position(-10.0, -45.0))[0])
        pacific = float(radiation_model.proton_flux(_position(-10.0, 170.0))[0])
        assert saa > 5.0 * max(pacific, 1e-9)

    def test_outer_belt_horns_present(self, radiation_model):
        # Electron flux at ~60 degrees latitude (the horns) exceeds the flux
        # at mid latitudes away from the SAA.
        horn = float(radiation_model.electron_flux(_position(60.0, 60.0))[0])
        quiet = float(radiation_model.electron_flux(_position(35.0, 150.0))[0])
        assert horn > quiet

    def test_electron_flux_has_southern_horn_too(self, radiation_model):
        southern = max(
            float(radiation_model.electron_flux(_position(-60.0, lon))[0])
            for lon in range(-180, 180, 30)
        )
        northern = max(
            float(radiation_model.electron_flux(_position(60.0, lon))[0])
            for lon in range(-180, 180, 30)
        )
        assert southern > 0.0 and northern > 0.0
        assert 0.2 < southern / northern < 5.0

    def test_flux_decays_far_above_belts_reach(self, radiation_model):
        # At the same geographic point, a much higher altitude on the same
        # field line family sees different (generally larger L) conditions --
        # but far outside the belts (here 25000 km near the equator) electron
        # flux should be tiny compared with the SAA at LEO.
        leo_saa = float(radiation_model.electron_flux(_position(-10.0, -45.0, 560.0))[0])
        far = float(radiation_model.electron_flux(_position(0.0, -45.0, 25000.0))[0])
        assert far < leo_saa

    def test_solar_modulation_scales_outer_belt(self, radiation_model):
        horn = _position(62.0, 30.0)
        quiet_sun = float(radiation_model.electron_flux(horn, solar_modulation=0.6)[0])
        active_sun = float(radiation_model.electron_flux(horn, solar_modulation=1.8)[0])
        assert active_sun > quiet_sun

    def test_species_dispatch(self, radiation_model):
        position = _position(-20.0, -50.0)
        assert radiation_model.flux("electron", position)[0] == pytest.approx(
            radiation_model.electron_flux(position)[0]
        )
        assert radiation_model.flux("proton", position)[0] == pytest.approx(
            radiation_model.proton_flux(position)[0]
        )
        with pytest.raises(ValueError):
            radiation_model.flux("muon", position)

    def test_custom_components(self):
        model = TrappedParticleModel(
            electron_components=(
                BeltComponent(amplitude=1e3, l_centre=1.5, l_width=0.3, cutoff_exponent=1.0),
            ),
            proton_components=(
                BeltComponent(amplitude=1e2, l_centre=1.5, l_width=0.3, cutoff_exponent=1.0),
            ),
        )
        flux = model.electron_flux(_position(-15.0, -45.0))
        assert flux.shape == (1,)
        assert flux[0] >= 0.0


class TestAdiabaticTermsOnce:
    """Every flux entry point equals the per-species oracle bit for bit."""

    @pytest.mark.parametrize("seed", range(3))
    def test_entry_points_equal_per_species_oracle(self, radiation_model, seed):
        model = radiation_model
        positions = _probe_positions(seed)
        electron = electron_flux_oracle(model, positions, 1.3)
        proton = proton_flux_oracle(model, positions, 0.7)
        assert proton.max() > 0.0 and electron.max() > 0.0
        np.testing.assert_array_equal(model.electron_flux(positions, 1.3), electron)
        np.testing.assert_array_equal(model.proton_flux(positions, 0.7), proton)
        np.testing.assert_array_equal(model.flux("electron", positions, 1.3), electron)
        np.testing.assert_array_equal(model.flux("proton", positions, 0.7), proton)
        both = model.electron_and_proton_flux(positions, 1.3, 0.7)
        np.testing.assert_array_equal(both[0], electron)
        np.testing.assert_array_equal(both[1], proton)
        np.testing.assert_array_equal(
            model.electron_flux(positions[0]), electron_flux_oracle(model, positions[0])
        )

    def test_custom_components_equal_per_species_oracle(self):
        model = TrappedParticleModel(
            electron_components=tuple(
                BeltComponent(amplitude=1e3 * k, l_centre=1.2 + k, l_width=0.4, cutoff_exponent=k)
                for k in (0.5, 1.0, 2.5)
            ),
            proton_components=(),
            cutoff_altitude_km=200.0,
        )
        positions = _probe_positions(7)
        electron, proton = model.electron_and_proton_flux(positions, 2.0, 3.0)
        np.testing.assert_array_equal(electron, electron_flux_oracle(model, positions, 2.0))
        np.testing.assert_array_equal(proton, np.zeros(len(positions)))

    def test_daily_fluence_equals_per_species_oracle(self, radiation_model):
        calculator = ExposureCalculator(
            model=radiation_model, step_s=90.0, electron_modulation=1.2, proton_modulation=0.8
        )
        for inclination in (45.0, 53.0, 65.0, 97.6):
            elements = OrbitalElements.circular(560.0, inclination, raan_deg=40.0)
            positions = _ecef_positions_over_day(elements, SOLAR_DAY_S, 90.0)
            electron = electron_flux_oracle(radiation_model, positions, 1.2)
            proton = proton_flux_oracle(radiation_model, positions, 0.8)
            fluence = calculator.daily_fluence(elements)
            assert fluence.electron == float(np.sum(electron) * 90.0)
            assert fluence.proton == float(np.sum(proton) * 90.0)

    def test_one_coordinate_pass_per_call(self, radiation_model, monkeypatch):
        dipole = type(radiation_model.dipole)
        calls = []
        coordinates = dipole._dipole_coordinates

        def counting(self, positions):
            calls.append(len(np.atleast_2d(positions)))
            return coordinates(self, positions)

        monkeypatch.setattr(dipole, "_dipole_coordinates", counting)
        positions = _probe_positions(1)
        radiation_model.electron_and_proton_flux(positions)
        radiation_model.electron_flux(positions)
        radiation_model.proton_flux(positions)
        assert calls == [len(positions)] * 3
