"""Equivalence tests: the vectorised batch engine against the scalar oracle.

The :class:`BatchPropagator` is the one propagation engine, behind topology
snapshots, time-aware routing, exposure sampling, ground tracks and
visibility windows; the scalar ``J2Propagator`` in ``propagation_oracle.py``
is its test oracle.  These tests pin the two together to better than 1e-9 km
across circular and eccentric element sets and multi-day propagation
offsets.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from propagation_oracle import J2Propagator
from repro.orbits.elements import OrbitalElements
from repro.orbits.frames import eci_to_ecef
from repro.orbits.kepler import (
    eccentric_to_true_anomaly,
    mean_to_true_anomaly,
    solve_kepler,
    true_to_mean_anomaly,
)
from repro.orbits.propagation import BatchPropagator, sample_positions_eci
from repro.orbits.time import Epoch, gmst_rad, step_count

TOLERANCE_KM = 1e-9


@pytest.fixture(scope="module")
def mixed_elements() -> list[OrbitalElements]:
    """Circular and eccentric orbits across inclinations, RAANs and phases."""
    return [
        OrbitalElements.circular(560.0, 65.0, raan_deg=30.0, true_anomaly_deg=137.0),
        OrbitalElements.circular(560.0, 97.6, raan_deg=200.0, true_anomaly_deg=10.0),
        OrbitalElements.circular(1200.0, 53.0, raan_deg=300.0, true_anomaly_deg=250.0),
        OrbitalElements(
            semi_major_axis_km=7200.0,
            eccentricity=0.05,
            inclination_rad=1.1,
            raan_rad=0.5,
            arg_perigee_rad=2.0,
            true_anomaly_rad=4.0,
        ),
        OrbitalElements(
            semi_major_axis_km=6900.0,
            eccentricity=0.01,
            inclination_rad=0.9,
            raan_rad=5.0,
            arg_perigee_rad=0.3,
            true_anomaly_rad=1.0,
        ),
        OrbitalElements(
            semi_major_axis_km=8000.0,
            eccentricity=0.15,
            inclination_rad=2.0,
            raan_rad=3.3,
            arg_perigee_rad=5.9,
            true_anomaly_rad=0.2,
        ),
    ]


class TestBatchMatchesScalar:
    @pytest.mark.parametrize(
        "offset_s", [0.0, 45.0, 3600.0, 86400.0, 1.5 * 86400.0, 3.0 * 86400.0]
    )
    def test_eci_positions_match(self, mixed_elements, epoch, offset_s):
        batch = BatchPropagator(mixed_elements, epoch)
        at = epoch.add_seconds(offset_s)
        positions = batch.positions_eci_at(at)
        for index, elements in enumerate(mixed_elements):
            reference = J2Propagator(elements, epoch).state_at(at).position_km
            assert np.max(np.abs(positions[index] - reference)) < TOLERANCE_KM

    @pytest.mark.parametrize("offset_s", [0.0, 3600.0, 86400.0, 2.5 * 86400.0])
    def test_ecef_positions_match(self, mixed_elements, epoch, offset_s):
        batch = BatchPropagator(mixed_elements, epoch)
        at = epoch.add_seconds(offset_s)
        positions = batch.positions_ecef_at(at)
        for index, elements in enumerate(mixed_elements):
            state = J2Propagator(elements, epoch).state_at(at)
            reference = eci_to_ecef(state.position_km, at)
            assert np.max(np.abs(positions[index] - reference)) < TOLERANCE_KM

    def test_many_epochs_shape_and_values(self, mixed_elements, epoch):
        batch = BatchPropagator(mixed_elements, epoch)
        epochs = [epoch.add_seconds(t) for t in (0.0, 600.0, 7200.0, 86400.0)]
        eci = batch.positions_eci_many(epochs)
        ecef = batch.positions_ecef_many(epochs)
        assert eci.shape == ecef.shape == (4, len(mixed_elements), 3)
        for step, at in enumerate(epochs):
            assert np.max(np.abs(eci[step] - batch.positions_eci_at(at))) < TOLERANCE_KM
            assert np.max(np.abs(ecef[step] - batch.positions_ecef_at(at))) < TOLERANCE_KM

    def test_offsets_scalar_and_array_forms(self, mixed_elements, epoch):
        batch = BatchPropagator(mixed_elements, epoch)
        single = batch.positions_eci_offsets(120.0)
        stacked = batch.positions_eci_offsets(np.array([0.0, 120.0]))
        assert single.shape == (len(mixed_elements), 3)
        assert stacked.shape == (2, len(mixed_elements), 3)
        assert np.array_equal(stacked[1], single)

    def test_default_epoch_is_reference(self, mixed_elements, epoch):
        batch = BatchPropagator(mixed_elements, epoch)
        assert np.array_equal(batch.positions_eci_at(), batch.positions_eci_at(epoch))

    def test_empty_batch_rejected(self, epoch):
        with pytest.raises(ValueError):
            BatchPropagator([], epoch)

    def test_accessors(self, mixed_elements, epoch):
        batch = BatchPropagator(mixed_elements, epoch)
        assert batch.satellite_count == len(mixed_elements)
        assert batch.epoch == epoch
        assert batch.elements == mixed_elements


class TestSamplePositionsUsesBatch:
    def test_matches_scalar_trajectory(self, epoch):
        elements = OrbitalElements(
            semi_major_axis_km=7100.0,
            eccentricity=0.02,
            inclination_rad=1.2,
            raan_rad=0.7,
            arg_perigee_rad=1.5,
            true_anomaly_rad=2.2,
        )
        times, positions = sample_positions_eci(elements, epoch, 5400.0, 60.0)
        propagator = J2Propagator(elements, epoch)
        assert times.shape[0] == positions.shape[0] == 91
        # The scalar path roundtrips elapsed seconds through Julian-date
        # epochs, which quantise time at ~5e-5 s (sub-metre positions); the
        # batch sampler works from exact second offsets, so the comparison
        # tolerance is the epoch quantisation, not the 1e-9 km engine bound.
        for index, t in enumerate(times):
            reference = propagator.propagate(float(t)).position_km
            assert np.max(np.abs(positions[index] - reference)) < 1e-3


class TestVectorisedKepler:
    def test_solve_kepler_array_matches_scalar(self):
        means = np.linspace(-10.0, 40.0, 23)
        for eccentricity in (0.0, 0.01, 0.3, 0.9):
            solved = solve_kepler(means, eccentricity)
            reference = np.array([solve_kepler(float(m), eccentricity) for m in means])
            assert np.max(np.abs(solved - reference)) < 1e-12

    def test_mean_to_true_array_broadcast(self):
        means = np.array([[0.5, 1.5, 2.5], [3.5, 4.5, 5.5]])
        eccentricities = np.array([0.0, 0.1, 0.2])
        true = mean_to_true_anomaly(means, eccentricities)
        assert true.shape == means.shape
        for row in range(means.shape[0]):
            for col in range(means.shape[1]):
                reference = mean_to_true_anomaly(
                    float(means[row, col]), float(eccentricities[col])
                )
                assert true[row, col] == pytest.approx(reference, abs=1e-12)

    def test_roundtrip_arrays(self):
        true = np.linspace(0.0, 2.0 * math.pi, 17)
        eccentricity = 0.2
        mean = true_to_mean_anomaly(true, eccentricity)
        back = mean_to_true_anomaly(mean, eccentricity)
        assert np.max(np.abs(back - true)) < 1e-10

    def test_scalar_returns_float(self):
        assert isinstance(solve_kepler(1.0, 0.1), float)
        assert isinstance(mean_to_true_anomaly(1.0, 0.1), float)
        assert isinstance(eccentric_to_true_anomaly(1.0, 0.1), float)

    def test_invalid_eccentricity_rejected(self):
        with pytest.raises(ValueError):
            solve_kepler(1.0, 1.0)
        with pytest.raises(ValueError):
            solve_kepler(np.array([0.5, 1.0]), np.array([0.1, -0.2]))


class TestVectorisedFrames:
    def test_eci_to_ecef_epoch_array(self, epoch):
        epochs = [epoch.add_seconds(t) for t in (0.0, 900.0, 43200.0)]
        positions = np.array(
            [
                [[7000.0, 0.0, 0.0], [0.0, 7000.0, 100.0]],
                [[6900.0, 500.0, -100.0], [100.0, -6900.0, 0.0]],
                [[1.0, 2.0, 3.0], [-4.0, 5.0, -6.0]],
            ]
        )
        jds = np.array([e.jd for e in epochs])
        rotated = eci_to_ecef(positions, jds)
        assert rotated.shape == positions.shape
        for step, at in enumerate(epochs):
            for sat in range(positions.shape[1]):
                reference = eci_to_ecef(positions[step, sat], at)
                assert np.max(np.abs(rotated[step, sat] - reference)) < 1e-12

    def test_gmst_rad_array(self, epoch):
        jds = np.array([epoch.jd, epoch.jd + 0.25, epoch.jd + 1.0])
        angles = gmst_rad(jds)
        assert angles.shape == (3,)
        for index, jd in enumerate(jds):
            assert angles[index] == pytest.approx(gmst_rad(float(jd)), abs=1e-15)

    def test_mismatched_epoch_axis_rejected(self, epoch):
        positions = np.zeros((4, 2, 3))
        jds = np.array([epoch.jd, epoch.jd + 0.1])
        with pytest.raises(ValueError):
            eci_to_ecef(positions, jds)


class TestStepCount:
    def test_exact_division(self):
        assert step_count(1.0, 0.1) == 10
        assert step_count(24.0, 0.1) == 240
        assert step_count(300.0, 60.0) == 5

    def test_non_divisible_rounds_up(self):
        assert step_count(250.0, 60.0) == 5
        assert step_count(0.5, 1.0) == 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            step_count(0.0, 1.0)
        with pytest.raises(ValueError):
            step_count(1.0, 0.0)
