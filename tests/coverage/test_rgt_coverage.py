"""Tests of repeat-ground-track coverage analysis (Figure 1 machinery)."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from repro.constants import EARTH_RADIUS_KM
from repro.coverage.rgt_coverage import (
    RGTTrain,
    analytic_satellites_for_track_coverage,
    ground_track_rate_rad_s,
    provides_uniform_coverage,
    required_street_half_width_rad,
    satellites_to_cover_track,
    swath_sample_points,
    train_covers_region,
)
from repro.coverage.walker import minimum_walker_for_coverage
from repro.orbits.repeat_ground_track import enumerate_leo_repeat_ground_tracks


@pytest.fixture(scope="module")
def tracks():
    return enumerate_leo_repeat_ground_tracks(65.0, 400.0, 2000.0)


class TestRGTTrain:
    def test_elements_share_track_geometry(self, tracks):
        train = RGTTrain(track=tracks[0], count=8)
        elements = train.satellite_elements()
        assert len(elements) == 8
        assert all(e.altitude_km == pytest.approx(tracks[0].altitude_km) for e in elements)

    def test_positions_radius(self, tracks):
        train = RGTTrain(track=tracks[0], count=5)
        positions = train.positions_eci(0.3)
        radii = np.linalg.norm(positions, axis=1)
        np.testing.assert_allclose(radii, EARTH_RADIUS_KM + tracks[0].altitude_km)

    def test_count_validation(self, tracks):
        with pytest.raises(ValueError):
            RGTTrain(track=tracks[0], count=0)

    def test_raan_offsets_cancel_earth_rotation(self, tracks):
        # Successive satellites are staggered in RAAN by days/count of a turn.
        track = tracks[0]
        train = RGTTrain(track=track, count=10)
        raan, _ = train.raan_and_phase_rad()
        delta = (raan[0] - raan[1]) % (2.0 * math.pi)
        assert delta == pytest.approx(2.0 * math.pi * track.days / 10, abs=1e-9)


class TestTrackRates:
    def test_ground_track_rate_below_orbital_rate(self, tracks):
        for track in tracks:
            orbital_rate = track.elements.mean_motion_rad_s
            assert 0.8 * orbital_rate < ground_track_rate_rad_s(track) < orbital_rate

    def test_analytic_lower_bound_scales_with_revolutions(self, tracks):
        counts = {t.revolutions: analytic_satellites_for_track_coverage(t) for t in tracks}
        assert counts[15] > counts[12]


class TestSizing:
    def test_uniform_classification(self, tracks):
        flags = {t.revolutions: provides_uniform_coverage(t) for t in tracks}
        # Only the lowest-altitude LEO repeat tracks fail to merge into
        # uniform coverage (Section 2.2: "only three of the possible RGTs").
        assert flags[15] is False
        assert flags[12] is True and flags[13] is True

    def test_street_width_capped_by_footprint(self, tracks):
        for track in tracks:
            street = required_street_half_width_rad(track)
            from repro.coverage.footprint import coverage_half_angle_rad

            assert street <= 0.95 * coverage_half_angle_rad(track.altitude_km, 25.0) + 1e-12

    def test_rgt_needs_more_than_walker(self, tracks):
        # The paper's headline point for Figure 1: covering even a single RGT
        # requires more satellites than a minimal uniform-coverage Walker.
        track = next(t for t in tracks if t.revolutions == 13)
        rgt_count = satellites_to_cover_track(track)
        walker = minimum_walker_for_coverage(
            track.altitude_km, 65.0, 25.0, grid_step_deg=6.0, time_samples=5
        )
        assert rgt_count > walker.total_satellites

    def test_count_monotone_with_swath_fraction(self, tracks):
        track = next(t for t in tracks if t.revolutions == 15)
        assert satellites_to_cover_track(track, swath_fraction=0.9) <= satellites_to_cover_track(
            track, swath_fraction=0.97
        )

    def test_invalid_swath_fraction(self, tracks):
        with pytest.raises(ValueError):
            required_street_half_width_rad(tracks[0], swath_fraction=1.5)


class TestSimulationCheck:
    def test_sized_train_covers_its_street(self, tracks):
        # The analytic sizing should pass the independent simulation check.
        track = next(t for t in tracks if t.revolutions == 12)
        count = satellites_to_cover_track(track)
        train = RGTTrain(track=track, count=count)
        assert train_covers_region(
            train, grid_step_deg=6.0, samples_per_rev=60, time_samples=4
        )

    def test_severely_undersized_train_fails(self, tracks):
        track = next(t for t in tracks if t.revolutions == 12)
        train = RGTTrain(track=track, count=12)
        assert not train_covers_region(
            train, grid_step_deg=6.0, samples_per_rev=60, time_samples=4
        )

    def test_swath_points_near_track(self, tracks):
        track = next(t for t in tracks if t.revolutions == 15)
        points = swath_sample_points(track, grid_step_deg=6.0, samples_per_rev=45)
        assert points.shape[1] == 3
        # The 15:1 track does not cover the whole globe, so the swath is a
        # strict subset of the full grid.
        assert 0 < points.shape[0] < (180 // 6) * (360 // 6)

    def test_one_degree_check_memory_is_bounded(self, tracks):
        # 64,800 grid points against 1,080 track samples: the whole product
        # is 560 MB, and the check traced 774 MB before it was formed one
        # block of rows at a time.
        track = next(t for t in tracks if t.revolutions == 12)
        train = RGTTrain(track=track, count=satellites_to_cover_track(track))
        tracemalloc.start()
        try:
            covered = train_covers_region(train, grid_step_deg=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert covered
        assert peak < 50e6


class TestVacuousChecksRejected:
    """Settings under which an RGT check would test nothing raise ValueError."""

    @pytest.mark.parametrize(
        "settings, match",
        [
            (
                {"street_half_width_rad": 1e-6},
                r"street_half_width_rad=1e-06 holds no test grid point at grid_step_deg=4.0",
            ),
            (
                {"street_half_width_rad": -0.1},
                "street_half_width_rad must be finite and positive, got -0.1",
            ),
            ({"grid_step_deg": -4.0}, "grid_step_deg must be finite and positive, got -4.0"),
            ({"grid_step_deg": 0.0}, "grid_step_deg must be finite and positive, got 0.0"),
            ({"time_samples": 0}, "time_samples must be at least 1, got 0"),
            ({"samples_per_rev": 0}, "samples_per_rev must be at least 1, got 0"),
        ],
    )
    def test_train_check(self, tracks, settings, match):
        # Each of these used to return True, even for a 1-satellite train
        # (a zero grid step raised a bare ZeroDivisionError).  The 13:1 track
        # passes no 4-degree grid point within 1e-6 rad.
        train = RGTTrain(track=next(t for t in tracks if t.revolutions == 13), count=1)
        with pytest.raises(ValueError, match=match):
            train_covers_region(train, **settings)

    @pytest.mark.parametrize(
        "settings, match",
        [
            ({"grid_step_deg": -1.0}, "grid_step_deg must be finite and positive, got -1.0"),
            ({"samples_per_rev": 0}, "samples_per_rev must be at least 1, got 0"),
        ],
    )
    def test_swath_points(self, tracks, settings, match):
        # A negative grid step used to return no point at all.
        with pytest.raises(ValueError, match=match):
            swath_sample_points(tracks[0], **settings)
