"""Package-level tests: constants, public API surface, cross-module consistency."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import constants


class TestConstants:
    def test_earth_radius(self):
        assert constants.EARTH_RADIUS_KM == pytest.approx(6378.137)

    def test_rotation_rate_consistent_with_sidereal_day(self):
        assert constants.EARTH_ROTATION_RATE * constants.SIDEREAL_DAY_S == pytest.approx(
            2.0 * math.pi
        )

    def test_sun_sync_rate_is_one_turn_per_tropical_year(self):
        seconds_per_year = constants.TROPICAL_YEAR_DAYS * constants.SOLAR_DAY_S
        assert constants.SUN_SYNC_PRECESSION_RATE * seconds_per_year == pytest.approx(
            2.0 * math.pi
        )
        # ~0.9856 degrees per day eastward.
        per_day_deg = math.degrees(constants.SUN_SYNC_PRECESSION_RATE) * constants.SOLAR_DAY_S
        assert per_day_deg == pytest.approx(0.9856, abs=1e-3)

    def test_orbital_radius_helpers(self):
        assert constants.orbital_radius_km(560.0) == pytest.approx(6938.137)
        assert constants.altitude_km(constants.orbital_radius_km(560.0)) == pytest.approx(560.0)

    def test_degree_radian_helpers(self):
        assert constants.DEG_PER_RAD * constants.RAD_PER_DEG == pytest.approx(1.0)


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_top_level_exports(self):
        for name in ("Epoch", "OrbitalElements", "SunSynchronousOrbit", "WalkerDelta",
                     "Footprint", "LatLonGrid", "LatLocalTimeGrid"):
            assert hasattr(repro, name)

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.core
        import repro.coverage
        import repro.demand
        import repro.network
        import repro.orbits
        import repro.radiation

        for module in (
            repro.analysis,
            repro.core,
            repro.coverage,
            repro.demand,
            repro.network,
            repro.orbits,
            repro.radiation,
        ):
            assert module.__doc__
            assert hasattr(module, "__all__")

    def test_library_imports_without_networkx(self):
        """networkx is a test dependency only: a fresh interpreter importing
        the network layer, the simulator, the design core and the analysis
        layer must not load it."""
        source = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
        code = (
            "import sys\n"
            "import repro.network, repro.network.simulation, repro.core, repro.analysis\n"
            "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr

    def test_all_exports_resolve(self):
        import repro.core as core
        import repro.network as network
        import repro.orbits as orbits

        for module in (core, network, orbits):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name} missing"


class TestCrossModuleConsistency:
    def test_ssplane_uses_sun_synchronous_inclination(self):
        from repro.core.ssplane import SSPlane
        from repro.orbits.sunsync import sun_synchronous_inclination_deg

        plane = SSPlane(altitude_km=700.0, ltan_hours=13.0, satellite_count=20)
        assert plane.inclination_deg == pytest.approx(sun_synchronous_inclination_deg(700.0))

    def test_designer_demand_peak_matches_model(self):
        from repro.core.designer import ConstellationDesigner
        from repro.demand.population import synthetic_population_grid
        from repro.demand.spatiotemporal import SpatiotemporalDemandModel

        designer = ConstellationDesigner(
            demand_model=SpatiotemporalDemandModel(
                population=synthetic_population_grid(resolution_deg=2.0)
            ),
            lat_resolution_deg=6.0,
            time_resolution_hours=3.0,
        )
        assert designer.demand_grid(7.0).values.max() == pytest.approx(7.0)
