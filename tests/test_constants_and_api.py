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

    @staticmethod
    def run_fresh(code: str) -> None:
        """Run ``code`` in a fresh interpreter with this checkout's ``src`` first."""
        source = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr

    def test_library_imports_without_networkx(self):
        """networkx is a test dependency only: a fresh interpreter importing
        the network layer, the simulator, the design core and the analysis
        layer must not load it."""
        self.run_fresh(
            "import sys\n"
            "import repro.network, repro.network.simulation, repro.core, repro.analysis\n"
            "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
        )

    def test_library_imports_without_scipy_optimize(self):
        """scipy.optimize (~0.6 s to import) serves only the altitude solvers,
        which import it when called: importing the library loads none of it,
        nor the csgraph routing engine."""
        self.run_fresh(
            "import sys\n"
            "import repro.network, repro.network.simulation, repro.core, repro.orbits\n"
            "import repro.analysis\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
            "assert 'scipy.sparse.csgraph' not in sys.modules, 'csgraph was imported'\n"
        )

    def test_simulator_loads_csgraph_before_the_first_route(self):
        """Building a NetworkSimulator loads csgraph, so a run that follows
        imports no scipy module inside its timed stages."""
        self.run_fresh(
            "import sys\n"
            "from repro.coverage.walker import WalkerDelta\n"
            "from repro.demand.traffic_matrix import City, GravityTrafficModel\n"
            "from repro.network.ground_station import GroundStation\n"
            "from repro.network.simulation import NetworkSimulator, Scenario\n"
            "from repro.network.topology import ConstellationTopology\n"
            "from repro.orbits.time import Epoch\n"
            "cities = (City('London', 51.5, -0.1, 9.6), City('New York', 40.7, -74.0, 20.0),\n"
            "          City('Tokyo', 35.7, 139.7, 37.0))\n"
            "walker = WalkerDelta(altitude_km=560.0, inclination_deg=65.0,\n"
            "                     total_satellites=60, planes=5, phasing=1)\n"
            "elements = walker.satellite_elements()\n"
            "epoch = Epoch.from_calendar(2025, 3, 20, 12, 0, 0.0)\n"
            "topology = ConstellationTopology(\n"
            "    planes=[elements[i * 12:(i + 1) * 12] for i in range(5)], epoch=epoch)\n"
            "assert 'scipy.sparse.csgraph' not in sys.modules, 'csgraph loaded too early'\n"
            "simulator = NetworkSimulator(\n"
            "    topology=topology,\n"
            "    ground_stations=[GroundStation(c.name, c.latitude_deg, c.longitude_deg)\n"
            "                     for c in cities],\n"
            "    traffic_model=GravityTrafficModel(cities=cities, total_demand=30.0),\n"
            "    flows_per_step=6)\n"
            "assert 'scipy.sparse.csgraph' in sys.modules, 'csgraph not loaded'\n"
            "loaded = {name for name in sys.modules if name.startswith('scipy')}\n"
            "results = simulator.run_scenarios(\n"
            "    [Scenario(name='plain'),\n"
            "     Scenario(name='steered', allocator='max_min_array',\n"
            "              steering='congestion-aware')], epoch, 2.0)\n"
            "assert all(step.offered_gbps > 0 for result in results.values()\n"
            "           for step in result.steps)\n"
            "added = {name for name in sys.modules if name.startswith('scipy')} - loaded\n"
            "assert not added, f'the run imported {sorted(added)}'\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
        )

    def test_altitude_solvers_import_brentq_when_called(self):
        """The sun-synchronous and repeat-ground-track altitude solvers import
        brentq on their first call and still return the same altitudes."""
        self.run_fresh(
            "import math, sys\n"
            "from repro.orbits.sunsync import sun_synchronous_altitude_km\n"
            "from repro.orbits.repeat_ground_track import repeat_ground_track_altitude_km\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
            "altitude = sun_synchronous_altitude_km(math.radians(97.8))\n"
            "assert abs(altitude - 603.1354481344107) < 1e-6, altitude\n"
            "altitude = repeat_ground_track_altitude_km(15, 1, 97.0)\n"
            "assert abs(altitude - 559.8763550683243) < 1e-6, altitude\n"
            "assert 'scipy.optimize' in sys.modules\n"
        )

    def test_design_leaves_numpy_ma_unimported(self):
        """``np.median`` imports ``numpy.ma`` on its first call (~15 ms
        cold); the design path takes its medians (fluences, the diurnal
        normalisation) without it, so no import lands in a timed design."""
        self.run_fresh(
            "import sys\n"
            "from repro.core.designer import ConstellationDesigner\n"
            "ConstellationDesigner().design_both(10.0)\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
        )

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


def _value_type_instances() -> dict:
    """One small instance of each array- or dict-carrying value type."""
    import numpy as np

    from repro.analysis.grid import GridDocument
    from repro.coverage.grid import LatLocalTimeGrid, LatLonGrid
    from repro.demand.traffic_matrix import City, TrafficMatrix
    from repro.network.scheduler import ScheduleResult
    from repro.orbits.groundtrack import GroundTrack

    return {
        "GroundTrack": GroundTrack(
            elapsed_s=np.array([0.0, 30.0]),
            latitudes_rad=np.array([0.0, 0.01]),
            longitudes_rad=np.array([0.0, 0.02]),
            altitudes_km=np.array([560.0, 560.0]),
        ),
        "LatLonGrid": LatLonGrid(resolution_deg=30.0),
        "LatLocalTimeGrid": LatLocalTimeGrid(
            lat_resolution_deg=30.0, time_resolution_hours=6.0
        ),
        "TrafficMatrix": TrafficMatrix(
            cities=(City("A", 0.0, 0.0, 1.0), City("B", 10.0, 10.0, 2.0)),
            demands=np.array([[0.0, 1.0], [1.0, 0.0]]),
        ),
        "ScheduleResult": ScheduleResult(
            served=np.ones(3),
            deferred=np.zeros(3),
            dropped=0.0,
            peak_before=1.0,
            peak_after=1.0,
        ),
        "GridDocument": GridDocument(
            designs=("walker",),
            scenarios=("base",),
            start_jd=2451545.0,
            duration_hours=1.0,
            step_hours=1.0,
            cells={},
            summaries={},
        ),
    }


class TestValueTypeEquality:
    """Array- and dict-carrying value types compare and hash by identity."""

    @pytest.mark.parametrize(
        "name",
        [
            "GroundTrack",
            "LatLonGrid",
            "LatLocalTimeGrid",
            "TrafficMatrix",
            "ScheduleResult",
            "GridDocument",
        ],
    )
    def test_identity_equality_and_hash(self, name):
        import copy

        value = _value_type_instances()[name]
        assert value == value
        assert (value == copy.deepcopy(value)) is False
        assert isinstance(hash(value), int)
        assert value in {value}
