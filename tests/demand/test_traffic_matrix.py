"""Tests of the gravity traffic-matrix generator."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.coverage.grid import LatLonGrid
from repro.demand.diurnal import DiurnalProfile
from repro.demand.traffic_matrix import City, GravityTrafficModel, TrafficMatrix
from repro.network.flows import plan_flows


def largest_flows(matrix: TrafficMatrix, count: int) -> list[tuple[str, str, float]]:
    """The ``count`` largest ``(source, destination, demand)`` flows of ``matrix``."""
    names = tuple(city.name for city in matrix.cities)
    table = plan_flows(matrix, names, count).table
    return [
        (names[src], names[dst], demand)
        for src, dst, demand in zip(
            table.src.tolist(), table.dst.tolist(), table.demand.tolist()
        )
    ]


def per_city_weights(model: GravityTrafficModel, utc_hour: float) -> np.ndarray:
    """The per-city loop ``weights_at`` replaced, kept as its oracle.

    One scalar local time per city, and for each city a freshly computed
    median of the interpolated table over 1,440 one-minute samples, exactly
    as the loop did before the normalisation was cached.
    """
    table = model.profile.hourly_percent
    table_hours = np.arange(25, dtype=float)
    table_values = np.asarray(table + (table[0],))
    samples = np.linspace(0.0, 24.0, 1440, endpoint=False)
    weights = np.empty(len(model.cities))
    for index, city in enumerate(model.cities):
        local_time = (utc_hour + city.longitude_deg / 15.0) % 24.0
        hours = np.mod(np.asarray(local_time, dtype=float), 24.0)
        median = float(np.median(np.interp(samples, table_hours, table_values)))
        fraction = float(np.interp(hours, table_hours, table_values) / median)
        weights[index] = city.weight * fraction
    return weights


def gravity_oracle(model: GravityTrafficModel, utc_hour: float) -> np.ndarray:
    """The gravity matrix built from :func:`per_city_weights`."""
    weights = per_city_weights(model, utc_hour)
    demands = np.outer(weights, weights) / weights.sum()
    np.fill_diagonal(demands, 0.0)
    demands *= model.total_demand / demands.sum()
    return demands


def edge_cities(count: int = 40, seed: int = 3) -> tuple[City, ...]:
    """Cities at longitudes -180, 0 and +180 plus seeded ones in between."""
    rng = np.random.default_rng(seed)
    longitudes = np.concatenate([[-180.0, 0.0, 180.0], rng.uniform(-180.0, 180.0, count)])
    weights = rng.pareto(1.5, size=longitudes.size) + 1.0
    return tuple(
        City(f"C{i:02d}", 0.0, float(longitude), float(weight))
        for i, (longitude, weight) in enumerate(zip(longitudes, weights))
    )


class TestTrafficMatrix:
    def test_shape_validation(self):
        cities = (City("a", 0.0, 0.0, 1.0), City("b", 10.0, 10.0, 2.0))
        with pytest.raises(ValueError):
            TrafficMatrix(cities=cities, demands=np.zeros((3, 3)))

    def test_negative_rejected(self):
        cities = (City("a", 0.0, 0.0, 1.0), City("b", 10.0, 10.0, 2.0))
        with pytest.raises(ValueError):
            TrafficMatrix(cities=cities, demands=np.array([[0.0, -1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, value):
        cities = (City("a", 0.0, 0.0, 1.0), City("b", 10.0, 10.0, 2.0))
        demands = np.array([[0.0, 1.0], [value, 0.0]])
        with pytest.raises(ValueError, match=rf"demands\[1, 0\] must be finite, got {value!r}"):
            TrafficMatrix(cities=cities, demands=demands)

    def test_largest_flows_are_selected_first(self):
        cities = (
            City("a", 0.0, 0.0, 1.0),
            City("b", 10.0, 10.0, 2.0),
            City("c", 20.0, 20.0, 3.0),
        )
        demands = np.array([[0.0, 5.0, 1.0], [2.0, 0.0, 7.0], [0.5, 0.2, 0.0]])
        matrix = TrafficMatrix(cities=cities, demands=demands)
        assert largest_flows(matrix, 2) == [("b", "c", 7.0), ("a", "b", 5.0)]

    def test_entry_arrays_export_in_row_major_order(self):
        cities = tuple(City(name, 0.0, 0.0, 1.0) for name in ("x", "y", "z"))
        demands = np.array([[9.0, 1.0, 0.0], [2.0, 9.0, 3.0], [0.0, 4.0, 9.0]])
        matrix = TrafficMatrix(cities=cities, demands=demands)
        src, dst, demand = matrix.entry_arrays()
        assert (src.dtype, dst.dtype, demand.dtype) == (np.int64, np.int64, np.float64)
        assert list(zip(src.tolist(), dst.tolist(), demand.tolist())) == [
            (0, 1, 1.0),
            (1, 0, 2.0),
            (1, 2, 3.0),
            (2, 1, 4.0),
        ]
        # A subset in another order is gathered; absent names get no entries.
        src, dst, demand = matrix.entry_arrays(("z", "w", "y"))
        assert list(zip(src.tolist(), dst.tolist(), demand.tolist())) == [
            (0, 2, 4.0),
            (2, 0, 3.0),
        ]

    def test_entry_arrays_rejects_repeated_names(self):
        # Without the check, ('x', 'x', 'y') exported x's diagonal demand as
        # a flow from id 0 to id 1.
        cities = tuple(City(name, 0.0, 0.0, 1.0) for name in ("x", "y"))
        matrix = TrafficMatrix(cities=cities, demands=np.array([[4.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError, match="'x' is repeated"):
            matrix.entry_arrays(("x", "x", "y"))


class TestGravityModel:
    @pytest.fixture(scope="class")
    def model(self):
        return GravityTrafficModel(total_demand=100.0)

    def test_total_demand_normalised(self, model):
        matrix = model.matrix_at(12.0)
        assert matrix.total_demand() == pytest.approx(100.0)

    def test_diagonal_zero(self, model):
        matrix = model.matrix_at(0.0)
        assert np.all(np.diag(matrix.demands) == 0.0)

    def test_large_cities_exchange_most_traffic(self, model):
        matrix = model.matrix_at(12.0)
        flows = largest_flows(matrix, 10)
        names = {flow[0] for flow in flows} | {flow[1] for flow in flows}
        # The biggest flows involve the biggest metros.
        assert names & {"Tokyo", "Delhi", "Shanghai", "Sao Paulo", "Mexico City"}

    def test_weights_follow_local_time(self, model):
        # Tokyo (UTC+9) is in its evening peak around 11:00-12:00 UTC and in
        # the middle of the night around 18:00-19:00 UTC.
        weights_evening = model.weights_at(11.5)
        weights_night = model.weights_at(18.5)
        tokyo = next(i for i, c in enumerate(model.cities) if c.name == "Tokyo")
        assert weights_evening[tokyo] > weights_night[tokyo]

    def test_offered_load_grid(self, model):
        grid = LatLonGrid(resolution_deg=5.0)
        loaded = model.offered_load_by_latitude(12.0, grid)
        assert loaded.total() == pytest.approx(100.0, rel=1e-6)
        # The original grid is untouched.
        assert grid.total() == 0.0


class TestVectorisedWeights:
    """``weights_at`` is one array pass, bit-identical to the per-city loop."""

    HOURS = [*np.arange(0.0, 24.0, 0.25), 23.999999, 1.0 / 3.0, 17.123456789]

    @pytest.fixture(scope="class", params=["edge", "metro"])
    def model(self, request):
        if request.param == "edge":
            return GravityTrafficModel(cities=edge_cities(), total_demand=4000.0)
        return GravityTrafficModel(total_demand=100.0)

    def test_weights_match_per_city_loop(self, model):
        for hour in self.HOURS:
            assert np.array_equal(model.weights_at(hour), per_city_weights(model, hour)), hour

    def test_matrix_matches_per_city_loop(self, model):
        for hour in self.HOURS:
            assert np.array_equal(model.matrix_at(hour).demands, gravity_oracle(model, hour)), hour

    def test_custom_profile_matches_per_city_loop(self):
        table = tuple(float(value) for value in np.linspace(20.0, 300.0, 24) ** 1.1)
        model = GravityTrafficModel(cities=edge_cities(), profile=DiurnalProfile(table))
        for hour in self.HOURS:
            assert np.array_equal(model.weights_at(hour), per_city_weights(model, hour)), hour


class TestGravityValidation:
    """Bad inputs fail at the boundary, naming the parameter and the value."""

    CITIES = (City("a", 0.0, 0.0, 1.0), City("b", 10.0, 10.0, 2.0))

    def test_one_city_rejected(self):
        with pytest.raises(ValueError, match="at least 2 cities, got 1"):
            GravityTrafficModel(cities=self.CITIES[:1])

    @pytest.mark.parametrize("total", [math.nan, math.inf])
    def test_non_finite_total_demand_rejected(self, total):
        with pytest.raises(ValueError, match=f"total_demand .* got {total!r}"):
            GravityTrafficModel(cities=self.CITIES, total_demand=total)

    def test_negative_total_demand_rejected(self):
        with pytest.raises(ValueError, match="total_demand .* got -5.0"):
            GravityTrafficModel(cities=self.CITIES, total_demand=-5.0)

    def test_nan_weight_rejected(self):
        cities = (self.CITIES[0], City("b", 10.0, 10.0, math.nan))
        with pytest.raises(ValueError, match="city 'b' weight .* got nan"):
            GravityTrafficModel(cities=cities)

    def test_negative_weight_rejected(self):
        cities = (self.CITIES[0], City("b", 10.0, 10.0, -2.0))
        with pytest.raises(ValueError, match="city 'b' weight .* got -2.0"):
            GravityTrafficModel(cities=cities)

    @pytest.mark.parametrize("hour", [math.nan, math.inf, -math.inf])
    def test_non_finite_hour_rejected(self, hour):
        model = GravityTrafficModel(cities=self.CITIES)
        with pytest.raises(ValueError, match=f"utc_hour must be finite, got {hour!r}"):
            model.matrix_at(hour)

    def test_zero_total_demand_is_a_zero_matrix(self):
        matrix = GravityTrafficModel(cities=self.CITIES, total_demand=0.0).matrix_at(6.0)
        assert np.array_equal(matrix.demands, np.zeros((2, 2)))
