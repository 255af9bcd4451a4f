"""Synthetic gridded world population density.

The paper uses the SEDAC Gridded World Population (v4.11) 0.5-degree grid to
capture the spatial structure of Internet demand (its Figure 3).  That data
product cannot be redistributed here, so this module builds a synthetic
substitute with the same structural properties:

* population is concentrated in a few hundred metropolitan clusters at
  intermediate (mostly Northern) latitudes,
* the maximum density per latitude band peaks at a few thousand people per
  square kilometre around 20-40 degrees North and collapses towards the poles
  and over the oceans,
* a low-density rural background follows the latitudinal distribution of
  habitable land.

The metro catalogue below lists approximate centre coordinates and
metropolitan-area populations (in millions) of the world's major urban
agglomerations; values are round numbers adequate for a 0.5-degree grid.
Each metro is spread over the grid with a Gaussian kernel whose width grows
slowly with population, mimicking the extent of large urban agglomerations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..coverage.grid import LatLonGrid
from ..numerics import _PAIRWISE_CHUNK, _pairwise_sum

__all__ = ["MetroArea", "METRO_AREAS", "PopulationModel", "synthetic_population_grid"]


@dataclass(frozen=True)
class MetroArea:
    """A metropolitan area used to build the synthetic population grid."""

    name: str
    latitude_deg: float
    longitude_deg: float
    population_millions: float


#: Major metropolitan areas (approximate coordinates, metro population in millions).
METRO_AREAS: tuple[MetroArea, ...] = tuple(
    MetroArea(name, lat, lon, pop)
    for name, lat, lon, pop in [
        # East Asia
        ("Tokyo", 35.7, 139.7, 37.0),
        ("Osaka", 34.7, 135.5, 19.0),
        ("Nagoya", 35.2, 136.9, 9.5),
        ("Seoul", 37.6, 127.0, 25.0),
        ("Busan", 35.2, 129.1, 7.5),
        ("Pyongyang", 39.0, 125.8, 3.0),
        ("Beijing", 39.9, 116.4, 21.0),
        ("Tianjin", 39.1, 117.2, 14.0),
        ("Shanghai", 31.2, 121.5, 27.0),
        ("Hangzhou", 30.3, 120.2, 10.0),
        ("Nanjing", 32.1, 118.8, 9.0),
        ("Suzhou", 31.3, 120.6, 7.0),
        ("Guangzhou", 23.1, 113.3, 14.0),
        ("Shenzhen", 22.5, 114.1, 13.0),
        ("Dongguan", 23.0, 113.7, 8.0),
        ("Hong Kong", 22.3, 114.2, 7.5),
        ("Chengdu", 30.7, 104.1, 16.0),
        ("Chongqing", 29.6, 106.5, 16.0),
        ("Wuhan", 30.6, 114.3, 11.0),
        ("Xian", 34.3, 108.9, 9.0),
        ("Zhengzhou", 34.7, 113.6, 8.0),
        ("Shenyang", 41.8, 123.4, 7.5),
        ("Harbin", 45.8, 126.5, 6.0),
        ("Qingdao", 36.1, 120.4, 7.0),
        ("Jinan", 36.7, 117.0, 6.0),
        ("Changsha", 28.2, 112.9, 6.0),
        ("Kunming", 25.0, 102.7, 5.0),
        ("Taipei", 25.0, 121.5, 7.0),
        ("Ulaanbaatar", 47.9, 106.9, 1.6),
        # South and Southeast Asia
        ("Delhi", 28.6, 77.2, 32.0),
        ("Mumbai", 19.1, 72.9, 21.0),
        ("Kolkata", 22.6, 88.4, 15.0),
        ("Chennai", 13.1, 80.3, 11.0),
        ("Bangalore", 13.0, 77.6, 13.0),
        ("Hyderabad", 17.4, 78.5, 10.0),
        ("Ahmedabad", 23.0, 72.6, 8.0),
        ("Pune", 18.5, 73.9, 7.0),
        ("Surat", 21.2, 72.8, 7.5),
        ("Jaipur", 26.9, 75.8, 4.0),
        ("Lucknow", 26.8, 80.9, 3.7),
        ("Kanpur", 26.4, 80.3, 3.2),
        ("Nagpur", 21.1, 79.1, 3.0),
        ("Patna", 25.6, 85.1, 2.5),
        ("Karachi", 24.9, 67.0, 17.0),
        ("Lahore", 31.5, 74.3, 13.0),
        ("Islamabad", 33.7, 73.0, 4.0),
        ("Faisalabad", 31.4, 73.1, 3.6),
        ("Dhaka", 23.8, 90.4, 22.0),
        ("Chittagong", 22.4, 91.8, 5.0),
        ("Colombo", 6.9, 79.9, 3.0),
        ("Kathmandu", 27.7, 85.3, 3.0),
        ("Yangon", 16.8, 96.2, 5.5),
        ("Bangkok", 13.8, 100.5, 11.0),
        ("Ho Chi Minh City", 10.8, 106.7, 9.0),
        ("Hanoi", 21.0, 105.8, 8.0),
        ("Phnom Penh", 11.6, 104.9, 2.3),
        ("Kuala Lumpur", 3.1, 101.7, 8.0),
        ("Singapore", 1.3, 103.8, 6.0),
        ("Jakarta", -6.2, 106.8, 11.0),
        ("Bandung", -6.9, 107.6, 7.0),
        ("Surabaya", -7.3, 112.7, 6.5),
        ("Medan", 3.6, 98.7, 2.5),
        ("Manila", 14.6, 121.0, 14.0),
        ("Cebu", 10.3, 123.9, 3.0),
        # Middle East and Central Asia
        ("Istanbul", 41.0, 29.0, 15.5),
        ("Ankara", 39.9, 32.9, 5.7),
        ("Izmir", 38.4, 27.1, 3.0),
        ("Tehran", 35.7, 51.4, 9.5),
        ("Mashhad", 36.3, 59.6, 3.3),
        ("Baghdad", 33.3, 44.4, 7.5),
        ("Riyadh", 24.7, 46.7, 7.7),
        ("Jeddah", 21.5, 39.2, 4.8),
        ("Dubai", 25.2, 55.3, 3.5),
        ("Abu Dhabi", 24.5, 54.4, 1.5),
        ("Doha", 25.3, 51.5, 2.4),
        ("Kuwait City", 29.4, 48.0, 3.2),
        ("Muscat", 23.6, 58.4, 1.7),
        ("Tel Aviv", 32.1, 34.8, 4.4),
        ("Amman", 31.9, 35.9, 2.2),
        ("Beirut", 33.9, 35.5, 2.4),
        ("Damascus", 33.5, 36.3, 2.5),
        ("Tashkent", 41.3, 69.2, 2.9),
        ("Almaty", 43.2, 76.9, 2.0),
        ("Kabul", 34.5, 69.2, 4.6),
        ("Baku", 40.4, 49.9, 2.4),
        ("Tbilisi", 41.7, 44.8, 1.2),
        ("Yerevan", 40.2, 44.5, 1.1),
        # Europe
        ("Moscow", 55.8, 37.6, 12.5),
        ("Saint Petersburg", 59.9, 30.3, 5.4),
        ("Kyiv", 50.5, 30.5, 3.0),
        ("Kharkiv", 50.0, 36.2, 1.4),
        ("Minsk", 53.9, 27.6, 2.0),
        ("Warsaw", 52.2, 21.0, 3.1),
        ("Krakow", 50.1, 19.9, 1.4),
        ("Prague", 50.1, 14.4, 2.7),
        ("Brno", 49.2, 16.6, 0.7),
        ("Vienna", 48.2, 16.4, 2.9),
        ("Budapest", 47.5, 19.0, 3.0),
        ("Bucharest", 44.4, 26.1, 2.3),
        ("Sofia", 42.7, 23.3, 1.7),
        ("Belgrade", 44.8, 20.5, 1.7),
        ("Athens", 38.0, 23.7, 3.6),
        ("Rome", 41.9, 12.5, 4.3),
        ("Milan", 45.5, 9.2, 5.3),
        ("Naples", 40.9, 14.3, 3.1),
        ("Turin", 45.1, 7.7, 1.8),
        ("Madrid", 40.4, -3.7, 6.7),
        ("Barcelona", 41.4, 2.2, 5.6),
        ("Valencia", 39.5, -0.4, 1.6),
        ("Lisbon", 38.7, -9.1, 2.9),
        ("Porto", 41.1, -8.6, 1.7),
        ("Paris", 48.9, 2.3, 11.0),
        ("Lyon", 45.8, 4.8, 2.3),
        ("Marseille", 43.3, 5.4, 1.8),
        ("London", 51.5, -0.1, 9.6),
        ("Birmingham", 52.5, -1.9, 2.9),
        ("Manchester", 53.5, -2.2, 2.8),
        ("Glasgow", 55.9, -4.3, 1.7),
        ("Dublin", 53.3, -6.3, 1.4),
        ("Amsterdam", 52.4, 4.9, 2.5),
        ("Rotterdam", 51.9, 4.5, 1.8),
        ("Brussels", 50.9, 4.4, 2.1),
        ("Berlin", 52.5, 13.4, 3.6),
        ("Hamburg", 53.6, 10.0, 1.9),
        ("Munich", 48.1, 11.6, 2.6),
        ("Frankfurt", 50.1, 8.7, 2.3),
        ("Cologne", 50.9, 7.0, 2.0),
        ("Stuttgart", 48.8, 9.2, 2.0),
        ("Zurich", 47.4, 8.5, 1.4),
        ("Geneva", 46.2, 6.1, 0.6),
        ("Copenhagen", 55.7, 12.6, 2.1),
        ("Stockholm", 59.3, 18.1, 2.4),
        ("Oslo", 59.9, 10.8, 1.1),
        ("Helsinki", 60.2, 24.9, 1.5),
        ("Riga", 56.9, 24.1, 0.9),
        ("Vilnius", 54.7, 25.3, 0.6),
        ("Tallinn", 59.4, 24.8, 0.5),
        ("Reykjavik", 64.1, -21.9, 0.2),
        ("Murmansk", 68.97, 33.1, 0.3),
        ("Novosibirsk", 55.0, 82.9, 1.6),
        ("Yekaterinburg", 56.8, 60.6, 1.5),
        ("Vladivostok", 43.1, 131.9, 0.6),
        ("Anchorage", 61.2, -149.9, 0.4),
        # Africa
        ("Cairo", 30.0, 31.2, 21.0),
        ("Alexandria", 31.2, 29.9, 5.5),
        ("Lagos", 6.5, 3.4, 15.0),
        ("Kano", 12.0, 8.5, 4.0),
        ("Abuja", 9.1, 7.5, 3.5),
        ("Kinshasa", -4.3, 15.3, 15.0),
        ("Luanda", -8.8, 13.2, 8.5),
        ("Johannesburg", -26.2, 28.0, 10.0),
        ("Cape Town", -33.9, 18.4, 4.7),
        ("Durban", -29.9, 31.0, 3.2),
        ("Nairobi", -1.3, 36.8, 5.0),
        ("Dar es Salaam", -6.8, 39.3, 7.0),
        ("Addis Ababa", 9.0, 38.7, 5.2),
        ("Khartoum", 15.6, 32.5, 6.0),
        ("Casablanca", 33.6, -7.6, 3.8),
        ("Algiers", 36.8, 3.1, 2.8),
        ("Tunis", 36.8, 10.2, 2.4),
        ("Tripoli", 32.9, 13.2, 1.2),
        ("Accra", 5.6, -0.2, 2.6),
        ("Abidjan", 5.3, -4.0, 5.5),
        ("Dakar", 14.7, -17.5, 3.3),
        ("Kampala", 0.3, 32.6, 3.7),
        ("Lusaka", -15.4, 28.3, 2.9),
        ("Harare", -17.8, 31.0, 1.6),
        ("Antananarivo", -18.9, 47.5, 3.4),
        ("Maputo", -25.9, 32.6, 1.8),
        # North America
        ("New York", 40.7, -74.0, 20.0),
        ("Los Angeles", 34.1, -118.2, 13.0),
        ("Chicago", 41.9, -87.6, 9.5),
        ("Houston", 29.8, -95.4, 7.1),
        ("Dallas", 32.8, -96.8, 7.6),
        ("Washington", 38.9, -77.0, 6.3),
        ("Philadelphia", 40.0, -75.2, 6.2),
        ("Miami", 25.8, -80.2, 6.1),
        ("Atlanta", 33.7, -84.4, 6.1),
        ("Boston", 42.4, -71.1, 4.9),
        ("Phoenix", 33.4, -112.1, 4.9),
        ("San Francisco", 37.8, -122.4, 4.7),
        ("San Jose", 37.3, -121.9, 2.0),
        ("Seattle", 47.6, -122.3, 4.0),
        ("Detroit", 42.3, -83.0, 4.3),
        ("Minneapolis", 45.0, -93.3, 3.7),
        ("San Diego", 32.7, -117.2, 3.3),
        ("Denver", 39.7, -105.0, 3.0),
        ("Tampa", 28.0, -82.5, 3.2),
        ("St Louis", 38.6, -90.2, 2.8),
        ("Portland", 45.5, -122.7, 2.5),
        ("Las Vegas", 36.2, -115.1, 2.3),
        ("Salt Lake City", 40.8, -111.9, 1.3),
        ("Kansas City", 39.1, -94.6, 2.2),
        ("New Orleans", 30.0, -90.1, 1.3),
        ("Toronto", 43.7, -79.4, 6.4),
        ("Montreal", 45.5, -73.6, 4.3),
        ("Vancouver", 49.3, -123.1, 2.6),
        ("Calgary", 51.0, -114.1, 1.6),
        ("Edmonton", 53.5, -113.5, 1.5),
        ("Ottawa", 45.4, -75.7, 1.4),
        ("Winnipeg", 49.9, -97.1, 0.8),
        ("Mexico City", 19.4, -99.1, 22.0),
        ("Guadalajara", 20.7, -103.3, 5.3),
        ("Monterrey", 25.7, -100.3, 5.0),
        ("Puebla", 19.0, -98.2, 3.2),
        ("Tijuana", 32.5, -117.0, 2.2),
        ("Havana", 23.1, -82.4, 2.1),
        ("Guatemala City", 14.6, -90.5, 3.0),
        ("San Salvador", 13.7, -89.2, 1.1),
        ("Tegucigalpa", 14.1, -87.2, 1.4),
        ("Managua", 12.1, -86.3, 1.1),
        ("San Jose CR", 9.9, -84.1, 1.4),
        ("Panama City", 9.0, -79.5, 1.9),
        ("Santo Domingo", 18.5, -69.9, 3.3),
        ("Port-au-Prince", 18.5, -72.3, 2.8),
        ("San Juan", 18.5, -66.1, 2.4),
        # South America
        ("Sao Paulo", -23.6, -46.6, 22.0),
        ("Rio de Janeiro", -22.9, -43.2, 13.5),
        ("Belo Horizonte", -19.9, -43.9, 6.0),
        ("Brasilia", -15.8, -47.9, 4.8),
        ("Salvador", -13.0, -38.5, 4.0),
        ("Fortaleza", -3.7, -38.5, 4.1),
        ("Recife", -8.1, -34.9, 4.2),
        ("Curitiba", -25.4, -49.3, 3.7),
        ("Porto Alegre", -30.0, -51.2, 4.1),
        ("Manaus", -3.1, -60.0, 2.3),
        ("Buenos Aires", -34.6, -58.4, 15.5),
        ("Cordoba", -31.4, -64.2, 1.6),
        ("Rosario", -32.9, -60.7, 1.5),
        ("Santiago", -33.5, -70.7, 7.0),
        ("Lima", -12.0, -77.0, 11.0),
        ("Bogota", 4.6, -74.1, 11.0),
        ("Medellin", 6.2, -75.6, 4.0),
        ("Cali", 3.4, -76.5, 2.8),
        ("Caracas", 10.5, -66.9, 2.9),
        ("Quito", -0.2, -78.5, 2.0),
        ("Guayaquil", -2.2, -79.9, 3.0),
        ("La Paz", -16.5, -68.1, 1.9),
        ("Asuncion", -25.3, -57.6, 2.3),
        ("Montevideo", -34.9, -56.2, 1.8),
        # Oceania
        ("Sydney", -33.9, 151.2, 5.3),
        ("Melbourne", -37.8, 145.0, 5.1),
        ("Brisbane", -27.5, 153.0, 2.6),
        ("Perth", -31.9, 115.9, 2.1),
        ("Adelaide", -34.9, 138.6, 1.4),
        ("Auckland", -36.8, 174.8, 1.7),
        ("Wellington", -41.3, 174.8, 0.4),
    ]
)


class PopulationModel:
    """Builds the synthetic gridded population density.

    Parameters
    ----------
    resolution_deg:
        Grid cell size in degrees (0.5 matches the SEDAC grid the paper uses).
    metro_sigma_km:
        Base Gaussian spread of a metropolitan cluster; the effective spread
        grows with the cube root of population so megacities occupy a larger
        area rather than producing unphysical single-cell densities.  The
        default is tuned so the largest megacities reach peak grid densities
        of roughly 5000-6500 people per square kilometre, matching the
        magnitude of the paper's Figure 3.
    rural_fraction:
        Kept for API stability: the share of the *non-metro* population that
        is spread with the latitude envelope only (the remainder follows the
        continental longitude modulation as well).
    world_population_billions:
        Total population of the grid; everything not attributed to a metro
        cluster is spread as rural/small-town background.
    """

    def __init__(
        self,
        resolution_deg: float = 0.5,
        metro_sigma_km: float = 16.0,
        rural_fraction: float = 0.30,
        world_population_billions: float = 8.0,
    ):
        if metro_sigma_km <= 0:
            raise ValueError("metro_sigma_km must be positive")
        if not 0.0 <= rural_fraction < 1.0:
            raise ValueError("rural_fraction must be in [0, 1)")
        if world_population_billions <= 0:
            raise ValueError("world_population_billions must be positive")
        self.resolution_deg = resolution_deg
        self.metro_sigma_km = metro_sigma_km
        self.rural_fraction = rural_fraction
        self.world_population_billions = world_population_billions

    def density_grid(self) -> LatLonGrid:
        """Return the population density grid [people / km^2].

        People are counted straight into the returned grid's array: each
        metro's kernel over its +-4 sigma window, then the rural background
        in blocks of rows (see :meth:`_add_rural_background`).  The counts are
        then divided in place by each row's cell area.  So the build holds one
        full-size array plus blocks of a few thousand cells, and every cell
        goes through the same float operations as summing whole-grid layers
        would.
        """
        grid = LatLonGrid(resolution_deg=self.resolution_deg)
        lat_centres = grid.latitudes_deg
        lon_centres = grid.longitudes_deg
        lat_rad = np.radians(lat_centres)
        km_per_deg_lat = 111.32
        counts = grid.values

        for metro in METRO_AREAS:
            sigma_km = self.metro_sigma_km * (
                max(metro.population_millions, 0.3) / 5.0
            ) ** (1.0 / 3.0)
            sigma_lat_deg = sigma_km / km_per_deg_lat
            cos_lat = max(math.cos(math.radians(metro.latitude_deg)), 0.05)
            sigma_lon_deg = sigma_km / (km_per_deg_lat * cos_lat)

            dlat = lat_centres - metro.latitude_deg
            dlon = (lon_centres - metro.longitude_deg + 180.0) % 360.0 - 180.0
            # Restrict the kernel to +-4 sigma to keep the build fast.
            lat_mask = np.abs(dlat) <= 4.0 * sigma_lat_deg
            lon_mask = np.abs(dlon) <= 4.0 * sigma_lon_deg
            if not lat_mask.any() or not lon_mask.any():
                continue
            kernel_lat = np.exp(-0.5 * (dlat[lat_mask] / sigma_lat_deg) ** 2)
            kernel_lon = np.exp(-0.5 * (dlon[lon_mask] / sigma_lon_deg) ** 2)
            kernel = np.outer(kernel_lat, kernel_lon)
            kernel /= kernel.sum()
            metro_people = metro.population_millions * 1e6
            counts[np.ix_(lat_mask, lon_mask)] += metro_people * kernel

        self._add_rural_background(counts, lat_rad, lon_centres)
        counts /= grid.row_cell_area_km2()[:, None]
        return grid

    def _add_rural_background(
        self, counts: np.ndarray, lat_rad: np.ndarray, lon_centres: np.ndarray
    ) -> None:
        """Add the smooth rural population counts per cell to ``counts``.

        The background carries everything not attributed to a metro cluster.
        It follows a latitudinal envelope peaking in the Northern
        mid-latitudes (where most habitable land lies) and is modulated in
        longitude by broad "continental" bumps so oceans stay mostly empty.

        A cell's weight is ``envelope[row] * continents[col]``, normalised by
        the sum of all weights.  That sum is numpy's pairwise sum of the
        whole weight grid, taken over short runs of it; the weights are then
        built, normalised and added a block of rows at a time.
        """
        metro_total = sum(m.population_millions for m in METRO_AREAS) * 1e6
        total_rural = max(0.0, self.world_population_billions * 1e9 - metro_total)
        lat_deg = np.degrees(lat_rad)
        envelope = (
            np.exp(-0.5 * ((lat_deg - 30.0) / 15.0) ** 2)
            + 0.7 * np.exp(-0.5 * ((lat_deg - 50.0) / 10.0) ** 2)
            + 0.35 * np.exp(-0.5 * ((lat_deg + 10.0) / 12.0) ** 2)
            + 0.25 * np.exp(-0.5 * ((lat_deg + 30.0) / 10.0) ** 2)
        )
        # Essentially nobody lives poleward of ~72 degrees; taper the rural
        # background to zero there (the metro catalogue already stops at
        # Murmansk, 69 N) so polar cells carry exactly zero demand.
        envelope *= np.clip((76.0 - np.abs(lat_deg)) / 6.0, 0.0, 1.0)
        continents = (
            1.0
            + 0.9 * np.exp(-0.5 * ((_wrap(lon_centres - 100.0)) / 35.0) ** 2)  # East Asia
            + 0.8 * np.exp(-0.5 * ((_wrap(lon_centres - 78.0)) / 20.0) ** 2)  # South Asia
            + 0.7 * np.exp(-0.5 * ((_wrap(lon_centres - 20.0)) / 30.0) ** 2)  # Europe/Africa
            + 0.6 * np.exp(-0.5 * ((_wrap(lon_centres + 90.0)) / 30.0) ** 2)  # Americas
            - 0.9 * np.exp(-0.5 * ((_wrap(lon_centres + 150.0)) / 25.0) ** 2)  # Pacific
            - 0.5 * np.exp(-0.5 * ((_wrap(lon_centres + 40.0)) / 15.0) ** 2)  # Atlantic
        )
        continents = np.clip(continents, 0.05, None)
        n_lon = continents.size

        def weights_at(lo: int, hi: int) -> np.ndarray:
            first, last = lo // n_lon, (hi - 1) // n_lon + 1
            rows = np.outer(envelope[first:last], continents).reshape(-1)
            return rows[lo - first * n_lon : hi - first * n_lon]

        total = _pairwise_sum(weights_at, envelope.size * n_lon)
        block = max(1, _PAIRWISE_CHUNK // n_lon)
        for start in range(0, envelope.size, block):
            weights = np.outer(envelope[start : start + block], continents)
            weights /= total
            weights *= total_rural
            counts[start : start + block] += weights


def _wrap(longitudes_deg: np.ndarray) -> np.ndarray:
    """Wrap longitude differences into (-180, 180]."""
    return (np.asarray(longitudes_deg) + 180.0) % 360.0 - 180.0


def synthetic_population_grid(resolution_deg: float = 0.5) -> LatLonGrid:
    """Return the default synthetic population density grid [people / km^2]."""
    return PopulationModel(resolution_deg=resolution_deg).density_grid()
