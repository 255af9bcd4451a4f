"""Benchmark: a scaling ladder of whole end-to-end-shaped sweeps.

Every cell is one whole sweep built through the library in the end-to-end
benchmark's shape (``e2ebench/child.py``'s stations, weights, total demand
and scenarios, ``spec.SIZES``' shell, step count and flow budgets).  The base
cell is its ``sweep-maxmin`` at the chosen size (full: 360 satellites in 18
planes, 335 collinear stations, 24 one-hour steps, 5,000 flows per step).
The other cells move one axis at a time from it, never the cross product:

* ``satellites``: 2x and 4x the satellites per plane (720 and 1,440 at full
  size), on the same planes;
* ``placement``: ``collinear`` (the end-to-end stations, which lie on one
  line), ``spread`` (the same latitudes and weights, longitude
  ``(i * sqrt(2)) mod 1``) and ``metro`` (``default_ground_stations()``,
  weighted by population); each runs the ``sweep-maxmin`` and the
  ``sweep-steered-faults`` shape (a plane outage, 10% dead links and the four
  steering policies);
* ``flows``: 4x and 8x the flows per step (20,000 and 40,000 at full size);
* ``scenarios``: the base scenario at the four ``spec.PROPORTIONAL_MULTIPLIERS``.

Per cell the script records the untraced wall time of every run and their
median on the library's gateway route tables, the same for a station-sourced
baseline (:class:`~repro.network.backends.RouteTables` substituted for them,
the two sides alternating), one traced gateway run (seconds per stage, the
unattributed share and the outside timers, as ``e2ebench/child.py`` reports
them, the ``route_sources``, ``route_gateways``, ``route_fallbacks`` and
``flows_rerouted`` counters, and each scenario's spanned seconds), and each
side's SHA-256 step digests.  Only the gateway side is traced: the routing
counters read the gateway tables.  For each numeric axis (satellites, flows,
scenarios) it fits the log-log exponent of every timing over the base cell
and that axis's cells.

The one gate is digest equality: every run of a cell, both sides and the
traced run, must give the same step digests, or the script exits 1.  There
is no timing floor; the times are for reading.  At the collinear placement
the digests are the end-to-end benchmark's for the same input seed.

It prints one JSON line per cell and a last summary line, and writes the
whole record to ``BENCH_e2e.json`` at the repository root
(``BENCH_e2e_smoke.json`` with ``--smoke``).

Usage::

    PYTHONPATH=src python benchmarks/bench_e2e.py [--smoke] [--seed 3] [--repeats 3]

``--smoke`` runs every cell at ``spec.SIZES["tiny"]`` (120 satellites,
40 stations, 3 steps), one run per side.  Set ``OPENBLAS_NUM_THREADS=1`` to
time single-threaded, as the end-to-end benchmark does.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy

from repro.coverage.walker import WalkerDelta
from repro.demand.population import METRO_AREAS
from repro.demand.traffic_matrix import City, GravityTrafficModel
from repro.network import simulation
from repro.network.backends import RouteTables
from repro.network.ground_station import GroundStation, default_ground_stations
from repro.network.simulation import NetworkSimulator
from repro.network.topology import ConstellationTopology

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "e2ebench"))
import spec  # noqa: E402
from child import (  # noqa: E402
    TOTAL_DEMAND,
    SweepInputs,
    scenarios_for,
    sweep_layers,
    sweep_summary,
    synthetic_cities,
)

#: The numeric axes: axis -> the factors applied to the base cell's value.
SATELLITE_FACTORS = (2, 4)
FLOW_FACTORS = (4, 8)


@dataclasses.dataclass(frozen=True)
class Cell:
    """One rung of the ladder: the base cell with at most one axis moved."""

    axis: str
    sweep: str
    placement: str
    satellites: int
    flows: int
    #: Demand multipliers applied to each of the sweep's scenarios, or
    #: ``None`` for the sweep's own scenarios.
    multipliers: "tuple[float, ...] | None" = None


def ladder(config: dict) -> list[Cell]:
    """The base cell, then one group of cells per axis."""
    base = Cell(
        "base", "sweep-maxmin", "collinear", config["satellites"], config["flows"]["sweep-maxmin"]
    )
    return [
        base,
        *(
            dataclasses.replace(base, axis="satellites", satellites=base.satellites * factor)
            for factor in SATELLITE_FACTORS
        ),
        *(
            Cell("placement", sweep, placement, base.satellites, config["flows"][sweep])
            for placement in ("collinear", "spread", "metro")
            for sweep in ("sweep-maxmin", "sweep-steered-faults")
            if (placement, sweep) != (base.placement, base.sweep)
        ),
        *(
            dataclasses.replace(base, axis="flows", flows=base.flows * factor)
            for factor in FLOW_FACTORS
        ),
        dataclasses.replace(
            base, axis="scenarios", multipliers=tuple(spec.PROPORTIONAL_MULTIPLIERS)
        ),
    ]


def placed(placement: str, count: int, seed: int):
    """``(stations, cities)`` of a placement; ``count`` sizes the synthetic ones."""
    if placement == "metro":
        stations = default_ground_stations()
        metros = {metro.name: metro for metro in METRO_AREAS}
        return stations, tuple(City.from_metro(metros[station.name]) for station in stations)
    cities = synthetic_cities(count, seed)
    if placement == "spread":
        cities = tuple(
            dataclasses.replace(city, longitude_deg=-180.0 + 360.0 * ((index * 2.0**0.5) % 1.0))
            for index, city in enumerate(cities)
        )
    stations = [GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in cities]
    return stations, cities


class CellInputs(SweepInputs):
    """The end-to-end sweep inputs of one cell (the shell re-sized in satellites only)."""

    def __init__(self, cell: Cell, config: dict, seed: int):
        self.hours = config["hours"]
        self.stations, self.cities = placed(cell.placement, config["stations"], seed)
        walker = WalkerDelta(
            altitude_km=560.0,
            inclination_deg=65.0,
            total_satellites=cell.satellites,
            planes=config["planes"],
            phasing=1,
        )
        elements = walker.satellite_elements()
        per_plane = walker.satellites_per_plane
        self.topology = ConstellationTopology(
            planes=[elements[i * per_plane : (i + 1) * per_plane] for i in range(walker.planes)],
            epoch=self.start,
        )
        self.simulator = NetworkSimulator(
            topology=self.topology,
            ground_stations=self.stations,
            traffic_model=GravityTrafficModel(cities=self.cities, total_demand=TOTAL_DEMAND),
            flows_per_step=cell.flows,
        )
        self.scenarios = scenarios_for(cell.sweep, seed)
        if cell.multipliers is not None:
            self.scenarios = [
                dataclasses.replace(run, name=f"{run.name}-x{m:g}", demand_multiplier=m)
                for run in self.scenarios
                for m in cell.multipliers
            ]


@contextmanager
def routed_on(tables: str):
    """Route the simulator on ``"gateway"`` tables or ``"station"``-sourced ones."""
    saved = simulation.GatewayRouteTables
    if tables == "station":
        simulation.GatewayRouteTables = RouteTables
    try:
        yield
    finally:
        simulation.GatewayRouteTables = saved


def timed_run(inputs: CellInputs, tables: str, instrument: bool = False):
    """``(wall seconds, results)`` of one serial sweep."""
    with routed_on(tables):
        begin = time.perf_counter()
        results = inputs.run(instrument=instrument)
        return time.perf_counter() - begin, results


def measure(cell: Cell, config: dict, seed: int, repeats: int) -> dict:
    """Every timing, count and digest of one cell."""
    inputs = CellInputs(cell, config, seed)
    walls: dict[str, list[float]] = {"gateway": [], "station": []}
    digests: dict[str, list[dict]] = {"gateway": [], "station": []}
    for repeat in range(repeats):
        # Alternate which side runs first.
        for tables in ("gateway", "station")[:: 1 if repeat % 2 == 0 else -1]:
            wall, results = timed_run(inputs, tables)
            walls[tables].append(wall)
            digests[tables].append(sweep_summary(results)[1])
    wall, results = timed_run(inputs, "gateway", instrument=True)
    digests["gateway"].append(sweep_summary(results)[1])
    every = digests["gateway"] + digests["station"]
    return {
        **dataclasses.asdict(cell),
        "planes": config["planes"],
        "stations": len(inputs.stations),
        "scenarios": len(inputs.scenarios),
        "steps": inputs.hours,
        **{f"{side}_s": [round(w, 4) for w in walls[side]] for side in walls},
        **{f"{side}_median_s": round(statistics.median(walls[side]), 4) for side in walls},
        "traced": {name: round(value, 6) for name, value in sweep_layers(inputs, results, wall).items()},
        "counters": {
            name: sum(result.metrics.counters.get(name, 0.0) for result in results.values())
            for name in simulation._ROUTING_COUNTERS
        },
        "scenario_s": {
            name: round(float(result.metrics.stage_seconds.sum()), 6)
            for name, result in results.items()
        },
        "digests_equal": all(digest == every[0] for digest in every),
        "digests": {side: digests[side][0] for side in digests},
    }


def exponents(cells: list[dict]) -> dict:
    """Axis -> timing -> log-log slope over the base cell and that axis's cells.

    ``None`` where a timing reads zero in one of the cells (a stage the
    sweep does not run).
    """
    base = cells[0]
    fits = {}
    for axis in ("satellites", "flows", "scenarios"):
        rungs = [base, *(cell for cell in cells if cell["axis"] == axis)]
        x = np.log([cell[axis] for cell in rungs])
        timings = {
            name: [cell[name] for cell in rungs] for name in ("gateway_median_s", "station_median_s")
        }
        timings.update(
            (name, [cell["traced"][name] for cell in rungs])
            for name in base["traced"]
            if name.endswith(".s") or name == "traced.wall_s"
        )
        fits[axis] = {
            name: round(float(np.polyfit(x, np.log(values), 1)[0]), 3)
            if min(values) > 0.0
            else None
            for name, values in timings.items()
        }
    return fits


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny size, one run each")
    parser.add_argument("--seed", type=int, default=3, help="input seed (default 3)")
    parser.add_argument("--repeats", type=int, default=3, help="runs per side (default 3)")
    args = parser.parse_args(argv)
    size = "tiny" if args.smoke else "full"
    config = spec.SIZES[size]
    repeats = 1 if args.smoke else args.repeats
    begin = time.perf_counter()
    cells = []
    for cell in ladder(config):
        cells.append(measure(cell, config, args.seed, repeats))
        print(json.dumps(cells[-1]), flush=True)
    record = {
        "size": size,
        "seed": args.seed,
        "repeats": repeats,
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "digests_equal": all(cell["digests_equal"] for cell in cells),
        "exponents": exponents(cells),
        "run_s": round(time.perf_counter() - begin, 1),
        "cells": cells,
    }
    path = ROOT / ("BENCH_e2e_smoke.json" if args.smoke else "BENCH_e2e.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    summary = {key: record[key] for key in ("size", "digests_equal", "exponents", "run_s")}
    print(json.dumps({**summary, "record": path.name}), flush=True)
    return 0 if record["digests_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
