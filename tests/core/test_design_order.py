"""Golden regression test: the order in which the Figure 9/10 designs are built.

``golden_design.json`` pins design totals and fluences at two multipliers.
This record pins the *sequence* behind every design of the Figure 9 sweep:

* at each of the five bandwidth multipliers, the SHA-256 of the greedy
  designer's LTAN sequence (``repr`` of the float list, so bit-exact), its
  ``repr(residual_demand)`` and ``iterations``; the SHA-256 of the Walker
  designer's shell sequence (``repr`` of its ``(total_satellites, planes,
  altitude_km)`` tuples), its residual and iterations; and the ``repr`` of both designs' median and mean fluences;
* the Walker pattern the baseline's sizing search returns at every
  inclination the sweep actually sizes (560 km, 25 deg mask, the
  baseline's 6 deg grid and 6 time samples).

Any change to plane order, tie-breaking, mask geometry, sizing or fluence
evaluation fails here, even when the totals happen to agree.

To re-record after a deliberate behaviour change::

    PYTHONPATH=src python tests/core/test_design_order.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.designer import ConstellationDesigner
from repro.core.greedy_cover import GreedySSPlaneDesigner
from repro.core.walker_baseline import DemandDrivenWalkerDesigner
from repro.coverage.walker import minimum_walker_for_coverage

ORDER_PATH = Path(__file__).parent / "data" / "design_order.json"

#: The bandwidth multipliers of the Figure 9/10 sweep.
MULTIPLIERS = (10.0, 30.0, 100.0, 300.0, 1000.0)
#: The shell inclinations the Walker baseline sizes over that sweep.
SWEEP_INCLINATIONS_DEG = (37.5, 40.0, 57.5, 60.0, 62.5, 70.0, 72.5, 75.0)


def fluence_record(metrics) -> list[str]:
    return [
        repr(metrics.median_fluence.electron),
        repr(metrics.median_fluence.proton),
        repr(metrics.mean_fluence.electron),
        repr(metrics.mean_fluence.proton),
    ]


def design_order_record() -> dict:
    """Return the greedy and Walker design sequences at every multiplier."""
    designer = ConstellationDesigner()
    calculator = designer.metrics_calculator
    record = {}
    for multiplier in MULTIPLIERS:
        grid = designer.demand_grid(multiplier)
        ss = GreedySSPlaneDesigner(
            altitude_km=designer.altitude_km, min_elevation_deg=designer.min_elevation_deg
        ).design(grid)
        walker = DemandDrivenWalkerDesigner(
            altitude_km=designer.altitude_km, min_elevation_deg=designer.min_elevation_deg
        ).design(grid)
        shell_sequence = [
            (shell.pattern.total_satellites, shell.pattern.planes, shell.altitude_km)
            for shell in walker.shells
        ]
        record[f"{multiplier:g}"] = {
            "ss": {
                "ltan_sha256": hashlib.sha256(repr(ss.ltans_hours()).encode()).hexdigest(),
                "planes": ss.plane_count,
                "residual_demand": repr(ss.residual_demand),
                "iterations": ss.iterations,
                "fluences": fluence_record(calculator.for_ssplane(ss)),
            },
            "walker": {
                "shells_sha256": hashlib.sha256(repr(shell_sequence).encode()).hexdigest(),
                "shells": len(shell_sequence),
                "residual_demand": repr(walker.residual_demand),
                "iterations": walker.iterations,
                "fluences": fluence_record(calculator.for_walker(walker)),
            },
        }
    return record


def sweep_pattern_record() -> dict:
    """Return the sized Walker pattern at every inclination the sweep sizes."""
    record = {}
    for inclination in SWEEP_INCLINATIONS_DEG:
        pattern = minimum_walker_for_coverage(
            560.0, inclination, 25.0, grid_step_deg=6.0, time_samples=6
        )
        record[f"{inclination:g}"] = [
            pattern.total_satellites,
            pattern.planes,
            pattern.phasing,
        ]
    return record


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(ORDER_PATH.read_text())


def test_design_sequences_match_order_record(recorded):
    assert design_order_record() == recorded["designs"]


def test_sweep_walker_patterns_match_order_record(recorded):
    assert sweep_pattern_record() == recorded["walker_patterns"]


def test_sweep_inclinations_are_the_ones_the_baseline_sizes():
    """The pinned inclinations are exactly the shells the five designs use."""
    designer = ConstellationDesigner()
    sized = set()
    for multiplier in MULTIPLIERS:
        walker = DemandDrivenWalkerDesigner(
            altitude_km=designer.altitude_km, min_elevation_deg=designer.min_elevation_deg
        ).design(designer.demand_grid(multiplier))
        sized.update(shell.inclination_deg for shell in walker.shells)
    assert tuple(sorted(sized)) == SWEEP_INCLINATIONS_DEG


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    ORDER_PATH.parent.mkdir(parents=True, exist_ok=True)
    record = {"designs": design_order_record(), "walker_patterns": sweep_pattern_record()}
    ORDER_PATH.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {ORDER_PATH}")
