"""Golden regression test: exact outputs of the Figure 9/10 design pipeline.

Two records are pinned:

* the ``(total_satellites, planes, phasing)`` that
  :func:`~repro.coverage.walker.minimum_walker_for_coverage` returns over a
  grid of altitudes and inclinations (with the Walker baseline's search
  settings), plus the settings ``tests/coverage/test_walker.py`` uses;
* ``ConstellationDesigner().design_both(m)`` for two bandwidth multipliers:
  satellite counts, plane and shell counts, and the ``repr`` of the median
  and mean electron and proton fluences.

The Walker pattern sets the paper's satellite counts and the fluences set its
radiation figures, so any change to the search order, the coverage check or
the fluence statistics fails here.

To re-record after a deliberate behaviour change::

    PYTHONPATH=src python tests/core/test_design_golden.py --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.core.designer import ConstellationDesigner
from repro.coverage.walker import minimum_walker_for_coverage

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_design.json"

ALTITUDES_KM = (560.0, 800.0, 1215.0)
INCLINATIONS_DEG = tuple(25.0 + 7.5 * step for step in range(9))
#: ``(altitude_km, inclination_deg)`` pairs sized by ``test_walker.py``.
TEST_WALKER_CASES = ((1215.0, 65.0), (600.0, 65.0), (1600.0, 65.0))
MULTIPLIERS = (10.0, 30.0)


def walker_record() -> dict:
    """Return the chosen pattern of every sizing search, keyed by its settings."""
    cases = [(alt, inc, 6) for alt in ALTITUDES_KM for inc in INCLINATIONS_DEG]
    cases += [(alt, inc, 5) for alt, inc in TEST_WALKER_CASES]
    record = {}
    for altitude, inclination, samples in cases:
        pattern = minimum_walker_for_coverage(
            altitude, inclination, 25.0, grid_step_deg=6.0, time_samples=samples
        )
        record[f"{altitude:g}/{inclination:g}/{samples}"] = [
            pattern.total_satellites,
            pattern.planes,
            pattern.phasing,
        ]
    return record


def metrics_record(metrics) -> dict:
    return {
        "total_satellites": metrics.total_satellites,
        "plane_count": metrics.plane_count,
        "median_electron": repr(metrics.median_fluence.electron),
        "median_proton": repr(metrics.median_fluence.proton),
        "mean_electron": repr(metrics.mean_fluence.electron),
        "mean_proton": repr(metrics.mean_fluence.proton),
    }


def design_record() -> dict:
    """Return the SS-plane and Walker metrics of every recorded multiplier."""
    designer = ConstellationDesigner()
    record = {}
    for multiplier in MULTIPLIERS:
        ss, walker = designer.design_both(multiplier)
        record[f"{multiplier:g}"] = {
            "ss-plane": metrics_record(ss.metrics),
            "walker": metrics_record(walker.metrics),
        }
    return record


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_walker_patterns_match_golden_record(golden):
    assert walker_record() == golden["walker"]


def test_designs_match_golden_record(golden):
    assert design_record() == golden["design"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    record = {"walker": walker_record(), "design": design_record()}
    GOLDEN_PATH.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
