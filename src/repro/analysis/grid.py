"""Load persisted ``run_grid`` documents back into numpy arrays.

:func:`repro.network.simulation.run_grid` persists a design x scenario sweep
as one JSON document (per-cell summary metrics plus full per-step
statistics).  This module is the read side of that contract: it decodes a
grid file back into :class:`~repro.network.simulation.SimulationResult`
objects -- bit-for-bit equal to the in-memory results the sweep returned,
including ``null`` latencies decoded back to ``inf`` -- and exposes the
summary metrics as dense ``(designs, scenarios)`` numpy surfaces ready for
paper-style capacity/demand figures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from ..network.simulation import SimulationResult, StepStatistics

__all__ = ["GridDocument", "load_grid"]

#: Cell-level summary metrics persisted by ``run_grid``.
SUMMARY_METRICS = ("mean_delivery_ratio", "worst_delivery_ratio", "mean_latency_ms")


def _decode_latency(value: "float | None") -> float:
    """Decode a persisted latency: JSON ``null`` means unreachable (inf)."""
    return float("inf") if value is None else float(value)


@dataclass(frozen=True, eq=False)
class GridDocument:
    """One loaded ``run_grid`` file: axes, summaries and full results.

    Instances compare by identity: the result dicts are unhashable.

    Attributes
    ----------
    designs, scenarios:
        The sweep axes, in persisted order; these orders index the rows and
        columns of every :meth:`surface` / :meth:`step_values` array.
    start_jd, duration_hours, step_hours:
        The time grid of the sweep.
    cells:
        ``(design, scenario) -> SimulationResult`` with every per-step
        statistic restored (missing fields of files written before a
        statistics extension fall back to the dataclass defaults).
    summaries:
        ``(design, scenario) -> {metric: value}`` of the persisted cell
        summaries, with ``null`` latencies decoded to ``inf``.
    """

    designs: tuple[str, ...]
    scenarios: tuple[str, ...]
    start_jd: float
    duration_hours: float
    step_hours: float
    cells: dict[tuple[str, str], SimulationResult]
    summaries: dict[tuple[str, str], dict[str, float]]

    @property
    def step_count(self) -> int:
        """Number of steps of each cell's result (0 for an empty grid)."""
        if not self.cells:
            return 0
        return len(next(iter(self.cells.values())).steps)

    def result(self, design: str, scenario: str) -> SimulationResult:
        """Return one cell's full result, or raise a clear error."""
        try:
            return self.cells[(design, scenario)]
        except KeyError:
            raise KeyError(
                f"grid has no cell ({design!r}, {scenario!r}); designs: "
                f"{list(self.designs)}, scenarios: {list(self.scenarios)}"
            ) from None

    def surface(self, metric: str = "mean_delivery_ratio") -> np.ndarray:
        """Return one summary metric as a ``(designs, scenarios)`` array.

        ``metric`` is one of :data:`SUMMARY_METRICS`; cells absent from the
        file (a partially written grid) are NaN.
        """
        if metric not in SUMMARY_METRICS:
            raise ValueError(
                f"unknown summary metric {metric!r}; available: {list(SUMMARY_METRICS)}"
            )
        values = np.full((len(self.designs), len(self.scenarios)), np.nan)
        for row, design in enumerate(self.designs):
            for column, scenario in enumerate(self.scenarios):
                summary = self.summaries.get((design, scenario))
                if summary is not None:
                    values[row, column] = summary[metric]
        return values

    def step_values(self, metric: str = "delivery_ratio") -> np.ndarray:
        """Return a per-step statistic as a ``(designs, scenarios, steps)`` array.

        ``metric`` is any :class:`~repro.network.simulation.StepStatistics`
        field or property (e.g. ``"delivery_ratio"``, ``"stranded_gbps"``,
        ``"mean_latency_ms"``); unreachable steps surface as ``inf``
        latencies, exactly as in the in-memory results.
        """
        values = np.full(
            (len(self.designs), len(self.scenarios), self.step_count), np.nan
        )
        for row, design in enumerate(self.designs):
            for column, scenario in enumerate(self.scenarios):
                result = self.cells.get((design, scenario))
                if result is not None:
                    values[row, column, :] = [
                        getattr(step, metric) for step in result.steps
                    ]
        return values


def load_grid(path: "str | Path") -> GridDocument:
    """Load a ``run_grid`` JSON document from ``path``.

    The inverse of the persistence in
    :func:`repro.network.simulation.run_grid`: per-step records become
    :class:`~repro.network.simulation.StepStatistics` (unknown keys of future
    formats are ignored, missing keys of past formats take the dataclass
    defaults) and ``null`` latencies -- RFC 8259 has no ``Infinity`` token --
    are decoded back to ``inf``.
    """
    document = json.loads(Path(path).read_text())
    step_fields = {field.name for field in fields(StepStatistics)}
    cells: dict[tuple[str, str], SimulationResult] = {}
    summaries: dict[tuple[str, str], dict[str, float]] = {}
    for cell in document["cells"]:
        key = (cell["design"], cell["scenario"])
        steps = []
        for record in cell["steps"]:
            known = {name: value for name, value in record.items() if name in step_fields}
            known["mean_latency_ms"] = _decode_latency(known.get("mean_latency_ms"))
            if "top_pairs" in known:
                # JSON has no tuples; restore the in-memory representation.
                known["top_pairs"] = tuple(
                    (src, dst, float(value)) for src, dst, value in known["top_pairs"]
                )
            steps.append(StepStatistics(**known))
        cells[key] = SimulationResult(steps=steps)
        summaries[key] = {
            "mean_delivery_ratio": float(cell["mean_delivery_ratio"]),
            "worst_delivery_ratio": float(cell["worst_delivery_ratio"]),
            "mean_latency_ms": _decode_latency(cell.get("mean_latency_ms")),
        }
    return GridDocument(
        designs=tuple(document["designs"]),
        scenarios=tuple(document["scenarios"]),
        start_jd=float(document["start_jd"]),
        duration_hours=float(document["duration_hours"]),
        step_hours=float(document["step_hours"]),
        cells=cells,
        summaries=summaries,
    )
