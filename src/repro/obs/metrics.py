"""Mergeable run metrics: per-stage durations, counters and gauges.

:class:`RunMetrics` is the observability sibling of
:class:`~repro.network.telemetry.PairTelemetry`: a plain-numpy container
that pickles cheaply and merges elementwise, so per-worker metrics of a
process sweep fold into one per-scenario aggregate on the driver exactly
like telemetry stores do.  Stage state is fixed-size -- a ``(S,)`` seconds
vector, a ``(S,)`` call-count vector and a ``(S, B)`` histogram over the
shared log-spaced :data:`HISTOGRAM_EDGES` -- so recording a span is O(1)
and a week-long sweep holds the same few hundred bytes as a one-step run.

Two merge semantics cover everything the pipeline needs:

* **counters** (and all stage state) add -- commutative and associative,
  so merged results are independent of worker scheduling;
* **gauges** take the elementwise maximum -- high-watermark semantics
  (peak edge-list bytes, peak steering state), equally order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "STAGES",
    "HISTOGRAM_EDGES",
    "RunMetrics",
    "combined_stage_means",
]

#: The simulation pipeline's stage vocabulary, in pipeline order: the
#: per-step snapshot provider, then stages 2-5 of
#: :meth:`repro.network.simulation.NetworkSimulator.run` plus the steering
#: control plane and the telemetry collections that ride along.
STAGES: tuple[str, ...] = (
    "snapshot",
    "flow_selection",
    "routing",
    "allocation",
    "steering",
    "telemetry",
    "statistics",
)

#: Shared histogram bin edges [seconds]: quarter-decade log spacing from
#: 100 ns to 100 s.  Every :class:`RunMetrics` uses the same edges, which
#: is what makes histograms elementwise-mergeable across workers.
HISTOGRAM_EDGES: np.ndarray = np.logspace(-7.0, 2.0, 37)

#: Histogram bin count: one bin below the first edge, one above the last.
_HISTOGRAM_BINS: int = HISTOGRAM_EDGES.size + 1


@dataclass
class RunMetrics:
    """Counters, gauges and per-stage duration accumulators of one run.

    The array fields are compare-excluded (``ndarray ==`` is elementwise);
    use :meth:`equals` for exact whole-state comparison in tests.
    """

    #: Stage vocabulary; index ``i`` of every stage array is ``stages[i]``.
    stages: tuple[str, ...] = STAGES
    #: Total seconds spent per stage, shape ``(S,)``.
    stage_seconds: "np.ndarray | None" = field(default=None, compare=False)
    #: Completed span count per stage, shape ``(S,)``.
    stage_calls: "np.ndarray | None" = field(default=None, compare=False)
    #: Per-stage span-duration histogram over :data:`HISTOGRAM_EDGES`,
    #: shape ``(S, B)``.
    stage_histogram: "np.ndarray | None" = field(default=None, compare=False)
    #: Named additive counters (e.g. ``"steps"``, ``"flows_routed"``).
    counters: dict[str, float] = field(default_factory=dict)
    #: Named high-watermark gauges (e.g. ``"edge_list_bytes"``).
    gauges: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.stages = tuple(self.stages)
        if len(set(self.stages)) != len(self.stages) or not self.stages:
            raise ValueError("stages must be a non-empty tuple of unique names")
        size = len(self.stages)
        if self.stage_seconds is None:
            self.stage_seconds = np.zeros(size)
        if self.stage_calls is None:
            self.stage_calls = np.zeros(size, dtype=np.int64)
        if self.stage_histogram is None:
            self.stage_histogram = np.zeros((size, _HISTOGRAM_BINS), dtype=np.int64)
        if (
            self.stage_seconds.shape != (size,)
            or self.stage_calls.shape != (size,)
            or self.stage_histogram.shape != (size, _HISTOGRAM_BINS)
        ):
            raise ValueError("stage arrays do not match the stage vocabulary")

    # -- recording ---------------------------------------------------------------

    def stage_index(self, stage: str) -> int:
        """Row of ``stage`` in the stage arrays (raises on unknown names)."""
        try:
            return self.stages.index(stage)
        except ValueError:
            raise ValueError(
                f"unknown stage {stage!r}; known: {list(self.stages)}"
            ) from None

    def record(self, stage: str, seconds: float) -> None:
        """Fold one completed span of ``stage`` in (duration in seconds)."""
        self.record_index(self.stage_index(stage), seconds)

    def record_index(self, index: int, seconds: float) -> None:
        """:meth:`record` by precomputed stage row (the tracer hot path)."""
        self.stage_seconds[index] += seconds
        self.stage_calls[index] += 1
        bin_index = int(np.searchsorted(HISTOGRAM_EDGES, seconds, side="right"))
        self.stage_histogram[index, bin_index] += 1

    def fold_index(self, index: int, seconds: float) -> None:
        """Add ``seconds`` to stage row ``index`` without counting a span.

        For work done once on behalf of many spans (see
        :meth:`~repro.obs.Tracer.fold_seconds`): calls and the histogram
        keep describing the spans themselves.
        """
        self.stage_seconds[index] += seconds

    def increment(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the additive counter ``name``."""
        self.counters[name] = self.counters.get(name, 0.0) + float(value)

    def gauge_max(self, name: str, value: float) -> None:
        """Raise the high-watermark gauge ``name`` to at least ``value``."""
        value = float(value)
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = value

    # -- merging -----------------------------------------------------------------

    def merge(self, other: "RunMetrics") -> None:
        """Fold ``other`` in elementwise (commutative, like ``PairTelemetry``)."""
        if self.stages != other.stages:
            raise ValueError(
                "run metrics merge only within one stage vocabulary "
                f"({self.stages} != {other.stages})"
            )
        self.stage_seconds += other.stage_seconds
        self.stage_calls += other.stage_calls
        self.stage_histogram += other.stage_histogram
        for name, value in other.counters.items():
            self.increment(name, value)
        for name, value in other.gauges.items():
            self.gauge_max(name, value)

    def equals(self, other: "RunMetrics") -> bool:
        """Exact whole-state equality (arrays compared elementwise)."""
        return (
            self.stages == other.stages
            and np.array_equal(self.stage_seconds, other.stage_seconds)
            and np.array_equal(self.stage_calls, other.stage_calls)
            and np.array_equal(self.stage_histogram, other.stage_histogram)
            and self.counters == other.counters
            and self.gauges == other.gauges
        )

    # -- summaries ---------------------------------------------------------------

    def total_seconds(self) -> float:
        """Sum of every stage's recorded duration."""
        return float(self.stage_seconds.sum())

    def stage_means(self) -> dict[str, float]:
        """Mean span duration [s] per stage (stages never entered read 0)."""
        calls = np.maximum(self.stage_calls, 1)
        means = self.stage_seconds / calls
        return {stage: float(means[i]) for i, stage in enumerate(self.stages)}

    def stage_summary(self) -> dict[str, dict[str, float]]:
        """Compact per-stage ``{calls, seconds, mean_ms, share}`` summary.

        Plain-python scalars only, so the summary embeds directly into
        benchmark/CI JSON records.  ``share`` is the stage's fraction of
        the total recorded time (0 when nothing was recorded).
        """
        total = self.total_seconds()
        summary: dict[str, dict[str, float]] = {}
        for index, stage in enumerate(self.stages):
            calls = int(self.stage_calls[index])
            seconds = float(self.stage_seconds[index])
            summary[stage] = {
                "calls": calls,
                "seconds": seconds,
                "mean_ms": (seconds / calls * 1e3) if calls else 0.0,
                "share": (seconds / total) if total > 0.0 else 0.0,
            }
        return summary

    def to_dict(self) -> dict:
        """Full JSON-serialisable dump (exporters consume this)."""
        return {
            "stages": {
                stage: {
                    "calls": int(self.stage_calls[index]),
                    "seconds": float(self.stage_seconds[index]),
                    "histogram": self.stage_histogram[index].tolist(),
                }
                for index, stage in enumerate(self.stages)
            },
            "histogram_edges_s": HISTOGRAM_EDGES.tolist(),
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
        }


def combined_stage_means(metrics: "list[RunMetrics]") -> dict[str, float]:
    """Running mean span duration per stage across many metric sets.

    The progress reporter's view of a sweep: per-stage totals and call
    counts summed over every scenario's metrics, then divided -- cheap
    enough to evaluate once per completed step.
    """
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    for item in metrics:
        for index, stage in enumerate(item.stages):
            totals[stage] = totals.get(stage, 0.0) + float(item.stage_seconds[index])
            calls[stage] = calls.get(stage, 0) + int(item.stage_calls[index])
    return {
        stage: (totals[stage] / calls[stage]) if calls[stage] else 0.0
        for stage in totals
    }
