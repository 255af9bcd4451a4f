"""Pipeline instrumentation: spans, mergeable run metrics, progress/ETA.

``repro.obs`` is the engine's observability layer.  It follows the same
discipline as congestion steering (``steering="static"``): **disabled is
free** -- a pipeline run without instrumentation executes the identical
code path bit for bit -- and **enabled is cheap** -- spans are
``perf_counter`` reads into fixed-size numpy accumulators, so tracing a
sweep perturbs it by well under the run-to-run timer noise.

Three pieces, each usable on its own:

* :class:`~repro.obs.tracing.Tracer` -- nested ``span("routing")``-style
  contexts over a fixed stage vocabulary (:data:`~repro.obs.metrics.STAGES`
  by default), recording per-call durations, counts and log-spaced
  histograms into a :class:`~repro.obs.metrics.RunMetrics`;
* :class:`~repro.obs.metrics.RunMetrics` -- the mergeable metric container
  (counters, high-watermark gauges, per-stage duration accumulators) that
  pickles cheaply and folds elementwise across worker processes,
  exactly like ``PairTelemetry``; exported through the
  :data:`~repro.obs.exporters.OBS_EXPORTERS` registry (``json`` /
  ``table`` / ``null``);
* :class:`~repro.obs.progress.ProgressTracker` /
  :class:`~repro.obs.progress.StderrProgress` -- completed-cell counts,
  per-stage running means and EWMA-smoothed ETA for long sweeps
  (``run_scenarios(progress=...)`` / ``run_grid(progress=...)``).
"""

from __future__ import annotations

from .exporters import (
    Exporter,
    JsonExporter,
    NullExporter,
    OBS_EXPORTERS,
    TableExporter,
    get_exporter,
)
from .metrics import (
    HISTOGRAM_EDGES,
    RunMetrics,
    STAGES,
    combined_stage_means,
)
from .progress import ProgressEvent, ProgressTracker, StderrProgress
from .tracing import NULL_TRACER, Tracer

__all__ = [
    "STAGES",
    "HISTOGRAM_EDGES",
    "RunMetrics",
    "combined_stage_means",
    "Tracer",
    "NULL_TRACER",
    "Exporter",
    "JsonExporter",
    "TableExporter",
    "NullExporter",
    "OBS_EXPORTERS",
    "get_exporter",
    "ProgressEvent",
    "ProgressTracker",
    "StderrProgress",
]
