"""Span tracing over the pipeline's fixed stage vocabulary.

A :class:`Tracer` hands out ``with tracer.span("routing"):`` contexts whose
enter/exit are two monotonic ``perf_counter`` reads (RPL001-clean -- never a
wall clock) folded into the tracer's :class:`~repro.obs.metrics.RunMetrics`.
Recording is guarded by one lock, so a caller may drive one tracer from
many threads without losing counts; the lock is held only for the O(1)
accumulator update.

The disabled discipline mirrors ``steering="static"``: a disabled tracer
(and the shared :data:`NULL_TRACER`) returns one preallocated no-op span
and drops counters/gauges on the floor, so instrumentation threaded
through a hot path costs a couple of attribute reads per stage -- and,
because spans never touch pipeline values, results are bit-identical with
tracing on, off, or absent.
"""

from __future__ import annotations

import threading
import time

from .metrics import RunMetrics, STAGES

__all__ = ["Tracer", "NULL_TRACER"]


class _NullSpan:
    """The reusable no-op span of disabled tracers."""

    __slots__ = ()

    #: Elapsed duration of the span [s]; a null span never measures.
    seconds: float = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span: clock on enter, record on exit.

    Exposes :attr:`seconds` after exit so call sites can report the
    duration they just measured without re-reading the metrics.
    """

    __slots__ = ("_tracer", "_index", "_begin", "seconds")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self._tracer = tracer
        self._index = index
        self.seconds = 0.0

    def __enter__(self) -> "_Span":
        self._begin = self._tracer._clock()
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.seconds = self._tracer._clock() - self._begin
        self._tracer._record_index(self._index, self.seconds)
        return None


class Tracer:
    """Per-run span accumulator over a fixed stage vocabulary.

    Spans nest freely (each carries its own start time) and stages may
    repeat within one step -- every completed span adds its duration, one
    call and one histogram sample to its stage row.  ``clock`` is
    injectable for deterministic tests; it must be monotonic
    (``time.perf_counter`` by default).
    """

    __slots__ = ("metrics", "enabled", "_clock", "_lock", "_indices")

    def __init__(
        self,
        stages: tuple[str, ...] = STAGES,
        enabled: bool = True,
        clock=time.perf_counter,
    ) -> None:
        self.metrics = RunMetrics(stages=tuple(stages))
        self.enabled = bool(enabled)
        self._clock = clock
        self._lock = threading.Lock()
        self._indices = {name: i for i, name in enumerate(self.metrics.stages)}

    def span(self, stage: str):
        """Context manager timing one pass through ``stage``."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, self._indices[stage])

    def record_seconds(self, stage: str, seconds: float) -> None:
        """Fold an externally measured duration in, as one span of ``stage``.

        The driver-side escape hatch for shared work measured once and
        attributed in parts (e.g. a sweep's per-step snapshot build split
        across the scenarios it serves).
        """
        if not self.enabled:
            return
        self._record_index(self._indices[stage], seconds)

    def fold_seconds(self, stage: str, seconds: float) -> None:
        """Add a share of shared work to ``stage``'s seconds, counting no call.

        For work done once for several scenarios *in place of* a part of
        their own spans (the step kernel's shared flow plans): the time
        lands on the stage that would otherwise have done it, while call
        counts and histograms keep counting the scenarios' own passes.
        """
        if not self.enabled:
            return
        with self._lock:
            self.metrics.fold_index(self._indices[stage], seconds)

    def _record_index(self, index: int, seconds: float) -> None:
        with self._lock:
            self.metrics.record_index(index, seconds)

    def counter(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the additive counter ``name`` (no-op if disabled)."""
        if not self.enabled:
            return
        with self._lock:
            self.metrics.increment(name, value)

    def gauge(self, name: str, value: float) -> None:
        """Raise the high-watermark gauge ``name`` (no-op if disabled)."""
        if not self.enabled:
            return
        with self._lock:
            self.metrics.gauge_max(name, value)

    def stage_means(self) -> dict[str, float]:
        """Mean span duration per stage, from the tracer's metrics."""
        return self.metrics.stage_means()


#: Shared disabled tracer: the default target of instrumented code paths,
#: so ``tracer or NULL_TRACER`` keeps hot loops branch-free.  It records
#: nothing and never mutates shared state.
NULL_TRACER = Tracer(enabled=False)
