"""Tests of the Tracer: spans, disabled discipline, thread safety."""

from __future__ import annotations

import threading

import pytest

from repro.obs import NULL_TRACER, STAGES, Tracer


class FakeClock:
    """Deterministic monotonic clock: each read advances by ``tick``."""

    def __init__(self, tick: float = 1.0) -> None:
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        value = self.now
        self.now += self.tick
        return value


class TestSpans:
    def test_span_records_clock_delta(self):
        tracer = Tracer(clock=FakeClock(tick=0.25))
        with tracer.span("routing") as span:
            pass
        assert span.seconds == pytest.approx(0.25)
        index = tracer.metrics.stage_index("routing")
        assert tracer.metrics.stage_seconds[index] == pytest.approx(0.25)
        assert tracer.metrics.stage_calls[index] == 1

    def test_spans_nest_independently(self):
        clock = FakeClock(tick=1.0)
        tracer = Tracer(clock=clock)
        with tracer.span("allocation"):  # reads at t=0, exits at t=3
            with tracer.span("routing"):  # reads at t=1, exits at t=2
                pass
        means = tracer.stage_means()
        assert means["routing"] == pytest.approx(1.0)
        # The outer span covers the inner one plus its own clock reads.
        assert means["allocation"] == pytest.approx(3.0)

    def test_span_records_even_when_body_raises(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("routing"):
                raise RuntimeError("stage failed")
        assert tracer.metrics.stage_calls[tracer.metrics.stage_index("routing")] == 1

    def test_unknown_stage_raises_before_timing(self):
        with pytest.raises(KeyError):
            Tracer().span("warp_drive")

    def test_record_seconds_is_one_synthetic_span(self):
        tracer = Tracer()
        tracer.record_seconds("snapshot", 0.5)
        index = tracer.metrics.stage_index("snapshot")
        assert tracer.metrics.stage_seconds[index] == pytest.approx(0.5)
        assert tracer.metrics.stage_calls[index] == 1

    def test_fold_seconds_adds_time_but_no_call(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("routing"):
            pass
        tracer.fold_seconds("routing", 0.25)
        index = tracer.metrics.stage_index("routing")
        assert tracer.metrics.stage_seconds[index] == pytest.approx(1.25)
        assert tracer.metrics.stage_calls[index] == 1
        assert tracer.metrics.stage_histogram[index].sum() == 1

    def test_custom_stage_vocabulary(self):
        tracer = Tracer(stages=("fig01", "fig02"))
        with tracer.span("fig01"):
            pass
        assert tracer.metrics.stages == ("fig01", "fig02")
        assert tracer.metrics.stage_calls[0] == 1


class TestDisabled:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False, clock=FakeClock())
        with tracer.span("routing") as span:
            pass
        tracer.record_seconds("routing", 9.0)
        tracer.fold_seconds("routing", 9.0)
        tracer.counter("steps")
        tracer.gauge("bytes", 1.0)
        assert span.seconds == 0.0
        assert tracer.metrics.total_seconds() == 0.0
        assert tracer.metrics.stage_calls.sum() == 0
        assert tracer.metrics.counters == {}
        assert tracer.metrics.gauges == {}

    def test_disabled_span_is_shared_and_reusable(self):
        # The whole point of the null path: no per-span allocation.
        assert NULL_TRACER.enabled is False
        first = NULL_TRACER.span("routing")
        second = NULL_TRACER.span("allocation")
        assert first is second

    def test_null_tracer_accepts_any_stage_name(self):
        # Disabled spans skip the vocabulary lookup entirely, so call sites
        # never pay (or fail) for stages the tracer does not know.
        with NULL_TRACER.span("not_a_stage"):
            pass
        assert NULL_TRACER.metrics.stage_calls.sum() == 0


class TestThreadSafety:
    def test_concurrent_spans_lose_no_counts(self):
        tracer = Tracer()
        spans_per_thread = 200

        def worker(stage: str) -> None:
            for _ in range(spans_per_thread):
                with tracer.span(stage):
                    pass
                tracer.counter("steps")

        threads = [
            threading.Thread(target=worker, args=(STAGES[i % len(STAGES)],))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert int(tracer.metrics.stage_calls.sum()) == 8 * spans_per_thread
        assert int(tracer.metrics.stage_histogram.sum()) == 8 * spans_per_thread
        assert tracer.metrics.counters["steps"] == 8 * spans_per_thread
