"""Shared configuration for the benchmark harness.

Each benchmark regenerates the data behind one figure of the paper and prints
the series it produces, so `pytest benchmarks/ --benchmark-only` doubles as
the reproduction run recorded in EXPERIMENTS.md.  Heavy sweeps run with a
single round to keep the full harness in the minutes range.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help=(
            "shrink benchmark problem sizes and relax speedup floors so the "
            "harness doubles as a fast CI correctness check"
        ),
    )


@pytest.fixture()
def smoke(request) -> bool:
    """Whether the harness runs in CI smoke mode (small sizes, lax floors)."""
    return request.config.getoption("--smoke")


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under the benchmark fixture."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture()
def once():
    """Fixture exposing the single-round benchmark helper."""
    return run_once
