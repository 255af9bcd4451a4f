"""Shared configuration for the benchmark harness.

Each benchmark regenerates the data behind one figure of the paper and prints
the series it produces, so `pytest benchmarks/ -s` doubles as the
reproduction run (`python -m repro.analysis.experiments --all` prints the
same tables without the harness).  Heavy sweeps run with a
single round to keep the full harness in the minutes range.
"""

from __future__ import annotations

import pytest


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under the benchmark fixture."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture()
def once():
    """Fixture exposing the single-round benchmark helper."""
    return run_once
