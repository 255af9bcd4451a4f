"""End-to-end benchmark of the paper's two Section 5 pipelines.

Usage, from the repository root::

    python3 e2ebench/run.py --workload <name> --seed N --seconds S --trace 0|1

Workloads and metrics are listed in ``spec.py``.  Each measured run is a
fresh interpreter (``child.py``), so every run pays imports, input
construction and cold process-wide caches, as a user's run does; runs repeat
until ``--seconds`` is used up (at least ``MIN_RUNS``) and the medians are
reported.

``--trace 0`` reports the end-to-end metrics of untraced runs.  ``--trace 1``
alternates untraced and traced runs and reports the per-layer metrics of
the traced ones, with ``obs.overhead_frac`` from the pair.  Either way every
output is checked: per-step invariants, exact determinism across runs,
traced statistics equal to untraced ones, and per-scenario results against
``reference.json`` (1e-9 relative; satellite counts exact).  The last stdout
line is ``{"correct", "attempted", "failed", "metrics"}`` as JSON; the lines
before it are a human-readable report with quartiles and the layer map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"

#: Fewest untraced runs behind an end-to-end median.
MIN_RUNS = 3

#: A single run never takes longer than this [s].
RUN_TIMEOUT_S = 150.0

#: Relative tolerance of reference comparisons: loose enough for reordered
#: float sums (~1e-13), far tighter than any real change of result.
REFERENCE_RTOL = 1e-9


class Checks:
    """Counts output checks and keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def run_child(workload: str, seed: int, mode: str, size: str) -> dict:
    """Start one measured run in a fresh interpreter and return its report."""
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    command = [
        sys.executable,
        str(HERE / "child.py"),
        workload,
        "--seed",
        str(seed),
        "--mode",
        mode,
        "--size",
        size,
        "--spawned-at",
        repr(time.monotonic()),
    ]
    completed = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{mode} run of {workload} exited with {completed.returncode}: "
            f"{completed.stderr.strip()[-2000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def close(actual, expected) -> bool:
    if isinstance(expected, int) and not isinstance(expected, bool):
        return actual == expected
    return math.isclose(actual, expected, rel_tol=REFERENCE_RTOL, abs_tol=0.0)


def check_run(workload: str, report: dict, expected: dict | None, checks: Checks) -> None:
    """Reference and paper-shape checks of one run's per-scenario summary."""
    checks.attempted += report["attempted"]
    checks.failures.extend(report["failures"])
    summary = report["summary"]
    checks.expect(expected is not None, f"{workload}: no reference for these inputs")
    if expected is not None:
        checks.expect(
            sorted(summary) == sorted(expected),
            f"{workload}: scenarios {sorted(summary)} != reference {sorted(expected)}",
        )
        for key, values in expected.items():
            for name, value in values.items():
                actual = summary.get(key, {}).get(name)
                checks.expect(
                    actual is not None and close(actual, value),
                    f"{workload} {key} {name}: {actual!r} != reference {value!r}",
                )
    if spec.is_design(workload):
        # The paper's claim: SS-planes need fewer satellites and see less
        # electron radiation than Walker at every demand level.
        for key, row in summary.items():
            checks.expect(
                row["ss_satellites"] < row["walker_satellites"],
                f"x{key}: SS {row['ss_satellites']} satellites >= Walker "
                f"{row['walker_satellites']}",
            )
            checks.expect(
                row["ss_median_electron"] < row["walker_median_electron"],
                f"x{key}: SS median electron fluence {row['ss_median_electron']!r} >= "
                f"Walker {row['walker_median_electron']!r}",
            )


def repeat(runs: list, run_once, seconds: float, minimum: int) -> None:
    """Append ``run_once()`` results until the next one would overrun ``seconds``."""
    begin = time.monotonic()
    while True:
        runs.append(run_once())
        elapsed = time.monotonic() - begin
        if len(runs) >= minimum and elapsed * (len(runs) + 1) / len(runs) > seconds:
            return


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    reference: dict | None = None,
) -> tuple[dict, list[str]]:
    """Measure and check one workload; return the result object and report lines."""
    if reference is None:
        reference = json.loads(REFERENCE_PATH.read_text())
    inputs = spec.input_seed(workload, seed)
    expected = reference.get(workload, {}).get(size, {}).get(str(inputs))
    checks = Checks()
    untraced: list[dict] = []
    traced: list[dict] = []

    def attempt(mode: str) -> dict | None:
        # A run that raises is a failed output, not a crash of the benchmark.
        try:
            return run_child(workload, inputs, mode, size)
        except (RuntimeError, subprocess.TimeoutExpired) as error:
            checks.expect(False, f"{workload}: {error}")
            return None

    def run_pair() -> dict | None:
        untraced.append(attempt("untraced"))
        return attempt("traced")

    if trace:
        repeat(traced, run_pair, seconds, 1)
    else:
        repeat(untraced, lambda: attempt("untraced"), seconds, MIN_RUNS)
    untraced = [report for report in untraced if report is not None]
    traced = [report for report in traced if report is not None]
    if not untraced or (trace and not traced):
        raise RuntimeError(
            f"{workload}: no run completed: " + "; ".join(checks.failures[:3])
        )

    for report in untraced + traced:
        check_run(workload, report, expected, checks)
    first = untraced[0]["digests"]
    for report in untraced[1:] + traced:
        checks.expect(
            report["digests"] == first,
            f"{workload}: statistics differ between runs of the same inputs",
        )

    cells = spec.cells(workload, size)
    walls = [report["wall_s"] for report in untraced]
    lines = [
        f"{workload} ({size}, input seed {inputs}, {cells} cells per run, "
        f"{len(untraced)} untraced / {len(traced)} traced runs)"
    ]
    if trace:
        metrics = {
            name: float(statistics.median(report["layers"].get(name, 0.0) for report in traced))
            for name in spec.PER_LAYER
        }
        metrics["obs.overhead_frac"] = (
            statistics.median(report["wall_s"] for report in traced)
            / statistics.median(walls)
            - 1.0
        )
    else:
        samples = {
            "wall_s": walls,
            "cells_per_s": [cells / wall for wall in walls],
            "setup_s": [report["setup_s"] for report in untraced],
            "peak_rss_mb": [report["peak_rss_mb"] for report in untraced],
        }
        metrics = {}
        for name, values in samples.items():
            q1, median, q3 = quartiles(values)
            metrics[name] = median
            lines.append(
                f"  {name:<12} median {median:.4f} {spec.END_TO_END[name]}"
                f"  (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})"
            )
    failed = len(checks.failures)
    if trace:
        metrics["failed_frac"] = failed / checks.attempted
        units = spec.PER_LAYER
        for name, value in metrics.items():
            lines.append(f"  {name:<22} {value:.6g} {units[name]}")
        lines.append("  layer -> end-to-end map (metrics | layer | moves | on):")
        for names, layer, moves, on in spec.LAYER_MAP:
            lines.append(f"    {', '.join(names)} | {layer} | {moves} | {on}")
    else:
        units = spec.END_TO_END
    lines.append(f"  checks: {checks.attempted} attempted, {failed} failed")
    lines.extend(f"  FAILED: {message}" for message in checks.failures[:10])
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, lines = run_benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except RuntimeError as error:
        print(f"e2ebench: {error}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
