"""Self-test of the end-to-end benchmark at the tiny problem size.

Run from the repository root (about a minute)::

    python3 e2ebench/selftest.py

For every workload, untraced and traced: every metric of ``BENCHMARK.json``
is reported with its unit, every output check passes, and on traced runs
the stage seconds plus ``unattributed.s`` add up to ``traced.wall_s``.  Then
a perturbed reference value must drive ``failed_frac`` above 0.
"""

from __future__ import annotations

import copy
import json
import math
import sys

import spec
from run import REFERENCE_PATH, ROOT, run_benchmark

SEED = 3


def declared_metrics() -> tuple[dict, dict]:
    """End-to-end and per-layer ``{name: unit}`` of ``BENCHMARK.json``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {row["name"]: row["unit"] for row in declared["end_to_end"]},
        {row["name"]: row["unit"] for row in declared["per_layer"]},
    )


def check_workload(workload: str, trace: bool, reference: dict, declared: dict) -> list[str]:
    result, lines = run_benchmark(workload, SEED, 0.0, trace, "tiny", reference)
    label = f"{workload} trace={int(trace)}"
    problems = []
    reported = {name: row["unit"] for name, row in result["metrics"].items()}
    if reported != declared:
        problems.append(f"{label}: metrics {reported} != BENCHMARK.json {declared}")
    report = "\n".join(lines)
    problems.extend(
        f"{label}: {name} missing from the report" for name in declared if name not in report
    )
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: checks failed:\n{report}")
    if trace:
        values = {name: row["value"] for name, row in result["metrics"].items()}
        parts = spec.DESIGN_CALL_METRICS if spec.is_design(workload) else spec.STAGE_METRICS
        total = sum(values[name] for name in parts) + values["unattributed.s"]
        if not math.isclose(total, values["traced.wall_s"], rel_tol=1e-9):
            problems.append(f"{label}: parts sum to {total}, traced wall {values['traced.wall_s']}")
        if values["failed_frac"] != 0.0:
            problems.append(f"{label}: failed_frac {values['failed_frac']}")
    return problems


def check_perturbed(workload: str, reference: dict) -> list[str]:
    """A reference value off by far more than the tolerance must fail the run."""
    perturbed = copy.deepcopy(reference)
    seeds = perturbed[workload]["tiny"]
    entry = seeds[str(spec.input_seed(workload, SEED))]
    values = entry[sorted(entry)[0]]
    name = sorted(values)[0]
    values[name] = values[name] + 1 if isinstance(values[name], int) else values[name] * (1 + 1e-6)
    result, _ = run_benchmark(workload, SEED, 0.0, True, "tiny", perturbed)
    if result["metrics"]["failed_frac"]["value"] <= 0.0 or result["correct"]:
        return [f"{workload}: perturbed reference {name} did not fail the run"]
    return []


def main() -> int:
    reference = json.loads(REFERENCE_PATH.read_text())
    end_to_end, per_layer = declared_metrics()
    problems = []
    if end_to_end != spec.END_TO_END or per_layer != spec.PER_LAYER:
        problems.append("BENCHMARK.json metrics differ from spec.py")
    for workload in spec.WORKLOADS:
        for trace, declared in ((False, end_to_end), (True, per_layer)):
            problems.extend(check_workload(workload, trace, reference, declared))
            print(f"{workload} trace={int(trace)}: done", flush=True)
    for workload in ("sweep-proportional", "design-fig9"):
        problems.extend(check_perturbed(workload, reference))
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test passed" if not problems else f"self-test: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
