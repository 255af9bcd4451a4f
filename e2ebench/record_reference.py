"""Record ``reference.json``: every workload's results for every input seed.

Run from the repository root, only for a change that is meant to alter
results (and say so in the change)::

    python3 e2ebench/record_reference.py

Each entry is the per-scenario summary (per-multiplier for the design
sweep) of one untraced run whose per-step invariants all held.
"""

from __future__ import annotations

import json
import sys

import spec
from run import REFERENCE_PATH, run_child


def main() -> int:
    reference: dict = {}
    for workload in spec.WORKLOADS:
        seeds = sorted({spec.input_seed(workload, seed) for seed in range(len(spec.INPUT_SEEDS))})
        for size in spec.SIZES:
            for seed in seeds:
                report = run_child(workload, seed, "untraced", size)
                if report["failures"]:
                    print(f"{workload} {size} seed {seed}: {report['failures'][:3]}", file=sys.stderr)
                    return 1
                reference.setdefault(workload, {}).setdefault(size, {})[str(seed)] = report["summary"]
                print(f"{workload} {size} seed {seed}: {report['wall_s']:.2f} s", flush=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
