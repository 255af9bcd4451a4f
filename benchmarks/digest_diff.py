"""Compare the end-to-end sweeps' step digests and telemetry between two source trees.

A step digest is the SHA-256 of one scenario's list of
:class:`~repro.network.simulation.StepStatistics` (every field, the
per-step ``top_pairs`` included), as ``e2ebench/child.py`` prints it.  The
step lists do not cover the run-level telemetry aggregates
(``SimulationResult.telemetry`` and ``.link_telemetry``, merged over the
steps), so each of those is digested too: the SHA-256 of its
``top_pairs(64)`` and ``total()``.  A change that must keep the sweeps'
results bit-identical has the same digests as its parent on every
(sweep, input seed).

The script runs each sweep once per input seed (``sweep-proportional``,
``sweep-maxmin`` and ``sweep-steered-faults`` at each seed of
``spec.INPUT_SEEDS``: 24 runs) in each tree, untraced, in a subprocess
that builds the sweep through the tree's own ``e2ebench/child.py``
(``SweepInputs`` and ``sweep_summary``) on the tree's own ``src``.  It
prints every (sweep, seed, scenario, digest) that differs, or is missing
on one side, and every run that fails; it exits 1 if there is any, and 0
otherwise.  Its last line is a summary.

Usage::

    python benchmarks/digest_diff.py PARENT_DIR [--size full|tiny]

``PARENT_DIR`` is the other tree, e.g. made with
``git archive <commit> | tar -x -C PARENT_DIR``; the tree compared with it
is the one holding this script.  At ``--size full`` (the default) a tree
takes about two minutes on a 2-core machine; ``--size tiny`` keeps every
code path and takes a few seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SWEEPS = ("sweep-proportional", "sweep-maxmin", "sweep-steered-faults")


def input_seeds(tree: Path) -> tuple[int, ...]:
    """``spec.INPUT_SEEDS`` of ``tree``'s end-to-end benchmark."""
    sys.path.insert(0, str(tree / "e2ebench"))
    try:
        import spec
    finally:
        sys.path.pop(0)
    return tuple(spec.INPUT_SEEDS)


#: The subprocess: ``python -c RUN E2EBENCH_DIR SWEEP SIZE SEED`` prints one
#: JSON line, scenario -> {digest name -> hex digest or None}.
RUN = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
from child import SweepInputs, sweep_summary

def aggregate(telemetry):
    if telemetry is None:
        return None
    summary = repr((telemetry.top_pairs(64), telemetry.total()))
    return hashlib.sha256(summary.encode()).hexdigest()

results = SweepInputs(sys.argv[2], sys.argv[3], int(sys.argv[4])).run(instrument=False)
_, steps = sweep_summary(results)
print(json.dumps({
    name: {
        "steps": steps[name],
        "telemetry": aggregate(result.telemetry),
        "link_telemetry": aggregate(result.link_telemetry),
    }
    for name, result in results.items()
}))
"""


def digests(tree: Path, sweep: str, seed: int, size: str) -> "dict[str, dict] | None":
    """Scenario -> digests of one untraced sweep run in ``tree``.

    ``None`` (after printing the end of its stderr) when the run fails.
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    command = [sys.executable, "-c", RUN, str(tree / "e2ebench"), sweep, size, str(seed)]
    completed = subprocess.run(
        command, cwd=tree, env=env, capture_output=True, text=True, check=False
    )
    if completed.returncode != 0:
        print(
            f"FAILED {sweep} seed {seed} in {tree} (exit {completed.returncode}):\n"
            f"{completed.stderr.strip()[-2000:]}",
            flush=True,
        )
        return None
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the tree to compare against")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    seeds = input_seeds(ROOT)
    differing = 0
    for sweep in SWEEPS:
        for seed in seeds:
            mine = digests(ROOT, sweep, seed, args.size)
            theirs = digests(parent, sweep, seed, args.size)
            if mine is None or theirs is None:
                differing += 1
                continue
            for scenario in sorted(mine.keys() | theirs.keys()):
                ours, parents = mine.get(scenario, {}), theirs.get(scenario, {})
                for name in sorted(ours.keys() | parents.keys()):
                    if ours.get(name, "missing") != parents.get(name, "missing"):
                        differing += 1
                        print(
                            f"DIFFERS {sweep} seed {seed} {scenario} {name}: "
                            f"parent {parents.get(name, 'missing')} "
                            f"change {ours.get(name, 'missing')}",
                            flush=True,
                        )
    runs = len(SWEEPS) * len(seeds)
    print(
        f"{runs} (sweep, seed) runs per tree at size {args.size}: "
        f"{differing} digest(s) differ or run(s) failed"
    )
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
