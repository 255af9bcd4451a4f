"""Interleaved parent/change runs of one e2ebench workload, with the claim gates.

A pair is one ``e2ebench/run.py --workload W --seed i --seconds S --trace 0``
run in each tree, for pair ``i`` (1, 2, ...), with the side that goes first
alternating from pair to pair, so slow drift of the machine's load hits
both sides alike.  Each run reports the median of its own repeated
measured runs.  The script judges one end-to-end metric as a claim
(``--metric``, ``wall_s`` by default, its direction read from
``BENCHMARK.json``) and every other end-to-end metric of the same runs
against its ``bound``, so one set of pairs covers them all.

For the claimed metric it prints every pair, each side's median and
quartiles over the pairs and the change's win count, and whether both
claim gates pass:

* the change is better in at least 9 of every 10 pairs;
* its median beats the parent's by more than the parent's interquartile
  range.

Every other end-to-end metric gets both sides' medians and quartiles and
a verdict: ``worse`` when the change's median is worse than the parent's
by more than the metric's ``bound`` (a share of the parent's median);
otherwise ``unresolved`` when the parent's IQR is wider than that bound,
unless every change run beats every parent run; otherwise ``ok``.

It exits 1 when any run fails or reports ``correct: false`` or a
``failed`` count above 0, and 0 otherwise, whether or not the gates pass.

Usage::

    python benchmarks/pair_runs.py PARENT_DIR --workload W --pairs N --seconds S \\
        [--metric wall_s]

``PARENT_DIR`` is the other tree, e.g. made with
``git archive <commit> | tar -x -C PARENT_DIR``; the tree compared with it
is the one holding this script.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Share of pairs the change must win.
WIN_SHARE = 0.9


def end_to_end_metrics() -> dict[str, dict]:
    """End-to-end metric name -> its ``BENCHMARK.json`` entry.

    Each entry has ``better`` (``"lower"``/``"higher"``) and ``bound``.
    """
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric for metric in declared["end_to_end"]}


def run(tree: Path, workload: str, seed: int, seconds: float) -> "dict | None":
    """The last-line JSON report of one ``run.py`` call in ``tree``.

    ``None`` (after printing why) when the run fails or any output check
    of it failed.
    """
    command = [
        sys.executable,
        str(tree / "e2ebench" / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        repr(seconds),
        "--trace",
        "0",
    ]
    completed = subprocess.run(
        command, cwd=tree, capture_output=True, text=True, check=False
    )
    lines = completed.stdout.strip().splitlines()
    report = json.loads(lines[-1]) if completed.returncode == 0 and lines else None
    if report is None or report["correct"] is not True or report["failed"] > 0:
        detail = lines[-1] if report is not None else completed.stderr.strip()[-2000:]
        print(f"FAILED {workload} seed {seed} in {tree}:\n{detail}", flush=True)
        return None
    return report


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], metric: dict) -> str:
    """``worse``, ``unresolved`` or ``ok`` for a metric that is not claimed."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    parent_q1, parent_median, parent_q3 = quartiles(parent)
    allowed = metric["bound"] * abs(parent_median)
    if sign * (quartiles(change)[1] - parent_median) > allowed:
        return "worse"
    beats_all = max(sign * v for v in change) < min(sign * v for v in parent)
    if parent_q3 - parent_q1 > allowed and not beats_all:
        return "unresolved"
    return "ok"


def main(argv=None) -> int:
    directions = end_to_end_metrics()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the tree to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--metric", choices=sorted(directions), default="wall_s")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    parent = args.parent.resolve()
    sign = 1.0 if directions[args.metric]["better"] == "lower" else -1.0
    sides = {"parent": parent, "change": ROOT}
    # Every end-to-end metric of each completed run, per side.
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    wins = 0
    failed = False
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        reports = {
            side: run(sides[side], args.workload, pair, args.seconds) for side in order
        }
        if any(report is None for report in reports.values()):
            failed = True
            continue
        for side in order:
            metrics = reports[side]["metrics"]
            runs[side].append({name: metrics[name]["value"] for name in directions})
        got = {side: runs[side][-1][args.metric] for side in order}
        won = sign * got["change"] < sign * got["parent"]
        wins += won
        print(
            f"pair {pair} (seed {pair}, {order[0]} first): parent {got['parent']:.4f}, "
            f"change {got['change']:.4f} -> {'change' if won else 'parent'} wins",
            flush=True,
        )
    if not runs["parent"]:
        print("no pair completed")
        return 1
    values = {side: [run[args.metric] for run in runs[side]] for side in runs}
    summary = {side: quartiles(values[side]) for side in values}
    for side, (q1, median, q3) in summary.items():
        print(f"{side:<6} {args.metric} median {median:.4f} (q1 {q1:.4f}, q3 {q3:.4f})")
    pairs = len(values["parent"])
    parent_q1, parent_median, parent_q3 = summary["parent"]
    gap = sign * (parent_median - summary["change"][1])
    enough_wins = wins >= math.ceil(WIN_SHARE * pairs)
    wide_gap = gap > parent_q3 - parent_q1
    print(
        f"change wins {wins}/{pairs} pairs (gate >= {math.ceil(WIN_SHARE * pairs)}: "
        f"{'pass' if enough_wins else 'fail'}); median gain {gap:.4f} vs parent IQR "
        f"{parent_q3 - parent_q1:.4f} ({'pass' if wide_gap else 'fail'}); "
        f"claim gates {'pass' if enough_wins and wide_gap else 'fail'}"
    )
    for name, metric in directions.items():
        if name == args.metric:
            continue
        both = {side: [run[name] for run in runs[side]] for side in runs}
        for side, side_values in both.items():
            q1, median, q3 = quartiles(side_values)
            print(f"{side:<6} {name} median {median:.4f} (q1 {q1:.4f}, q3 {q3:.4f})")
        print(
            f"{name} (bound {metric['bound']}): "
            f"{verdict(both['parent'], both['change'], metric)}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
