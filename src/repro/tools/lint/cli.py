"""Command-line interface: ``python -m repro.tools.lint [paths...]``.

Typical invocations::

    python -m repro.tools.lint src/repro              # lint the library
    python -m repro.tools.lint src tests benchmarks --format=json
    python -m repro.tools.lint src --select RPL001,RPL004
    python -m repro.tools.lint src tests benchmarks --write-baseline

When ``lint-baseline.json`` exists in the working directory (or is named
via ``--baseline``) the run compares against it: findings covered by the
baseline are allowed, new findings fail, and stale baseline entries --
violations that have since been fixed -- fail as well so the baseline
shrinks monotonically.  Exit codes: 0 clean, 1 findings/new findings or
stale entries, 2 usage error.  A timing line goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .baseline import compare_with_baseline, load_baseline, write_baseline
from .engine import Finding, LintRunner
from .registries import check_registries
from .rules import all_rules

__all__ = ["main", "run_lint"]

DEFAULT_BASELINE = "lint-baseline.json"


def _parse_codes(value: "str | None") -> "set[str] | None":
    if value is None:
        return None
    codes = {code.strip() for code in value.split(",") if code.strip()}
    return codes or None


def _enabled_predicate(
    select: "set[str] | None", ignore: "set[str] | None"
):
    """Which rule codes this invocation runs, per --select/--ignore."""

    def enabled(code: str) -> bool:
        if select is not None and code not in select:
            return False
        return not (ignore and code in ignore)

    return enabled


def run_lint(
    paths: "list[str]",
    select: "set[str] | None" = None,
    ignore: "set[str] | None" = None,
    registries: bool = True,
    root: "Path | None" = None,
) -> list[Finding]:
    """Programmatic entry point: lint ``paths`` and return the findings."""
    module_rules, project_rules = all_rules()
    enabled = _enabled_predicate(select, ignore)
    runner = LintRunner(
        module_rules=[rule for rule in module_rules if enabled(rule.code)],
        project_rules=[rule for rule in project_rules if enabled(rule.code)],
        root=root if root is not None else Path.cwd(),
    )
    findings = runner.run(paths)
    if registries:
        findings.extend(
            finding
            for finding in check_registries()
            if enabled(finding.rule)
        )
    return findings


def _render_text(
    findings: list[Finding],
    comparison,
    stream,
    paths: "list[str] | None" = None,
) -> None:
    if comparison is None:
        for finding in findings:
            print(finding.render(), file=stream)
        print(f"{len(findings)} finding(s)", file=stream)
        return
    for finding in comparison.new:
        print(finding.render(), file=stream)
    for entry in comparison.stale:
        print(
            f"{entry.path}: {entry.rule}: stale baseline entry (violation "
            f"fixed -- regenerate with --write-baseline): {entry.message}",
            file=stream,
        )
    print(
        f"{len(comparison.new)} new finding(s), "
        f"{len(comparison.matched)} baselined, "
        f"{len(comparison.stale)} stale baseline entr(y/ies)",
        file=stream,
    )
    if comparison.stale and paths:
        shrunk = len(comparison.matched) + len(comparison.new)
        print(
            "baseline is stale; regenerate it with:\n"
            f"    python -m repro.tools.lint {' '.join(paths)} "
            "--write-baseline\n"
            f"(the rewritten baseline would hold {shrunk} entr(y/ies), "
            f"down by {len(comparison.stale)})",
            file=stream,
        )


def _render_json(
    findings: list[Finding],
    comparison,
    stream,
    paths: "list[str] | None" = None,
) -> None:
    def records(items: list[Finding]) -> list[dict]:
        return [
            {
                "rule": finding.rule,
                "path": finding.path,
                "line": finding.line,
                "symbol": finding.symbol,
                "message": finding.message,
            }
            for finding in items
        ]

    if comparison is None:
        document = {"findings": records(findings)}
    else:
        document = {
            "new": records(comparison.new),
            "baselined": records(comparison.matched),
            "stale": records(comparison.stale),
        }
    json.dump(document, stream, indent=2)
    stream.write("\n")


def _render_github(
    findings: list[Finding],
    comparison,
    stream,
    paths: "list[str] | None" = None,
) -> None:
    """GitHub Actions workflow commands: findings annotate the PR diff."""

    def annotate(finding: Finding, kind: str = "error") -> None:
        # Newlines and '::' would terminate the workflow command early.
        message = finding.message.replace("\n", " ").replace("::", ":")
        print(
            f"::{kind} file={finding.path},line={finding.line},"
            f"title=repro-lint {finding.rule}::{message}",
            file=stream,
        )

    reported = comparison.new if comparison is not None else findings
    for finding in reported:
        annotate(finding)
    if comparison is not None:
        for entry in comparison.stale:
            message = entry.message.replace("\n", " ").replace("::", ":")
            print(
                f"::warning title=repro-lint stale baseline::{entry.path}: "
                f"{entry.rule}: {message} -- regenerate with --write-baseline",
                file=stream,
            )
    # The human-readable summary still goes to the job log.
    _render_text(findings, comparison, stream, paths)


_RENDERERS = {
    "text": _render_text,
    "json": _render_json,
    "github": _render_github,
}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant checker for the repro engine: determinism, "
            "worker-payload picklability, shared-state, float-loop and "
            "dataclass-hygiene rules, interprocedural seed-provenance / "
            "executor-race / merge-safety analyses, plus live registry "
            "conformance."
        ),
    )
    parser.add_argument("paths", nargs="+", help="files or directories to lint")
    parser.add_argument(
        "--select",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--format",
        choices=tuple(_RENDERERS),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        help=(
            "baseline file to compare against (default: "
            f"{DEFAULT_BASELINE} in the working directory, if present)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--no-registries",
        action="store_true",
        help="skip the import-and-inspect registry conformance layer",
    )
    args = parser.parse_args(argv)

    select = _parse_codes(args.select)
    ignore = _parse_codes(args.ignore)
    registries = not args.no_registries

    started = time.monotonic()
    try:
        findings = run_lint(
            args.paths,
            select=select,
            ignore=ignore,
            registries=registries,
        )
    except FileNotFoundError as error:
        print(f"repro-lint: error: {error}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - started
    print(f"repro-lint: {elapsed:.2f}s", file=sys.stderr)

    baseline_path: "Path | None" = None
    if args.write_baseline or not args.no_baseline:
        if args.baseline is not None:
            baseline_path = Path(args.baseline)
        elif Path(DEFAULT_BASELINE).exists() or args.write_baseline:
            baseline_path = Path(DEFAULT_BASELINE)

    if args.write_baseline:
        if baseline_path is None:  # pragma: no cover - defaulted above
            baseline_path = Path(DEFAULT_BASELINE)
        write_baseline(baseline_path, findings)
        print(
            f"wrote {len(findings)} finding(s) to {baseline_path}",
            file=sys.stdout,
        )
        return 0

    comparison = None
    if baseline_path is not None and not args.no_baseline:
        if not baseline_path.exists():
            print(
                f"repro-lint: error: baseline {baseline_path} does not exist",
                file=sys.stderr,
            )
            return 2
        try:
            baseline = load_baseline(baseline_path)
        except (ValueError, KeyError, json.JSONDecodeError) as error:
            print(
                f"repro-lint: error: malformed baseline {baseline_path}: {error}",
                file=sys.stderr,
            )
            return 2
        scope = [str(path) for path in args.paths]
        if registries:
            scope.append("")  # registry findings are dotted-module scoped
        comparison = compare_with_baseline(
            findings,
            baseline,
            scope,
            enabled=_enabled_predicate(select, ignore),
        )

    render = _RENDERERS[args.format]
    render(findings, comparison, sys.stdout, paths=list(args.paths))
    if comparison is not None:
        return 0 if comparison.clean else 1
    return 0 if not findings else 1
