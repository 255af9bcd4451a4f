"""Command-line interface: ``python -m repro.tools.lint [paths...]``.

Typical invocations::

    python -m repro.tools.lint src/repro              # lint the library
    python -m repro.tools.lint src tests benchmarks --format=json
    python -m repro.tools.lint src --select RPL001,RPL004

Every finding fails the run.  Exit codes: 0 no findings, 1 any finding,
2 usage error.  A timing line goes to stderr, with the run's seconds split
by stage (parsing, each rule, the shared project build, the registries).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .engine import Finding, LintRunner, _timed
from .registries import check_registries
from .rules import all_rules

__all__ = ["main", "run_lint"]


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
    timings: "dict[str, float] | None" = None,
) -> list[Finding]:
    """Programmatic entry point: lint ``paths`` and return the findings.

    When ``timings`` is given it is filled with the seconds spent per stage
    (see :attr:`LintRunner.timings`, plus ``registries``).
    """
    module_rules, project_rules = all_rules()
    enabled = _enabled_predicate(select, ignore)
    runner = LintRunner(
        module_rules=[rule for rule in module_rules if enabled(rule.code)],
        project_rules=[rule for rule in project_rules if enabled(rule.code)],
        root=root if root is not None else Path.cwd(),
    )
    findings = runner.run(paths)
    if registries:
        with _timed(runner.timings, "registries"):
            findings.extend(
                finding
                for finding in check_registries()
                if enabled(finding.rule)
            )
    if timings is not None:
        timings.update(runner.timings)
    return findings


def _render_text(findings: list[Finding], stream) -> None:
    for finding in findings:
        print(finding.render(), file=stream)
    print(f"{len(findings)} finding(s)", file=stream)


def _render_json(findings: list[Finding], stream) -> None:
    document = {
        "findings": [
            {
                "rule": finding.rule,
                "path": finding.path,
                "line": finding.line,
                "symbol": finding.symbol,
                "message": finding.message,
            }
            for finding in findings
        ]
    }
    json.dump(document, stream, indent=2)
    stream.write("\n")


def _render_github(findings: list[Finding], stream) -> None:
    """GitHub Actions workflow commands: findings annotate the PR diff."""
    for finding in findings:
        # Newlines and '::' would terminate the workflow command early.
        message = finding.message.replace("\n", " ").replace("::", ":")
        print(
            f"::error file={finding.path},line={finding.line},"
            f"title=repro-lint {finding.rule}::{message}",
            file=stream,
        )
    # The human-readable summary still goes to the job log.
    _render_text(findings, stream)


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
        "--no-registries",
        action="store_true",
        help="skip the import-and-inspect registry conformance layer",
    )
    args = parser.parse_args(argv)

    select = _parse_codes(args.select)
    ignore = _parse_codes(args.ignore)
    registries = not args.no_registries

    started = time.monotonic()
    timings: dict[str, float] = {}
    try:
        findings = run_lint(
            args.paths,
            select=select,
            ignore=ignore,
            registries=registries,
            timings=timings,
        )
    except FileNotFoundError as error:
        print(f"repro-lint: error: {error}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - started
    split = ", ".join(
        f"{stage} {seconds:.2f}s"
        for stage, seconds in sorted(timings.items(), key=lambda item: -item[1])
    )
    print(f"repro-lint: {elapsed:.2f}s ({split})", file=sys.stderr)

    _RENDERERS[args.format](findings, sys.stdout)
    return 0 if not findings else 1
