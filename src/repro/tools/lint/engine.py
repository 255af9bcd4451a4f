"""Core of the ``repro-lint`` static analyzer: findings, rules, the runner.

The engine is deliberately small: a :class:`Finding` is a plain value, a
rule is an object with a ``code`` and a ``check`` hook, and the
:class:`LintRunner` walks a set of Python files, parses each one once into a
:class:`ModuleSource`, and hands the sources to every enabled rule.  Rules
come in two shapes:

* :class:`ModuleRule` -- checks one module at a time from its AST alone
  (the determinism, float-loop, shared-state and dataclass-hygiene rules);
* :class:`DataflowRule` -- sees every linted module at once through the
  shared call-graph substrate, for analyses that need cross-module context
  (picklability, seed provenance, executor races).

Suppressions are inline comments on the *flagged line*::

    rng = np.random.default_rng()  # repro-lint: ignore[RPL001]

A suppression that silences nothing is itself a finding (``RPL000``), so
stale ignores cannot linger after the underlying violation is fixed.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .dataflow import Project

__all__ = [
    "Finding",
    "ModuleSource",
    "ModuleRule",
    "DataflowRule",
    "LintRunner",
    "collect_python_files",
    "parse_module",
    "UNUSED_SUPPRESSION",
    "PARSE_ERROR",
]

#: Code reported for a suppression comment that silenced no finding.
UNUSED_SUPPRESSION = "RPL000"
#: Code reported for a module the parser could not read.
PARSE_ERROR = "RPL099"

_SUPPRESSION_RE = re.compile(r"#\s*repro-lint:\s*ignore\[([A-Z0-9,\s]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one site.

    ``symbol`` is the enclosing class/function qualname (empty at module
    level); together with ``rule``, ``path`` and ``message`` it forms the
    baseline fingerprint, which deliberately excludes the line number so
    unrelated edits above a tracked finding do not invalidate the baseline.
    """

    rule: str
    path: str
    line: int
    message: str
    symbol: str = ""

    def fingerprint(self) -> str:
        """Stable identity of the finding for baseline matching."""
        return f"{self.path}::{self.rule}::{self.symbol}::{self.message}"

    def render(self) -> str:
        """One-line human-readable form."""
        location = f"{self.path}:{self.line}"
        context = f" [{self.symbol}]" if self.symbol else ""
        return f"{location}: {self.rule}{context}: {self.message}"


class ModuleSource:
    """One parsed Python file: source text, AST, and derived lookups."""

    def __init__(self, path: Path, rel_path: str, text: str, tree: ast.Module):
        self.path = path
        self.rel_path = rel_path
        self.text = text
        self.tree = tree
        self.lines = text.splitlines()
        #: line number -> set of rule codes suppressed on that line
        self.suppressions: dict[int, set[str]] = {}
        for number, comment in _comment_tokens(text):
            match = _SUPPRESSION_RE.search(comment)
            if match:
                codes = {code.strip() for code in match.group(1).split(",")}
                self.suppressions[number] = {code for code in codes if code}
        self._qualnames = _build_qualname_map(tree)

    def symbol_at(self, node: ast.AST) -> str:
        """Qualname of the innermost def/class enclosing ``node``."""
        return self._qualnames.get(id(node), "")

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node`` in this module."""
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=rule,
            path=self.rel_path,
            line=line,
            message=message,
            symbol=self.symbol_at(node),
        )


def _comment_tokens(text: str) -> Iterator[tuple[int, str]]:
    """Yield ``(line, comment_text)`` for every real comment token.

    Tokenising (rather than regex-scanning raw lines) keeps suppression
    syntax quoted inside strings or docstrings from being treated as live.
    """
    try:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except tokenize.TokenError:  # pragma: no cover - ast.parse ran first
        return


def _build_qualname_map(tree: ast.Module) -> dict[int, str]:
    """Map every AST node id to its enclosing def/class qualname."""
    qualnames: dict[int, str] = {}

    def walk(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            child_scope = scope
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                child_scope = f"{scope}.{child.name}" if scope else child.name
                qualnames[id(child)] = child_scope
            else:
                qualnames[id(child)] = scope
            walk(child, child_scope)

    walk(tree, "")
    return qualnames


class ModuleRule:
    """A rule that inspects one module at a time."""

    code: str = ""
    name: str = ""
    description: str = ""

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        raise NotImplementedError


class DataflowRule:
    """A rule that inspects every linted module together.

    The runner constructs one :class:`repro.tools.lint.dataflow.Project`
    (import graph + caller index) per run and hands it to every dataflow
    rule, so the substrate is built once rather than per rule.
    """

    code: str = ""
    name: str = ""
    description: str = ""

    def check_dataflow(self, project: "Project") -> Iterator[Finding]:
        raise NotImplementedError


def collect_python_files(
    paths: Iterable[str | Path],
    errors: "list[Finding] | None" = None,
    root: "Path | None" = None,
) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list.

    Directories that cannot be listed do not vanish silently: when
    ``errors`` is given, each failure is recorded as an ``RPL099``
    finding (reported relative to ``root``) so a permissions problem
    surfaces in the lint output instead of shrinking its coverage.
    """
    seen: dict[Path, None] = {}
    report_root = Path(root) if root is not None else Path.cwd()

    def note(target: "str | Path", error: OSError) -> None:
        if errors is None:
            return
        errors.append(
            Finding(
                rule=PARSE_ERROR,
                path=_relative_path(Path(target), report_root),
                line=1,
                message=f"path could not be read: {error}",
            )
        )

    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = []
            for dirpath, dirnames, filenames in os.walk(
                path, onerror=lambda error: note(error.filename or path, error)
            ):
                dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        candidates.append(Path(dirpath) / filename)
        elif path.suffix == ".py":
            candidates = [path]
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            seen.setdefault(candidate.resolve(), None)
    return list(seen)


def _relative_path(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def parse_module(path: Path, root: Path) -> "ModuleSource | Finding":
    """Parse one file; an unreadable module becomes a ``RPL099`` finding."""
    rel = _relative_path(path, root)
    try:
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
    except (OSError, SyntaxError, ValueError) as error:
        line = getattr(error, "lineno", 1) or 1
        return Finding(
            rule=PARSE_ERROR,
            path=rel,
            line=line,
            message=f"module could not be parsed: {error}",
        )
    return ModuleSource(path=path, rel_path=rel, text=text, tree=tree)


@dataclass
class LintRunner:
    """Run a set of rules over a set of paths and apply suppressions."""

    module_rules: list[ModuleRule] = field(default_factory=list)
    project_rules: list[DataflowRule] = field(default_factory=list)
    #: Root that file paths are reported relative to (defaults to cwd).
    root: Path = field(default_factory=Path.cwd)

    def enabled_codes(self) -> set[str]:
        codes = {rule.code for rule in self.module_rules}
        codes.update(rule.code for rule in self.project_rules)
        return codes

    def run(self, paths: Iterable[str | Path]) -> list[Finding]:
        """Lint ``paths`` and return surviving findings, sorted by site."""
        findings: list[Finding] = []
        files = collect_python_files(paths, errors=findings, root=self.root)
        modules: list[ModuleSource] = []
        for path in files:
            parsed = parse_module(path, self.root)
            if isinstance(parsed, Finding):
                findings.append(parsed)
            else:
                modules.append(parsed)

        for module in modules:
            for rule in self.module_rules:
                findings.extend(rule.check(module))
        if self.project_rules:
            from .dataflow import Project

            project = Project(modules)
            for rule in self.project_rules:
                findings.extend(rule.check_dataflow(project))
        findings = self._apply_suppressions(modules, findings)
        findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
        return findings

    def _apply_suppressions(
        self, modules: list[ModuleSource], findings: list[Finding]
    ) -> list[Finding]:
        """Drop suppressed findings; flag suppressions that did nothing."""
        by_path = {module.rel_path: module for module in modules}
        used: set[tuple[str, int, str]] = set()
        kept: list[Finding] = []
        for finding in findings:
            module = by_path.get(finding.path)
            codes = module.suppressions.get(finding.line, set()) if module else set()
            if finding.rule in codes:
                used.add((finding.path, finding.line, finding.rule))
            else:
                kept.append(finding)
        enabled = self.enabled_codes()
        for module in modules:
            for line, codes in sorted(module.suppressions.items()):
                for code in sorted(codes):
                    if code not in enabled:
                        # The rule did not run (e.g. --select narrowed the
                        # set): the suppression cannot be judged unused.
                        continue
                    if (module.rel_path, line, code) not in used:
                        kept.append(
                            Finding(
                                rule=UNUSED_SUPPRESSION,
                                path=module.rel_path,
                                line=line,
                                message=(
                                    f"suppression ignore[{code}] matches no "
                                    f"finding on this line; remove it"
                                ),
                            )
                        )
        return kept
