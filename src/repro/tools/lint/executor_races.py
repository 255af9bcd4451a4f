"""RPL008 -- executor sites: process pools only, no module-global writes.

RPL003 catches the *syntactic* shape of shared mutable state (module
globals mutated in functions).  This rule is its interprocedural twin.
Starting from every ``ThreadPoolExecutor`` / ``ProcessPoolExecutor``
``submit``/``map`` site, it checks two things:

* a ``ThreadPoolExecutor`` site is a finding in itself.  The library
  parallelises sweeps over worker processes only, and thread workers share
  every object they capture, so a thread pool reopens the
  ``_SharedRouteCache`` bug class (an unlocked cache written from several
  workers) that process workers cannot have;
* from each site whose target is a module-level function, the rule walks
  the call graph the worker can reach and flags writes that diverge
  between the driver and its workers: mutation of module-level mutable
  containers -- the frame's own module's or one imported from another
  linted module (which RPL003, being per-module, cannot see) -- and
  rebinding through ``global`` / ``nonlocal`` declarations.  A lock does
  not help: each worker process writes its own copy.

Objects the worker (or anything it calls) constructs itself are not
shared: building local accumulators and ``merge()``-ing them in the driver
is the sanctioned pattern.  Lambdas and nested workers are left to RPL002,
which flags them on process pools.

Callees resolve through :meth:`~repro.tools.lint.dataflow.Project.resolve_name`
and receiver types through parameter annotations and local ``X(...)``
construction only; an unresolvable callee produces silence, not a guess.
Writes inside the worker frame anchor at the write statement; writes in
called code anchor at the callee's ``def`` line, aggregated per callee, so
one suppression can cover a method whose single-owner discipline the
analysis cannot see.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .engine import DataflowRule, Finding
from .dataflow import FunctionInfo, ModuleInfo, Project, SubmitSite
from .shared_state import _MUTATORS, _module_level_containers

__all__ = ["ExecutorRaceRule"]

_MAX_DEPTH = 8


class _Write:
    """One flagged module-global write."""

    __slots__ = ("module", "node", "function", "detail")

    def __init__(self, module, node, function, detail):
        self.module = module
        self.node = node
        self.function = function
        self.detail = detail


class ExecutorRaceRule(DataflowRule):
    code = "RPL008"
    name = "executor-race-detection"
    description = (
        "executor submit/map sites use process pools, and code reachable "
        "from them must not write module globals"
    )

    def check_dataflow(self, project: Project) -> Iterator[Finding]:
        self._container_cache: dict[str, set[str]] = {}
        findings: dict[tuple[str, int, str], Finding] = {}
        for site in project.submit_sites():
            for finding in self._check_site(project, site):
                findings.setdefault(
                    (finding.path, finding.line, finding.message), finding
                )
        yield from (findings[key] for key in sorted(findings))

    def _check_site(
        self, project: Project, site: SubmitSite
    ) -> Iterator[Finding]:
        root = (
            f"{site.kind.title()}PoolExecutor.{site.method} in "
            f"{site.module.source.symbol_at(site.node) or site.module.rel_path}"
        )
        if site.kind == "thread":
            yield site.module.source.finding(
                self.code,
                site.node,
                f"{root} runs work on threads, which share every captured "
                "object; parallelise over a ProcessPoolExecutor (or run "
                "serially) instead",
            )
        target = site.target
        if not isinstance(target, ast.Name) or site.nested_target() is not None:
            return
        resolved = project.resolve_name(site.module, target.id)
        if resolved is None or resolved[0] != "function":
            return
        writes: list[_Write] = []
        module = resolved[1]
        self._walk(project, module, module.functions[resolved[2]], writes, set(), 0)
        yield from self._render(writes, root)

    def _global_containers(
        self, project: Project, module: ModuleInfo
    ) -> set[str]:
        """Module-level mutable containers visible by name in ``module``:
        its own plus names imported from other linted modules' containers
        (a cross-module mutation RPL003, being per-module, cannot see)."""
        cached = self._container_cache.get(module.rel_path)
        if cached is not None:
            return cached
        containers = set(_module_level_containers(module.source.tree))
        for local, dotted in module.imports.items():
            symbol = dotted.rsplit(".", 1)[-1]
            if local != symbol:
                continue  # aliased or whole-module imports mutate via attrs
            target_file = project.import_graph.resolve(
                module.rel_path, module.raw_import(local)
            )
            target = (
                project.modules.get(target_file)
                if target_file is not None
                else None
            )
            if target is not None and symbol in _module_level_containers(
                target.source.tree
            ):
                containers.add(local)
        self._container_cache[module.rel_path] = containers
        return containers

    # -- the walk ----------------------------------------------------------------

    def _walk(
        self,
        project: Project,
        module: ModuleInfo,
        function: FunctionInfo,
        writes: list[_Write],
        seen: set[int],
        depth: int,
    ) -> None:
        """Flag module-global writes in ``function`` and every project
        function it calls, down to ``_MAX_DEPTH`` frames."""
        if depth > _MAX_DEPTH or id(function.node) in seen:
            return
        seen.add(id(function.node))
        declared_global: set[str] = set()
        declared_nonlocal: set[str] = set()
        for node in ast.walk(function.node):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, ast.Nonlocal):
                declared_nonlocal.update(node.names)
        containers = self._global_containers(project, module)

        def flag(node: ast.AST, detail: str) -> None:
            writes.append(_Write(module, node, function, detail))

        def check_target(statement: ast.AST, target: ast.AST) -> None:
            if isinstance(target, ast.Name):
                if target.id in declared_global:
                    flag(statement, f"rebinds module global {target.id!r}")
                elif target.id in declared_nonlocal:
                    flag(
                        statement,
                        f"rebinds closure cell {target.id!r} of the "
                        "enclosing scope",
                    )
            elif isinstance(target, ast.Subscript):
                if _names_container(target.value, containers):
                    flag(
                        statement,
                        f"writes into module global {target.value.id!r}",
                    )
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    check_target(statement, element)

        for node in _own_nodes(function.node.body):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    check_target(node, target)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                check_target(node, node.target)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and _names_container(
                        target.value, containers
                    ):
                        flag(node, f"del on module global {target.value.id!r}")
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATORS
                    and _names_container(func.value, containers)
                ):
                    flag(node, f".{func.attr}() on module global {func.value.id!r}")
                    continue
                callee = _resolve_callee(project, module, function, func)
                if callee is not None:
                    self._walk(
                        project, callee[0], callee[1], writes, seen, depth + 1
                    )

    # -- rendering ---------------------------------------------------------------

    def _render(self, writes: list[_Write], root: str) -> Iterator[Finding]:
        """In-frame writes anchor at the statement; callee writes aggregate
        per function definition."""
        by_callee: dict[tuple[str, str], list[_Write]] = {}
        for write in writes:
            if write.function.qualname == write.module.source.symbol_at(write.node):
                yield write.module.source.finding(
                    self.code,
                    write.node,
                    f"worker reachable from {root} {write.detail}; shared "
                    "mutable state breaks executor equivalence",
                )
            else:
                by_callee.setdefault(
                    (write.module.rel_path, write.function.qualname), []
                ).append(write)
        for (_, qualname), grouped in sorted(by_callee.items()):
            details = sorted({write.detail for write in grouped})
            yield grouped[0].module.source.finding(
                self.code,
                grouped[0].function.node,
                f"{qualname}() is reachable from {root} and "
                f"{'; '.join(details)}; shared mutable state breaks "
                "executor equivalence",
            )


# -- helpers ---------------------------------------------------------------------


def _own_nodes(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Every node of ``body``, not descending into nested defs or lambdas
    (those run only if submitted themselves)."""
    stack: list[ast.AST] = list(reversed(body))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


def _names_container(expr: ast.AST, containers: set[str]) -> bool:
    return isinstance(expr, ast.Name) and expr.id in containers


def _resolve_callee(
    project: Project, module: ModuleInfo, caller: FunctionInfo, func: ast.AST
) -> "tuple[ModuleInfo, FunctionInfo] | None":
    """The project function a call's ``func`` expression reaches, if any."""
    if isinstance(func, ast.Name):
        resolved = project.resolve_name(module, func.id)
        if resolved is not None and resolved[0] == "function":
            return resolved[1], resolved[1].functions[resolved[2]]
    elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        method = project._resolve_method(module, caller, func.value.id, func.attr)
        if method is not None:
            return project.modules[method.module], method
    return None
