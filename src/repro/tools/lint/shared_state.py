"""RPL003 -- shared mutable state on sweep paths.

A module-level dict/list/set mutated from function bodies is cross-scenario
shared state: results then depend on evaluation order, which the
serial/thread/process equivalence guarantee forbids.  Registration at
import time (the ``ALLOCATORS``/``BACKENDS`` registry idiom -- module-level
statements) is allowed; mutation from inside a ``def`` is flagged.

The ``_SharedRouteCache`` bug class -- a cache object written from
executor workers without a lock -- is caught interprocedurally by RPL008
(:mod:`repro.tools.lint.executor_races`).
"""

from __future__ import annotations

import ast
from typing import Iterator

from .engine import Finding, ModuleRule, ModuleSource

__all__ = ["SharedStateRule"]

_MUTATORS = {
    "append",
    "add",
    "update",
    "setdefault",
    "extend",
    "insert",
    "remove",
    "discard",
    "popitem",
    "clear",
}

_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}


def _is_mutable_container(value: ast.AST) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        return name in _CONTAINER_CALLS
    return False


def _module_level_containers(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for statement in tree.body:
        targets: list[ast.AST] = []
        if isinstance(statement, ast.Assign):
            targets = statement.targets
            value = statement.value
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            targets = [statement.target]
            value = statement.value
        else:
            continue
        if not _is_mutable_container(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                names.add(target.id)
    return names


def _function_bodies(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _mutations_of(function: ast.AST, names: set[str]) -> Iterator[tuple[ast.AST, str]]:
    """Yield (site, name) for every mutation of a tracked module global."""
    shadowed = {
        arg.arg
        for arg in ast.walk(function)
        if isinstance(arg, ast.arg)
    }
    rebound = {
        node.id
        for node in ast.walk(function)
        if isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Store)
        and node.id in names
    }
    visible = names - shadowed - rebound
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in visible
        ):
            yield node, node.func.value.id
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in visible
                ):
                    yield node, target.value.id
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in visible
                ):
                    yield node, target.value.id


class SharedStateRule(ModuleRule):
    code = "RPL003"
    name = "shared-mutable-state"
    description = "no function-scope mutation of module-level containers"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        names = _module_level_containers(module.tree)
        if not names:
            return
        for function in _function_bodies(module.tree):
            for site, name in _mutations_of(function, names):
                yield module.finding(
                    self.code,
                    site,
                    f"module-level mutable {name!r} is mutated inside "
                    "a function; shared state leaks across scenarios "
                    "-- register at import time or pass state "
                    "explicitly",
                )
