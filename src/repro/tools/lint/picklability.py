"""RPL002 -- worker-payload picklability on process-executor paths.

``executor="process"`` sweeps ship their work to
:class:`concurrent.futures.ProcessPoolExecutor` workers, so everything
submitted -- the worker function and every object reachable from its
arguments -- must pickle.  A lambda, a nested function, a ``threading.Lock``
or an open file handle in a shipped dataclass fails at submission time at
best, and at worst only on the one machine whose start method is ``spawn``.

The rule walks a static call graph on the shared
:class:`~repro.tools.lint.dataflow.Project` substrate:

1. **Roots**: every process-pool site from :meth:`Project.submit_sites`
   (thread pools are exempt -- closures are fine there).  Submitting a
   lambda or a function nested in the enclosing scope is flagged
   immediately.
2. **Reachability**: from each root function, every project-local function
   it calls, every class it references (by call, by annotation -- including
   string annotations -- or by attribute access), and every method of a
   reachable class joins the walk.  Names resolve through
   :meth:`Project.resolve_name`; names that leave the linted file set are
   skipped.
3. **Payload checks**: each reachable *dataclass* must not declare fields
   whose annotation names an unpicklable type (``threading.Lock``/``RLock``,
   ``networkx``/``nx.Graph``/``DiGraph``, ``IO``/``TextIO``/``BinaryIO``),
   nor defaults of the form ``field(default_factory=threading.Lock)`` or a
   lambda default.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .astutil import annotation_text, dataclass_decorator, dotted_chain
from .dataflow import ClassInfo, FunctionInfo, Project
from .engine import DataflowRule, Finding, ModuleSource

__all__ = ["PicklabilityRule"]

_UNPICKLABLE_ANNOTATION = re.compile(
    r"\b(Lock|RLock|Condition|Semaphore|Event|Graph|DiGraph|MultiGraph|"
    r"TextIO|BinaryIO|IO)\b"
)

_UNPICKLABLE_FACTORY = re.compile(
    r"\b(Lock|RLock|Condition|Semaphore|Event|Graph|DiGraph|open)\b"
)


def _annotation_names(node: ast.AST) -> set[str]:
    """All bare names inside an annotation (string forms are parsed)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return set()
    return {
        child.id for child in ast.walk(node) if isinstance(child, ast.Name)
    }


def _referenced_names(function: ast.AST) -> set[str]:
    """Names a function's body loads or annotates -- the reachability edge."""
    names: set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            chain = dotted_chain(node)
            if chain:
                names.add(chain[0])
        elif isinstance(node, (ast.AnnAssign, ast.arg)) and node.annotation:
            names.update(_annotation_names(node.annotation))
    return names


class PicklabilityRule(DataflowRule):
    code = "RPL002"
    name = "worker-payload-picklability"
    description = (
        "functions and dataclasses shipped to ProcessPoolExecutor workers "
        "must not carry lambdas, nested functions, locks, handles or graphs"
    )

    def check_dataflow(self, project: Project) -> Iterator[Finding]:
        roots: list[FunctionInfo] = []
        for site in project.submit_sites():
            if site.kind != "process":
                continue
            module = site.module.source
            target = site.target
            if isinstance(target, ast.Lambda):
                yield module.finding(
                    self.code,
                    target,
                    "lambda submitted to a ProcessPoolExecutor cannot be "
                    "pickled; use a module-level function",
                )
            elif isinstance(target, ast.Name):
                if site.nested_target() is not None:
                    yield module.finding(
                        self.code,
                        target,
                        f"nested function {target.id!r} submitted to a "
                        "ProcessPoolExecutor cannot be pickled; hoist it "
                        "to module level",
                    )
                elif target.id in site.module.functions:
                    roots.append(site.module.functions[target.id])

        for info in _reachable_classes(project, roots):
            module = project.modules[info.module].source
            yield from self._check_dataclass(module, info.node)

    # -- payload checks ----------------------------------------------------------

    def _check_dataclass(
        self, module: ModuleSource, node: ast.ClassDef
    ) -> Iterator[Finding]:
        if dataclass_decorator(node) is None:
            return
        for statement in node.body:
            if not isinstance(statement, ast.AnnAssign) or not isinstance(
                statement.target, ast.Name
            ):
                continue
            field_name = statement.target.id
            annotation = annotation_text(statement.annotation)
            if "ClassVar" in annotation:
                continue
            match = _UNPICKLABLE_ANNOTATION.search(annotation)
            if match:
                yield module.finding(
                    self.code,
                    statement,
                    f"field {field_name!r} of dataclass {node.name!r} is "
                    f"annotated {annotation!r}, which does not pickle; this "
                    "dataclass is shipped to process-pool workers",
                )
                continue
            value = statement.value
            if isinstance(value, ast.Lambda):
                yield module.finding(
                    self.code,
                    statement,
                    f"field {field_name!r} of dataclass {node.name!r} "
                    "defaults to a lambda, which does not pickle",
                )
            elif isinstance(value, ast.Call):
                for keyword in value.keywords:
                    if keyword.arg == "default_factory":
                        factory = keyword.value
                        if isinstance(factory, ast.Lambda):
                            yield module.finding(
                                self.code,
                                statement,
                                f"field {field_name!r} of dataclass "
                                f"{node.name!r} uses a lambda "
                                "default_factory, which does not pickle",
                            )
                        else:
                            chain = dotted_chain(factory) or []
                            text = ".".join(chain)
                            if chain and _UNPICKLABLE_FACTORY.search(text):
                                yield module.finding(
                                    self.code,
                                    statement,
                                    f"field {field_name!r} of dataclass "
                                    f"{node.name!r} defaults to "
                                    f"{text}(), which does not pickle",
                                )


def _reachable_classes(
    project: Project, roots: list[FunctionInfo]
) -> list[ClassInfo]:
    """Every class the roots reach through referenced names, sorted."""
    seen: set[tuple[str, str]] = set()
    reachable: dict[tuple[str, str], ClassInfo] = {}
    queue = list(roots)
    while queue:
        function = queue.pop()
        key = (function.module, function.qualname)
        if key in seen:
            continue
        seen.add(key)
        module = project.modules[function.module]
        for name in sorted(_referenced_names(function.node)):
            resolved = project.resolve_name(module, name)
            if resolved is None:
                continue
            kind, target, symbol = resolved
            if kind == "function":
                queue.append(target.functions[symbol])
            elif (target.rel_path, symbol) not in reachable:
                info = target.classes[symbol]
                reachable[(target.rel_path, symbol)] = info
                queue.extend(info.methods.values())
    return [reachable[key] for key in sorted(reachable)]
