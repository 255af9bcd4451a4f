"""RPL009 -- merge-safety for classes exposing ``merge()``.

The engine's parallel contract is build-local-then-merge: each worker
accumulates into its own ``RunMetrics`` / ``PairTelemetry`` instance (and
the ``PairStore`` inside it) and the driver folds the results elementwise.
Worker processes pickle these objects across the boundary.
That contract breaks silently when a merge target grows a field that is
neither elementwise-mergeable nor picklable:

* synchronisation primitives (``threading.Lock`` and friends) -- pickling
  raises, and a lock owned by a merged *copy* guards nothing;
* open file handles and sockets;
* tracers and executors -- infrastructure objects that must stay with the
  driver, not ride along inside results;
* lambdas / nested functions stored on ``self`` -- unpicklable, and RPL002
  cannot see them because they never appear at a submit site.

The rule is syntactic per class: any class defining ``merge()`` (with at
least one real parameter, so zero-argument finalisers do not count) has
its dataclass annotations, class-level assignments and ``__init__``
``self.x = ...`` sites checked against the deny-list.  Everything not
recognisably bad passes -- numpy arrays, dicts, dataclasses and scalars
are the expected field types and need no allow-list.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .astutil import annotation_text, dataclass_decorator, dotted_chain
from .engine import Finding, ModuleRule, ModuleSource

__all__ = ["MergeSafetyRule"]

#: Type names that must not appear in a merge target's field annotations.
_BAD_ANNOTATION = re.compile(
    r"\b("
    r"Lock|RLock|Condition|Semaphore|BoundedSemaphore|Event|Barrier|"
    r"Thread|Executor|ThreadPoolExecutor|ProcessPoolExecutor|"
    r"IO|TextIO|BinaryIO|TextIOWrapper|BufferedReader|BufferedWriter|"
    r"socket|Tracer|Span"
    r")\b"
)

#: Constructor calls whose result must not be stored on a merge target.
_BAD_CONSTRUCTORS = {
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "Event",
    "Barrier",
    "Thread",
    "ThreadPoolExecutor",
    "ProcessPoolExecutor",
    "open",
    "socket",
    "Tracer",
}


def _bad_value(node: ast.AST) -> "str | None":
    """Why storing ``node`` on a merge target is unsafe, or ``None``."""
    if isinstance(node, ast.Lambda):
        return "a lambda (unpicklable)"
    if isinstance(node, ast.Call):
        chain = dotted_chain(node.func)
        if chain and chain[-1] in _BAD_CONSTRUCTORS:
            return f"{'.'.join(chain)}() (unpicklable / not mergeable)"
        # ``field(default_factory=threading.Lock)`` hides the call.
        if chain and chain[-1] == "field":
            for keyword in node.keywords:
                if keyword.arg == "default_factory":
                    factory = keyword.value
                    if isinstance(factory, ast.Lambda):
                        inner = _bad_value(factory.body)
                        if inner:
                            return inner
                    else:
                        factory_chain = dotted_chain(factory)
                        if (
                            factory_chain
                            and factory_chain[-1] in _BAD_CONSTRUCTORS
                        ):
                            return (
                                f"{'.'.join(factory_chain)} default_factory "
                                "(unpicklable / not mergeable)"
                            )
    return None


def _has_merge_method(node: ast.ClassDef) -> bool:
    for child in node.body:
        if (
            isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            and child.name == "merge"
        ):
            # ``merge(self, other, ...)``: needs a peer to fold in.
            return len(child.args.args) >= 2
    return False


class MergeSafetyRule(ModuleRule):
    code = "RPL009"
    name = "merge-safety"
    description = (
        "classes exposing merge() must carry only elementwise-mergeable, "
        "picklable fields (no locks, handles, tracers, lambdas)"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not _has_merge_method(node):
                continue
            yield from self._check_class(module, node)

    def _check_class(
        self, module: ModuleSource, node: ast.ClassDef
    ) -> Iterator[Finding]:
        class_name = node.name
        is_dataclass = dataclass_decorator(node) is not None

        def finding(site: ast.AST, field_name: str, why: str) -> Finding:
            return module.finding(
                self.code,
                site,
                f"merge target {class_name!r} field {field_name!r} holds "
                f"{why}; merge() results cross process boundaries "
                "and must carry only elementwise-mergeable, picklable state",
            )

        for child in node.body:
            if isinstance(child, ast.AnnAssign) and isinstance(
                child.target, ast.Name
            ):
                text = annotation_text(child.annotation)
                if text and _BAD_ANNOTATION.search(text):
                    yield finding(
                        child, child.target.id, f"a {text!r}-typed value"
                    )
                elif child.value is not None:
                    why = _bad_value(child.value)
                    if why:
                        yield finding(child, child.target.id, why)
            elif isinstance(child, ast.Assign) and is_dataclass is False:
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        why = _bad_value(child.value)
                        if why:
                            yield finding(child, target.id, why)

        for child in node.body:
            if (
                isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and child.name == "__init__"
            ):
                yield from self._check_init(module, child, finding)

    def _check_init(
        self,
        module: ModuleSource,
        init: "ast.FunctionDef | ast.AsyncFunctionDef",
        finding,
    ) -> Iterator[Finding]:
        for statement in ast.walk(init):
            if isinstance(statement, ast.Assign):
                targets = statement.targets
                value = statement.value
            elif (
                isinstance(statement, ast.AnnAssign)
                and statement.value is not None
            ):
                targets = [statement.target]
                value = statement.value
                text = annotation_text(statement.annotation)
                target = statement.target
                if (
                    text
                    and _BAD_ANNOTATION.search(text)
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    yield finding(statement, target.attr, f"a {text!r}-typed value")
                    continue
            else:
                continue
            why = _bad_value(value)
            if why is None:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    yield finding(statement, target.attr, why)
