"""RPL005 -- dataclass compare/hash hygiene.

Two invariants the engine's value types rely on:

* **Array-valued fields must be ``compare=False``.**  Dataclass equality
  folds every compared field into ``==``; a :class:`numpy.ndarray` field
  makes ``==`` return an array (``bool(...)`` then raises) and silently
  poisons set/dict membership.  Derived array payloads (``path_rows`` on
  :class:`repro.network.backends.RouteResult` is the canonical case) must
  opt out of comparison.

* **Frozen specs must stay hashable.**  Sweep grouping keys scenarios by
  their spec values (``Scenario.faults`` tuples are dict keys), so a frozen
  dataclass growing a ``list``/``dict``/``set``/``Mapping``/ndarray field
  -- or a hand-written ``__eq__`` without ``__hash__`` -- breaks sweeps far
  from the edit.  Fields canonicalised to a hashable form in
  ``__post_init__`` can carry an inline ``# repro-lint: ignore[RPL005]``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .astutil import annotation_text, dataclass_decorator
from .engine import Finding, ModuleRule, ModuleSource

__all__ = ["DataclassHygieneRule"]

_ARRAY_TYPES = re.compile(r"\bndarray\b")
_UNHASHABLE = re.compile(
    r"\b(list|dict|set|List|Dict|Set|Mapping|MutableMapping|bytearray)\b"
)


def _decorator_flags(decorator: ast.AST) -> dict[str, bool]:
    """Literal keyword flags of a ``@dataclass(...)`` decorator."""
    flags: dict[str, bool] = {}
    if isinstance(decorator, ast.Call):
        for keyword in decorator.keywords:
            if keyword.arg and isinstance(keyword.value, ast.Constant):
                flags[keyword.arg] = bool(keyword.value.value)
    return flags


def _is_compare_false(value: "ast.AST | None") -> bool:
    """True when a field default is ``field(..., compare=False)``."""
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    if name != "field":
        return False
    for keyword in value.keywords:
        if (
            keyword.arg == "compare"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is False
        ):
            return True
    return False


class DataclassHygieneRule(ModuleRule):
    code = "RPL005"
    name = "dataclass-hygiene"
    description = (
        "array-valued dataclass fields must be compare=False; frozen specs "
        "must stay hashable"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorator = dataclass_decorator(node)
            if decorator is None:
                continue
            flags = _decorator_flags(decorator)
            frozen = flags.get("frozen", False)
            compares = flags.get("eq", True)
            yield from self._check_fields(module, node, frozen, compares)
            yield from self._check_eq_hash(module, node, flags)

    def _check_fields(
        self, module: ModuleSource, node: ast.ClassDef, frozen: bool, compares: bool
    ) -> Iterator[Finding]:
        for statement in node.body:
            if not isinstance(statement, ast.AnnAssign) or not isinstance(
                statement.target, ast.Name
            ):
                continue
            field_name = statement.target.id
            if field_name.startswith("__"):
                continue
            annotation = annotation_text(statement.annotation)
            if "ClassVar" in annotation or "InitVar" in annotation:
                continue
            if "Callable" in annotation:
                # Container names inside a Callable signature describe the
                # callee's arguments, not this field's storage.
                continue
            opted_out = _is_compare_false(statement.value)
            if compares and not opted_out and _ARRAY_TYPES.search(annotation):
                yield module.finding(
                    self.code,
                    statement,
                    f"array-valued field {field_name!r} participates in "
                    "dataclass equality; ndarray == returns an array -- mark "
                    "it field(..., compare=False)",
                )
            elif frozen and compares and not opted_out and _UNHASHABLE.search(
                annotation
            ):
                yield module.finding(
                    self.code,
                    statement,
                    f"frozen dataclass field {field_name!r} is annotated with "
                    f"an unhashable type ({annotation}); freeze it to a tuple "
                    "in __post_init__ or mark it field(..., compare=False)",
                )

    def _check_eq_hash(
        self, module: ModuleSource, node: ast.ClassDef, flags: dict[str, bool]
    ) -> Iterator[Finding]:
        methods = {
            statement.name
            for statement in node.body
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if "__eq__" in methods and "__hash__" not in methods:
            yield module.finding(
                self.code,
                node,
                f"dataclass {node.name!r} defines __eq__ without __hash__, "
                "which sets __hash__ = None; spec types must stay hashable",
            )
