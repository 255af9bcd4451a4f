"""Interprocedural substrate: project index, call sites, executor roots.

The shared layer the interprocedural rules (RPL002, RPL007--009) stand
on; the runner builds one :class:`Project` per run:

* :class:`Project` -- every linted module indexed at once: top-level
  functions, classes with their methods, import tables, and the
  :class:`~repro.tools.lint.importgraph.ImportGraph` tying files together.
* **Name resolution** (:meth:`Project.resolve_name`) -- local definitions
  first, then the import table routed through the import graph with each
  import's relative level (so ``from ..network.flows import FlowTable`` lands
  on the linted file, and ``from .metrics import X`` on the importer's own
  package's ``metrics.py`` however many such files are linted).
* **Caller index** (:meth:`Project.callers_of`) -- the *reverse* call
  graph: every call site whose target resolves to a given function,
  including constructor calls (``FlowTable(...)`` -> ``FlowTable.__init__``) and
  ``self.method(...)`` / annotated-receiver method calls.  Seed
  provenance (RPL007) walks this upward from RNG constructors.
* **Executor roots** (:meth:`Project.submit_sites`) -- every
  ``ThreadPoolExecutor`` / ``ProcessPoolExecutor`` ``submit``/``map``
  call, with the submitted target and the pool kind.  RPL008 flags the
  thread-pool ones and walks the forward call graph downward from every
  one, and the picklability walk (RPL002) starts at the process-pool ones.

Resolution is deliberately best-effort and *optimistic*: a name that
cannot be resolved inside the linted set produces no edge and no finding.
The rules built on top flag only what they can positively derive, so an
unresolvable chain is silence, never a false positive.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .astutil import dotted_chain, import_table
from .engine import ModuleSource
from .importgraph import ImportGraph, RawImport, module_imports

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "CallSite",
    "SubmitSite",
    "Project",
    "bind_arguments",
]

_EXECUTOR_KINDS = {
    "ThreadPoolExecutor": "thread",
    "ProcessPoolExecutor": "process",
}


class FunctionInfo:
    """One function or method definition, with its binding context."""

    __slots__ = ("node", "name", "qualname", "module", "class_name")

    def __init__(
        self,
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
        qualname: str,
        module: str,
        class_name: "str | None" = None,
    ):
        self.node = node
        self.name = node.name
        self.qualname = qualname
        self.module = module
        self.class_name = class_name

    @property
    def params(self) -> list[str]:
        """Positional + keyword parameter names, in declaration order."""
        args = self.node.args
        return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]

    def param_default(self, name: str) -> "ast.AST | None":
        """Default expression of parameter ``name``, or ``None``."""
        args = self.node.args
        positional = args.posonlyargs + args.args
        for arg, default in zip(
            positional[len(positional) - len(args.defaults):], args.defaults
        ):
            if arg.arg == name:
                return default
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if arg.arg == name and default is not None:
                return default
        return None

    def param_annotation(self, name: str) -> "ast.AST | None":
        args = self.node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.arg == name and arg.annotation is not None:
                return arg.annotation
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInfo({self.module}::{self.qualname})"


class ClassInfo:
    """One top-level class: methods, bases, dataclass-ness."""

    __slots__ = ("node", "name", "module", "methods", "base_names")

    def __init__(self, node: ast.ClassDef, module: str):
        self.node = node
        self.name = node.name
        self.module = module
        self.methods: dict[str, FunctionInfo] = {}
        for statement in node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.methods[statement.name] = FunctionInfo(
                    statement,
                    f"{node.name}.{statement.name}",
                    module,
                    class_name=node.name,
                )
        self.base_names = [
            chain[-1]
            for base in node.bases
            if (chain := dotted_chain(base)) is not None
        ]


def _import_levels(tree: ast.Module) -> dict[str, int]:
    """Relative level of the import binding each local name.

    Absolute imports read 0.  Walks imports in the order
    :func:`~repro.tools.lint.astutil.import_table` does, so the later of two
    bindings of one name wins in both tables; that table keeps only the
    dotted path, which cannot place ``from .metrics import X`` on its own.
    """
    levels: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                levels[alias.asname or alias.name.split(".")[0]] = 0
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    levels[alias.asname or alias.name] = node.level or 0
    return levels


class ModuleInfo:
    """Index of one module: defs, classes, imports."""

    __slots__ = (
        "source",
        "imports",
        "import_levels",
        "functions",
        "classes",
        "raw_imports",
    )

    def __init__(self, source: ModuleSource):
        self.source = source
        self.imports = import_table(source.tree)
        self.import_levels = _import_levels(source.tree)
        self.raw_imports = module_imports(source.tree)
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        for statement in source.tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[statement.name] = FunctionInfo(
                    statement, statement.name, source.rel_path
                )
            elif isinstance(statement, ast.ClassDef):
                self.classes[statement.name] = ClassInfo(
                    statement, source.rel_path
                )

    def raw_import(self, local: str, attribute: str = "") -> "RawImport | None":
        """The import binding ``local``, extended by ``.attribute`` if given.

        Keeps the relative level, so ``from .metrics import X`` resolves
        against this module's own package.
        """
        dotted = self.imports.get(local)
        if dotted is None:
            return None
        if attribute:
            dotted = f"{dotted}.{attribute}"
        return RawImport(dotted, self.import_levels.get(local, 0))

    @property
    def rel_path(self) -> str:
        return self.source.rel_path


class CallSite:
    """One call whose target resolved to a known function."""

    __slots__ = ("module", "caller", "node", "bound_receiver", "via_map")

    def __init__(
        self,
        module: ModuleInfo,
        caller: "FunctionInfo | None",
        node: ast.Call,
        bound_receiver: bool,
        via_map: bool = False,
    ):
        self.module = module
        #: Enclosing function of the call, ``None`` at module level.
        self.caller = caller
        self.node = node
        #: True when called as ``obj.method(...)`` / ``self.method(...)``
        #: (the ``self`` parameter is bound, not passed positionally).
        self.bound_receiver = bound_receiver
        #: True for synthetic calls built from ``pool.map(f, iterable)``:
        #: the bound argument is the *iterable* of per-item values, so
        #: upward traces only see through it when it is a literal container.
        self.via_map = via_map


class SubmitSite:
    """One ``pool.submit(f, ...)`` / ``pool.map(f, ...)`` call."""

    __slots__ = ("module", "enclosing", "node", "kind", "method")

    def __init__(
        self,
        module: ModuleInfo,
        enclosing: "ast.FunctionDef | ast.AsyncFunctionDef",
        node: ast.Call,
        kind: str,
        method: str,
    ):
        self.module = module
        self.enclosing = enclosing
        self.node = node
        #: ``"thread"`` or ``"process"``.
        self.kind = kind
        #: ``"submit"`` or ``"map"``.
        self.method = method

    @property
    def target(self) -> "ast.AST | None":
        """The submitted callable expression (first argument)."""
        return self.node.args[0] if self.node.args else None

    def nested_target(self) -> "ast.FunctionDef | ast.AsyncFunctionDef | None":
        """The function nested in the enclosing scope that is submitted."""
        target = self.target
        if not isinstance(target, ast.Name):
            return None
        for node in ast.walk(self.enclosing):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == target.id
                and node is not self.enclosing
            ):
                return node
        return None


def bind_arguments(
    function: FunctionInfo, call: ast.Call, bound_receiver: bool
) -> dict[str, "ast.AST | None"]:
    """Map the callee's parameter names to the call's argument expressions.

    Parameters the call leaves to their defaults map to the default
    expression; parameters fed by ``*args``/``**kwargs`` splat map to
    ``None`` (unknown).  The implicit ``self`` of a bound call is skipped.
    """
    params = function.params
    if bound_receiver and params and params[0] in ("self", "cls"):
        params = params[1:]
    binding: dict[str, ast.AST | None] = {}
    has_star = any(isinstance(arg, ast.Starred) for arg in call.args)
    positional = [arg for arg in call.args if not isinstance(arg, ast.Starred)]
    for index, param in enumerate(params):
        if index < len(positional) and not has_star:
            binding[param] = positional[index]
    for keyword in call.keywords:
        if keyword.arg is not None and keyword.arg in params:
            binding[keyword.arg] = keyword.value
        elif keyword.arg is None:
            # **kwargs splat: every unbound parameter becomes unknown.
            for param in params:
                binding.setdefault(param, None)
    for param in params:
        if param not in binding:
            binding[param] = function.param_default(param)
    return binding


def _is_executor_expr(node: ast.AST) -> "str | None":
    """Pool kind constructed anywhere inside ``node``, or ``None``."""
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            chain = dotted_chain(child.func)
            if chain and chain[-1] in _EXECUTOR_KINDS:
                return _EXECUTOR_KINDS[chain[-1]]
    return None


def _pool_bindings(function: ast.AST) -> dict[str, str]:
    """Names bound to an executor inside ``function`` -> pool kind."""
    pools: dict[str, str] = {}
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            kind = _is_executor_expr(node.value)
            if kind is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        pools[target.id] = kind
        elif isinstance(node, ast.withitem):
            kind = _is_executor_expr(node.context_expr)
            if kind is not None and isinstance(node.optional_vars, ast.Name):
                pools[node.optional_vars.id] = kind
    return pools


class Project:
    """Every linted module, indexed for interprocedural analysis."""

    def __init__(self, modules: list[ModuleSource]):
        self.modules: dict[str, ModuleInfo] = {
            source.rel_path: ModuleInfo(source) for source in modules
        }
        self.import_graph = ImportGraph.build(
            {info.rel_path: info.raw_imports for info in self.modules.values()}
        )
        self._caller_index: "dict[tuple[str, str], list[CallSite]] | None" = None

    # -- name resolution ---------------------------------------------------------

    def resolve_name(
        self, module: ModuleInfo, name: str
    ) -> "tuple[str, ModuleInfo, str] | None":
        """Resolve ``name`` in ``module`` to ``(kind, module, symbol)``.

        ``kind`` is ``"function"`` or ``"class"``.  Local definitions win;
        imported names route through the import graph, relative imports
        with their level.
        """
        if name in module.functions:
            return ("function", module, name)
        if name in module.classes:
            return ("class", module, name)
        raw = module.raw_import(name)
        if raw is None:
            return None
        target_file = self.import_graph.resolve(module.rel_path, raw)
        if target_file is None or target_file not in self.modules:
            return None
        target = self.modules[target_file]
        symbol = raw.name.split(".")[-1]
        if symbol in target.functions:
            return ("function", target, symbol)
        if symbol in target.classes:
            return ("class", target, symbol)
        return None

    def resolve_class(
        self, module: ModuleInfo, name: str
    ) -> "ClassInfo | None":
        resolved = self.resolve_name(module, name)
        if resolved is not None and resolved[0] == "class":
            return resolved[1].classes[resolved[2]]
        return None

    def resolve_annotation_class(
        self, module: ModuleInfo, annotation: "ast.AST | None"
    ) -> "ClassInfo | None":
        """Class named by an annotation (``"X | None"``, ``Optional[X]``)."""
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
        candidates = [
            node.id
            for node in ast.walk(annotation)
            if isinstance(node, ast.Name)
            and node.id not in ("None", "Optional", "Union")
        ]
        resolved = [
            info
            for name in candidates
            if (info := self.resolve_class(module, name)) is not None
        ]
        return resolved[0] if len(resolved) == 1 else None

    # -- function iteration ------------------------------------------------------

    def iter_functions(self) -> Iterator[tuple[ModuleInfo, FunctionInfo]]:
        """Every top-level function and method, in deterministic order."""
        for rel_path in sorted(self.modules):
            info = self.modules[rel_path]
            for name in info.functions:
                yield info, info.functions[name]
            for class_info in info.classes.values():
                for method in class_info.methods.values():
                    yield info, method

    # -- caller index ------------------------------------------------------------

    def _build_caller_index(self) -> None:
        index: dict[tuple[str, str], list[CallSite]] = {}

        def record(target: FunctionInfo, site: CallSite) -> None:
            index.setdefault((target.module, target.qualname), []).append(site)

        for module_path in sorted(self.modules):
            module = self.modules[module_path]
            for caller, call in _iter_calls(module.source.tree, module):
                func = call.func
                if isinstance(func, ast.Name):
                    resolved = self.resolve_name(module, func.id)
                    if resolved is None:
                        continue
                    kind, target_module, symbol = resolved
                    if kind == "function":
                        record(
                            target_module.functions[symbol],
                            CallSite(module, caller, call, False),
                        )
                    else:
                        init = target_module.classes[symbol].methods.get(
                            "__init__"
                        )
                        if init is not None:
                            record(init, CallSite(module, caller, call, True))
                elif isinstance(func, ast.Attribute) and isinstance(
                    func.value, ast.Name
                ):
                    base, method_name = func.value.id, func.attr
                    target = self._resolve_method(
                        module, caller, base, method_name
                    )
                    if target is not None:
                        record(target, CallSite(module, caller, call, True))
        # Executor submit/map sites are calls too: ``pool.submit(f, a, b)``
        # binds ``f``'s parameters from the remaining arguments (for ``map``
        # the argument is the *iterable* of values -- classification of a
        # list literal descends into its elements).
        for site in self.submit_sites():
            target = site.target
            if not isinstance(target, ast.Name):
                continue
            resolved = self.resolve_name(site.module, target.id)
            if resolved is None or resolved[0] != "function":
                continue
            function = resolved[1].functions[resolved[2]]
            synthetic = ast.Call(
                func=target,
                args=list(site.node.args[1:]),
                keywords=list(site.node.keywords),
            )
            ast.copy_location(synthetic, site.node)
            caller_info = FunctionInfo(
                site.enclosing,
                site.module.source.symbol_at(site.node) or site.enclosing.name,
                site.module.rel_path,
            )
            record(
                function,
                CallSite(
                    site.module,
                    caller_info,
                    synthetic,
                    False,
                    via_map=site.method == "map",
                ),
            )
        self._caller_index = index

    def _resolve_method(
        self,
        module: ModuleInfo,
        caller: "FunctionInfo | None",
        base: str,
        method_name: str,
    ) -> "FunctionInfo | None":
        """Resolve ``base.method_name(...)`` to a method definition."""
        class_info: ClassInfo | None = None
        if base in ("self", "cls") and caller is not None and caller.class_name:
            class_info = self.modules[caller.module].classes.get(
                caller.class_name
            )
        elif caller is not None:
            class_info = self._infer_local_class(module, caller, base)
        if class_info is None:
            # ``Module.function(...)`` via an imported module name.
            raw = module.raw_import(base, method_name)
            if raw is not None:
                target_file = self.import_graph.resolve(module.rel_path, raw)
                if target_file is not None:
                    target = self.modules.get(target_file)
                    if target is not None and method_name in target.functions:
                        return target.functions[method_name]
            return None
        method = class_info.methods.get(method_name)
        if method is not None:
            return method
        # One-hop base-class lookup (shallow, name-resolved).
        for base_name in class_info.base_names:
            parent = self.resolve_class(
                self.modules[class_info.module], base_name
            )
            if parent is not None and method_name in parent.methods:
                return parent.methods[method_name]
        return None

    def _infer_local_class(
        self, module: ModuleInfo, function: FunctionInfo, name: str
    ) -> "ClassInfo | None":
        """Static type of local ``name``: annotation or ``X(...)`` assign."""
        annotation = function.param_annotation(name)
        if annotation is not None:
            return self.resolve_annotation_class(module, annotation)
        for node in ast.walk(function.node):
            if isinstance(node, ast.AnnAssign) and (
                isinstance(node.target, ast.Name) and node.target.id == name
            ):
                return self.resolve_annotation_class(module, node.annotation)
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets
            ):
                value = node.value
                if isinstance(value, ast.Call) and isinstance(
                    value.func, ast.Name
                ):
                    resolved = self.resolve_class(module, value.func.id)
                    if resolved is not None:
                        return resolved
        return None

    def callers_of(self, function: FunctionInfo) -> list[CallSite]:
        """Every call site resolving to ``function`` (reverse call graph)."""
        if self._caller_index is None:
            self._build_caller_index()
        assert self._caller_index is not None
        return self._caller_index.get((function.module, function.qualname), [])

    # -- executor roots ----------------------------------------------------------

    def submit_sites(self) -> list[SubmitSite]:
        """Every executor submit/map call across the project."""
        sites: list[SubmitSite] = []
        for rel_path in sorted(self.modules):
            module = self.modules[rel_path]
            # A pool is constructed by its class name, so a module that
            # never spells one out has no site (and is not walked).
            if not any(name in module.source.text for name in _EXECUTOR_KINDS):
                continue
            for function in ast.walk(module.source.tree):
                if not isinstance(
                    function, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                pools = _pool_bindings(function)
                if not pools:
                    continue
                for node in ast.walk(function):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("submit", "map")
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id in pools
                        and node.args
                    ):
                        sites.append(
                            SubmitSite(
                                module,
                                function,
                                node,
                                pools[node.func.value.id],
                                node.func.attr,
                            )
                        )
        return sites


def _iter_calls(
    tree: ast.Module, module: ModuleInfo
) -> Iterator[tuple["FunctionInfo | None", ast.Call]]:
    """Yield ``(enclosing function info, call)`` for every call in a module.

    The enclosing info is the nearest *indexed* definition (top-level
    function, method, or a synthetic info for nested functions, carrying
    the class context of the method that hosts them).
    """

    def walk(
        node: ast.AST, enclosing: "FunctionInfo | None", class_name: "str | None"
    ) -> Iterator[tuple["FunctionInfo | None", ast.Call]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, None, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if class_name is not None and enclosing is None:
                    owner = module.classes.get(class_name)
                    info = owner.methods.get(child.name) if owner else None
                    if info is None:
                        info = FunctionInfo(
                            child,
                            f"{class_name}.{child.name}",
                            module.rel_path,
                            class_name=class_name,
                        )
                elif enclosing is None:
                    info = module.functions.get(child.name)
                    if info is None:
                        info = FunctionInfo(
                            child, child.name, module.rel_path
                        )
                else:
                    # Nested function: synthesise an info inheriting the
                    # enclosing binding context (class of the host method).
                    info = FunctionInfo(
                        child,
                        f"{enclosing.qualname}.{child.name}",
                        module.rel_path,
                        class_name=enclosing.class_name,
                    )
                yield from walk(child, info, None)
            else:
                if isinstance(child, ast.Call):
                    yield enclosing, child
                yield from walk(child, enclosing, class_name)
    yield from walk(tree, None, None)
