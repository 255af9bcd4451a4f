"""RPL008 -- static race detection on executor-submitted call graphs.

RPL003 catches the *syntactic* shape of shared mutable state (module
globals mutated in functions).  This rule is its interprocedural twin,
and the one that catches the ``_SharedRouteCache`` bug class: starting
from every
``ThreadPoolExecutor`` / ``ProcessPoolExecutor`` ``submit``/``map`` site
it walks the call graph the worker can actually reach and flags writes to
state that lives *outside* the worker:

* mutation of module-level mutable containers -- the frame's own module's
  or one imported from another linted module (which RPL003, being
  per-module, cannot see);
* writes through ``global`` / ``nonlocal`` declarations;
* attribute / subscript / mutator-method writes on **captured** objects:
  closure variables of a nested worker, the bound receiver of a submitted
  method, and anything reached from those by attribute access or
  subscripting.

What does *not* count as shared -- the merge-pattern-local exemptions:

* objects the worker (or anything it calls) constructs itself: the
  build-local-accumulators-then-``merge()``-in-the-driver idiom;
* per-task arguments: loop/comprehension variables at the submit site and
  the items of ``pool.map``;
* writes lexically inside a ``with <...lock...>:`` block, and everything
  called from inside one -- check-then-compute caches that take their
  lock are the sanctioned shared-state shape (thread pools only: a lock
  cannot make cross-*process* divergence safe);
* for process pools, captured objects are exempt entirely (workers get
  pickled copies), leaving the module-global checks, whose writes would
  silently diverge between driver and workers.

Receiver types resolve through parameter annotations and local
``X(...)`` construction only; an unresolvable receiver produces silence,
not a guess.  Writes inside the worker frame anchor at the write
statement; writes in called code anchor at the callee's ``def`` line,
aggregated per callee, so one suppression can cover a method whose
single-owner discipline the analysis cannot see.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .astutil import dotted_chain
from .engine import DataflowRule, Finding
from .dataflow import (
    FunctionInfo,
    ModuleInfo,
    Project,
    SubmitSite,
    bind_arguments,
)
from .importgraph import RawImport
from .shared_state import _MUTATORS, _module_level_containers

__all__ = ["ExecutorRaceRule"]

_MAX_DEPTH = 8


class _Frame:
    """One function under analysis: which locals alias outside state."""

    __slots__ = ("module", "function", "outside", "locked", "depth", "fallback")

    def __init__(
        self,
        module: ModuleInfo,
        function: "FunctionInfo | None",
        outside: set[str],
        locked: bool,
        depth: int,
        fallback: "FunctionInfo | None" = None,
    ):
        self.module = module
        self.function = function
        self.outside = outside
        self.locked = locked
        self.depth = depth
        #: For nested workers/lambdas: the enclosing function, where the
        #: classes of captured names are actually constructed/annotated.
        self.fallback = fallback


class _Write:
    """One flagged shared-state write."""

    __slots__ = ("module", "node", "frame_function", "target", "detail")

    def __init__(self, module, node, frame_function, target, detail):
        self.module = module
        self.node = node
        self.frame_function = frame_function
        self.target = target
        self.detail = detail


def _is_lock_guard(item: ast.withitem) -> bool:
    """``with self._lock:`` / ``with cache.lock:`` style guards."""
    chain = dotted_chain(item.context_expr)
    if chain is None and isinstance(item.context_expr, ast.Call):
        chain = dotted_chain(item.context_expr.func)
    return chain is not None and "lock" in chain[-1].lower()


class ExecutorRaceRule(DataflowRule):
    code = "RPL008"
    name = "executor-race-detection"
    description = (
        "code reachable from executor submit/map sites must not write "
        "shared state (globals, captured objects) without a lock"
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

    # -- roots -------------------------------------------------------------------

    def _check_site(
        self, project: Project, site: SubmitSite
    ) -> Iterator[Finding]:
        target = site.target
        root = (
            f"{site.kind.title()}PoolExecutor.{site.method} in "
            f"{site.module.source.symbol_at(site.node) or site.module.rel_path}"
        )
        writes: list[_Write] = []
        seen: set[tuple[int, frozenset, bool]] = set()
        captured_ok = site.kind == "thread"

        if isinstance(target, ast.Lambda):
            outside = (
                _free_names(target, site.enclosing) if captured_ok else set()
            )
            frame = _Frame(
                site.module, None, outside, False, 0, fallback=_site_info(site)
            )
            self._walk_body(project, [target.body], frame, writes, seen)
        elif isinstance(target, ast.Name):
            nested = site.nested_target()
            if nested is not None:
                outside = (
                    _free_names(nested, site.enclosing) if captured_ok else set()
                )
                info = FunctionInfo(
                    nested,
                    site.module.source.symbol_at(nested) or nested.name,
                    site.module.rel_path,
                    class_name=_enclosing_class_of_self(site, nested),
                )
                frame = _Frame(
                    site.module,
                    info,
                    outside,
                    False,
                    0,
                    fallback=_site_info(site),
                )
                self._walk_body(project, nested.body, frame, writes, seen)
            else:
                resolved = project.resolve_name(site.module, target.id)
                if resolved is not None and resolved[0] == "function":
                    function = resolved[1].functions[resolved[2]]
                    outside = (
                        self._shared_submit_args(project, site, function)
                        if captured_ok
                        else set()
                    )
                    frame = _Frame(resolved[1], function, outside, False, 0)
                    self._walk_body(
                        project, function.node.body, frame, writes, seen
                    )
        elif isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ):
            # ``pool.submit(obj.method, ...)``: the receiver lives outside.
            method = project._resolve_method(
                site.module, _site_info(site), target.value.id, target.attr
            )
            if method is not None and captured_ok:
                owner = project.modules[method.module]
                frame = _Frame(owner, method, {"self"}, False, 0)
                self._walk_body(project, method.node.body, frame, writes, seen)

        yield from self._render(writes, root)

    def _shared_submit_args(
        self, project: Project, site: SubmitSite, function: FunctionInfo
    ) -> set[str]:
        """Parameters of a submitted module function fed enclosing-scope
        objects (the same object every task sees) rather than per-task
        values (loop variables, map items)."""
        if site.method == "map":
            return set()
        task_local = _loop_targets(site.enclosing)
        synthetic = ast.Call(
            func=site.target,
            args=list(site.node.args[1:]),
            keywords=list(site.node.keywords),
        )
        binding = bind_arguments(function, synthetic, bound_receiver=False)
        shared: set[str] = set()
        enclosing_locals = _bound_names(site.enclosing)
        for param, expr in binding.items():
            if (
                isinstance(expr, ast.Name)
                and expr.id not in task_local
                and expr.id in enclosing_locals
            ):
                shared.add(param)
        return shared

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
                module.rel_path, RawImport(dotted, 0)
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

    def _walk_body(
        self,
        project: Project,
        body: "list[ast.stmt] | list[ast.AST]",
        frame: _Frame,
        writes: list[_Write],
        seen: set,
    ) -> None:
        if frame.depth > _MAX_DEPTH:
            return
        key = (
            id(frame.function.node) if frame.function is not None else id(body[0]),
            frozenset(frame.outside),
            frame.locked,
        )
        if key in seen:
            return
        seen.add(key)
        declared_global: set[str] = set()
        declared_nonlocal: set[str] = set()
        for statement in body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Global):
                    declared_global.update(node.names)
                elif isinstance(node, ast.Nonlocal):
                    declared_nonlocal.update(node.names)
        module_containers = self._global_containers(project, frame.module)

        def outside_root(expr: ast.AST) -> "str | None":
            """Name at the root of an outside-aliasing expression."""
            chain = dotted_chain(expr)
            if chain is None:
                node = expr
                while isinstance(node, ast.Subscript):
                    node = node.value
                chain = dotted_chain(node)
            if chain is None:
                return None
            root = chain[0]
            if root in frame.outside:
                return root
            return None

        def derives_outside(expr: "ast.AST | None") -> bool:
            """Does evaluating ``expr`` alias outside state?"""
            if expr is None:
                return False
            if outside_root(expr) is not None:
                return True
            if isinstance(expr, ast.Subscript):
                return derives_outside(expr.value)
            if isinstance(expr, ast.Call):
                # ``shared.get(key)`` is a read accessor, same as ``[]``.
                func = expr.func
                if isinstance(func, ast.Attribute) and func.attr == "get":
                    return derives_outside(func.value)
            if isinstance(expr, ast.IfExp):
                return derives_outside(expr.body) or derives_outside(expr.orelse)
            return False

        def flag(node: ast.AST, target: str, detail: str) -> None:
            if frame.locked:
                return
            writes.append(
                _Write(frame.module, node, frame.function, target, detail)
            )

        def visit(node: ast.AST, locked: bool) -> None:
            previous = frame.locked
            frame.locked = locked
            try:
                self._visit_statement(
                    project,
                    node,
                    frame,
                    writes,
                    seen,
                    declared_global,
                    declared_nonlocal,
                    module_containers,
                    outside_root,
                    derives_outside,
                    flag,
                    visit,
                )
            finally:
                frame.locked = previous

        for statement in body:
            visit(statement, frame.locked)

    def _visit_statement(
        self,
        project: Project,
        node: ast.AST,
        frame: _Frame,
        writes: list[_Write],
        seen: set,
        declared_global: set[str],
        declared_nonlocal: set[str],
        module_containers: set[str],
        outside_root,
        derives_outside,
        flag,
        visit,
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # nested defs analysed only if themselves submitted
        if isinstance(node, ast.With):
            locked = frame.locked or any(
                _is_lock_guard(item) for item in node.items
            )
            for item in node.items:
                visit(item.context_expr, frame.locked)
            for child in node.body:
                visit(child, locked)
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                self._check_write_target(
                    node,
                    target,
                    frame,
                    declared_global,
                    declared_nonlocal,
                    module_containers,
                    outside_root,
                    flag,
                )
            value = getattr(node, "value", None)
            # Track aliasing: ``x = shared[k]`` makes ``x`` outside too.
            if isinstance(node, ast.Assign) and value is not None:
                if derives_outside(value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            frame.outside.add(target.id)
                else:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            frame.outside.discard(target.id)
            if value is not None:
                visit(value, frame.locked)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    root = outside_root(target.value)
                    if root is not None:
                        flag(node, root, f"del on captured {root!r}")
                    elif (
                        isinstance(target.value, ast.Name)
                        and target.value.id in module_containers
                    ):
                        flag(
                            node,
                            target.value.id,
                            f"del on module global {target.value.id!r}",
                        )
            return
        if isinstance(node, ast.Call):
            self._check_call(
                project,
                node,
                frame,
                writes,
                seen,
                module_containers,
                outside_root,
                derives_outside,
                flag,
            )
            for arg in node.args:
                visit(arg, frame.locked)
            for keyword in node.keywords:
                visit(keyword.value, frame.locked)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, frame.locked)

    def _check_write_target(
        self,
        statement: ast.AST,
        target: ast.AST,
        frame: _Frame,
        declared_global: set[str],
        declared_nonlocal: set[str],
        module_containers: set[str],
        outside_root,
        flag,
    ) -> None:
        if isinstance(target, ast.Name):
            if target.id in declared_global:
                flag(
                    statement,
                    target.id,
                    f"rebinds module global {target.id!r}",
                )
            elif target.id in declared_nonlocal:
                flag(
                    statement,
                    target.id,
                    f"rebinds closure cell {target.id!r} of the "
                    "enclosing scope",
                )
            return
        if isinstance(target, ast.Attribute):
            root = outside_root(target)
            if root is not None:
                flag(
                    statement,
                    root,
                    f"writes attribute {target.attr!r} of captured "
                    f"{root!r}",
                )
            return
        if isinstance(target, ast.Subscript):
            root = outside_root(target.value)
            if root is not None:
                flag(
                    statement,
                    root,
                    f"writes into captured {root!r} by subscript",
                )
            elif (
                isinstance(target.value, ast.Name)
                and target.value.id in module_containers
            ):
                flag(
                    statement,
                    target.value.id,
                    f"writes into module global {target.value.id!r}",
                )
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_write_target(
                    statement,
                    element,
                    frame,
                    declared_global,
                    declared_nonlocal,
                    module_containers,
                    outside_root,
                    flag,
                )

    def _check_call(
        self,
        project: Project,
        call: ast.Call,
        frame: _Frame,
        writes: list[_Write],
        seen: set,
        module_containers: set[str],
        outside_root,
        derives_outside,
        flag,
    ) -> None:
        func = call.func
        # Mutator method on an outside object or a module-level container.
        if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
            root = outside_root(func.value)
            if root is not None:
                flag(
                    call,
                    root,
                    f".{func.attr}() on captured {root!r}",
                )
                return
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in module_containers
            ):
                flag(
                    call,
                    func.value.id,
                    f".{func.attr}() on module global {func.value.id!r}",
                )
                return
        # Descend into resolvable project calls, propagating outside-ness.
        callee_module: ModuleInfo | None = None
        callee: FunctionInfo | None = None
        self_outside = False
        if isinstance(func, ast.Name):
            resolved = project.resolve_name(frame.module, func.id)
            if resolved is not None and resolved[0] == "function":
                callee_module = resolved[1]
                callee = resolved[1].functions[resolved[2]]
        elif isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            base = func.value.id
            receiver_outside = base in frame.outside
            method = project._resolve_method(
                frame.module, frame.function, base, func.attr
            )
            if method is None and frame.fallback is not None:
                # A captured name's class is visible only in the scope the
                # worker was defined in, not in the worker itself.
                method = project._resolve_method(
                    frame.module, frame.fallback, base, func.attr
                )
            if method is not None:
                callee_module = project.modules[method.module]
                callee = method
                self_outside = receiver_outside
        if callee is None or callee_module is None:
            return
        binding = bind_arguments(
            callee,
            call,
            bound_receiver=isinstance(func, ast.Attribute),
        )
        outside_params = {
            param
            for param, expr in binding.items()
            if derives_outside(expr)
        }
        if self_outside:
            outside_params.add("self")
        if not outside_params and not frame.locked:
            # No shared state flows in; only module-global writes could
            # fire, and those are caught when the callee's own module is
            # walked from a root that reaches it with shared state -- or by
            # RPL003.  Still descend for process roots (empty outside set
            # keeps the walk cheap) to catch cross-module global writes.
            pass
        child = _Frame(
            callee_module,
            callee,
            outside_params,
            frame.locked,
            frame.depth + 1,
        )
        self._walk_body(project, callee.node.body, child, writes, seen)

    # -- rendering ---------------------------------------------------------------

    def _render(self, writes: list[_Write], root: str) -> Iterator[Finding]:
        """In-frame writes anchor at the statement; callee writes aggregate
        per function definition."""
        by_callee: dict[tuple[str, str], list[_Write]] = {}
        for write in writes:
            if write.frame_function is None or write.frame_function.qualname == (
                write.module.source.symbol_at(write.node)
            ):
                yield write.module.source.finding(
                    self.code,
                    write.node,
                    f"worker reachable from {root} {write.detail} without "
                    "holding a lock; shared mutable state breaks executor "
                    "equivalence",
                )
            else:
                by_callee.setdefault(
                    (write.module.rel_path, write.frame_function.qualname),
                    [],
                ).append(write)
        for (rel_path, qualname), grouped in sorted(by_callee.items()):
            module = grouped[0].module
            details = sorted({write.detail for write in grouped})
            yield module.source.finding(
                self.code,
                grouped[0].frame_function.node,
                f"{qualname}() is reachable from {root} and "
                f"{'; '.join(details)} without holding a lock; shared "
                "mutable state breaks executor equivalence",
            )


# -- helpers ---------------------------------------------------------------------


def _bound_names(function: ast.AST) -> set[str]:
    """Names bound anywhere inside ``function`` (params, assigns, loops)."""
    bound: set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not function:
                bound.add(node.name)
    return bound


def _free_names(worker: ast.AST, enclosing: ast.AST) -> set[str]:
    """Free variables of a nested worker: read there, bound outside it."""
    local = _bound_names(worker)
    if isinstance(worker, ast.Lambda):
        local.update(arg.arg for arg in worker.args.args)
    outer = _bound_names(enclosing)
    free: set[str] = set()
    for node in ast.walk(worker):
        if (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id not in local
            and node.id in outer
        ):
            free.add(node.id)
    return free


def _loop_targets(function: ast.AST) -> set[str]:
    """Names bound as for-loop or comprehension targets (per-task values)."""
    targets: set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            for child in ast.walk(node.target):
                if isinstance(child, ast.Name):
                    targets.add(child.id)
        elif isinstance(node, ast.comprehension):
            for child in ast.walk(node.target):
                if isinstance(child, ast.Name):
                    targets.add(child.id)
    return targets


def _site_info(site: SubmitSite) -> FunctionInfo:
    return FunctionInfo(
        site.enclosing,
        site.module.source.symbol_at(site.node) or site.enclosing.name,
        site.module.rel_path,
    )


def _enclosing_class_of_self(
    site: SubmitSite, nested: ast.AST
) -> "str | None":
    """Class context of a nested worker whose frames may read ``self``."""
    qualname = site.module.source.symbol_at(site.node) or ""
    head = qualname.split(".")[0] if qualname else ""
    return head if head and head in site.module.classes else None
