"""RPL006 -- per-flow Python loops in network hot paths.

After the columnar flow engine (:mod:`repro.network.flows`), iterating a
flow population in Python (``for flow in flows``, ``sum(... for flow in
...)``) is the residual scalability hazard of the network layer: each such
loop re-introduces O(flows) interpreter work into a pipeline that otherwise
scales to 10^5-10^6 flows per step as whole-array numpy.  The rule flags

* ``for`` statements, and
* comprehension/generator clauses,

that iterate over a flow collection -- a name (or attribute) matching the
flow-population conventions (``flows``, ``candidate_flows``, ...), possibly
wrapped in ``zip``/``enumerate``/``reversed`` -- or that bind a loop
variable named ``flow``.

The rule is scoped to ``repro/network`` modules: that is where the hot
paths live.  The per-flow reference implementations are test oracles
outside ``src/``, so any per-flow loop in the network layer fails the gate;
outside the network layer per-flow Python is fine and the rule stays
silent.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .engine import Finding, ModuleRule, ModuleSource

__all__ = ["PerFlowLoopRule"]

#: Names conventionally bound to whole flow populations.
FLOW_COLLECTIONS = frozenset(
    {"flows", "candidate_flows", "routed_flows", "step_flows"}
)
#: Calls that merely wrap the iterable they are handed.
_TRANSPARENT_CALLS = frozenset({"zip", "enumerate", "reversed", "sorted"})


def _collection_name(node: ast.AST) -> "str | None":
    """The flow-collection name an iterable expression refers to, if any."""
    if isinstance(node, ast.Name) and node.id in FLOW_COLLECTIONS:
        return node.id
    if isinstance(node, ast.Attribute) and node.attr in FLOW_COLLECTIONS:
        return node.attr
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _TRANSPARENT_CALLS
    ):
        for argument in node.args:
            name = _collection_name(argument)
            if name is not None:
                return name
    return None


def _binds_flow(target: ast.AST) -> bool:
    """Whether a loop target binds a variable named ``flow``."""
    return any(
        isinstance(node, ast.Name) and node.id == "flow"
        for node in ast.walk(target)
    )


class PerFlowLoopRule(ModuleRule):
    code = "RPL006"
    name = "per-flow-python-loop"
    description = (
        "network hot paths must not iterate flows in Python; use the "
        "columnar engine (repro.network.flows) or whole-array numpy"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if "repro/network/" not in module.rel_path.replace("\\", "/"):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.For):
                clauses = [(node.target, node.iter, node)]
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                clauses = [
                    (generator.target, generator.iter, node)
                    for generator in node.generators
                ]
            else:
                continue
            for target, iterable, anchor in clauses:
                collection = _collection_name(iterable)
                if collection is not None:
                    yield module.finding(
                        self.code,
                        anchor,
                        f"per-flow Python loop over {collection!r}; route "
                        "flow populations through the columnar engine "
                        "(repro.network.flows) instead",
                    )
                elif _binds_flow(target):
                    yield module.finding(
                        self.code,
                        anchor,
                        "loop binds a per-flow variable 'flow'; route flow "
                        "populations through the columnar engine "
                        "(repro.network.flows) instead",
                    )
