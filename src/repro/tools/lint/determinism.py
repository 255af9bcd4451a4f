"""RPL001 -- determinism: no ambient randomness or wall-clock reads.

The engine's headline invariant is that fixed-seed sweeps are bit-identical
across executors.  Any randomness that does not flow through an
explicit-seed :func:`numpy.random.default_rng` stream -- and any wall-clock
read folded into results -- silently breaks that contract.

Flagged call targets (resolved through the module's import table, so local
variables shadowing the module names never trip the rule):

* ``numpy.random.*`` legacy API (``rand``, ``seed``, ``shuffle``,
  ``RandomState()`` without a seed, ...);
* ``numpy.random.default_rng()`` / ``RandomState()`` with no (or ``None``)
  seed argument -- entropy from the OS;
* the stdlib ``random`` module, seeded or not (its global state is shared
  and ordering-dependent);
* ``time.time`` / ``time.time_ns`` (wall clock; ``time.perf_counter`` is
  the sanctioned timing call and is allowed);
* ``datetime.datetime.now``/``utcnow``/``today`` and ``datetime.date.today``;
* ``os.urandom``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .astutil import import_table, resolve_call_target
from .engine import Finding, ModuleRule, ModuleSource

__all__ = ["DeterminismRule"]

_WALL_CLOCK = {
    "time.time": "wall-clock read; use time.perf_counter() for timing",
    "time.time_ns": "wall-clock read; use time.perf_counter_ns() for timing",
    "datetime.datetime.now": "wall-clock read; pass the epoch in explicitly",
    "datetime.datetime.utcnow": "wall-clock read; pass the epoch in explicitly",
    "datetime.datetime.today": "wall-clock read; pass the epoch in explicitly",
    "datetime.date.today": "wall-clock read; pass the epoch in explicitly",
    "os.urandom": "OS entropy; all randomness must flow from an explicit seed",
}

#: numpy.random entry points that accept an explicit seed as their first
#: argument and are therefore allowed *when seeded*.
_SEEDABLE = {"numpy.random.default_rng", "numpy.random.RandomState"}


def _is_unseeded(call: ast.Call) -> bool:
    """True when a seedable constructor is called without an explicit seed."""
    if call.keywords:
        return all(
            keyword.arg not in ("seed",) and keyword.arg is not None
            for keyword in call.keywords
        ) and not call.args
    if not call.args:
        return True
    first = call.args[0]
    return isinstance(first, ast.Constant) and first.value is None


class DeterminismRule(ModuleRule):
    code = "RPL001"
    name = "determinism"
    description = (
        "randomness must flow through explicit-seed numpy.random.default_rng; "
        "no wall-clock reads in library code"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        imports = import_table(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node.func, imports)
            if target is None:
                continue
            if target in _WALL_CLOCK:
                yield module.finding(
                    self.code, node, f"{target}(): {_WALL_CLOCK[target]}"
                )
            elif target == "random" or target.startswith("random."):
                yield module.finding(
                    self.code,
                    node,
                    f"{target}(): stdlib random uses shared global state; "
                    "use an explicit-seed numpy.random.default_rng stream",
                )
            elif target in _SEEDABLE:
                if _is_unseeded(node):
                    yield module.finding(
                        self.code,
                        node,
                        f"{target}() without an explicit seed draws OS "
                        "entropy; pass the scenario's seed",
                    )
            elif target.startswith("numpy.random."):
                yield module.finding(
                    self.code,
                    node,
                    f"{target}(): legacy global-state numpy.random API; "
                    "use an explicit-seed numpy.random.default_rng stream",
                )
