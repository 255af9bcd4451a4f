"""``repro-lint``: project-specific static analysis for engine invariants.

The engine's contract -- fixed-seed sweeps bit-identical whether they run
serially or in worker processes -- rests on rules no general-purpose
linter knows about.  This package checks them statically, before anything
runs:

========  =======================================================
RPL001    determinism: explicit-seed RNG streams, no wall clocks
RPL002    worker-payload picklability on process-executor paths
RPL003    shared mutable state: no function-scope mutation of
          module-level containers
RPL004    float-loop accumulation (use ``orbits.time.step_count``)
RPL005    dataclass compare/hash hygiene (arrays, frozen specs)
RPL006    per-flow Python loops on hot paths (use the flow engine)
RPL007    seed provenance: every RNG seed traces to a literal,
          spec field, or deterministic derivation (interprocedural)
RPL008    executor sites: process pools only, and no module-global
          writes reachable from submit/map sites (interprocedural)
RPL009    merge-safety: ``merge()`` targets carry only mergeable,
          picklable fields (no locks, handles, tracers)
RPL10x    registry conformance (FAULT_MODELS / STEERING_POLICIES /
          TELEMETRY / OBS_EXPORTERS / EXPERIMENTS, import-and-inspect)
========  =======================================================

RPL002 and RPL007--009 ride on a shared substrate, built once per run: a
project import graph (:mod:`repro.tools.lint.importgraph`) and call-graph
index (:mod:`repro.tools.lint.dataflow`).

Run ``python -m repro.tools.lint src/repro`` (see
``CONTRIBUTING.md`` -- "Engine invariants") or use :func:`run_lint`
programmatically.  Every finding fails the run; a rule whose own docs allow
it may be silenced on one line with a justified inline suppression::

    value = call()  # repro-lint: ignore[RPL001]
"""

from .cli import main, run_lint
from .engine import Finding, LintRunner
from .importgraph import ImportGraph
from .registries import RegistrySpec, check_registries, default_registry_specs
from .rules import RULE_CATALOGUE, all_rules

__all__ = [
    "Finding",
    "ImportGraph",
    "LintRunner",
    "RULE_CATALOGUE",
    "RegistrySpec",
    "all_rules",
    "check_registries",
    "default_registry_specs",
    "main",
    "run_lint",
]
