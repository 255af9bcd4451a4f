"""Rule catalogue: every shipped rule, addressable by code.

``RPL0xx`` are AST rules over the linted files; ``RPL1xx`` are the
import-and-inspect registry conformance checks
(:mod:`repro.tools.lint.registries`).  ``RPL000`` (unused suppression) and
``RPL099`` (unparsable module) are engine-level and always active.
"""

from __future__ import annotations

from .dataclass_hygiene import DataclassHygieneRule
from .determinism import DeterminismRule
from .engine import DataflowRule, ModuleRule
from .executor_races import ExecutorRaceRule
from .float_loops import FloatLoopRule
from .merge_safety import MergeSafetyRule
from .perflow import PerFlowLoopRule
from .picklability import PicklabilityRule
from .seed_provenance import SeedProvenanceRule
from .shared_state import SharedStateRule

__all__ = ["all_rules", "RULE_CATALOGUE"]

#: code -> one-line description, for --help style listings and docs.
RULE_CATALOGUE: dict[str, str] = {
    "RPL000": "suppression comment that silences no finding",
    "RPL001": DeterminismRule.description,
    "RPL002": PicklabilityRule.description,
    "RPL003": SharedStateRule.description,
    "RPL004": FloatLoopRule.description,
    "RPL005": DataclassHygieneRule.description,
    "RPL006": PerFlowLoopRule.description,
    "RPL007": SeedProvenanceRule.description,
    "RPL008": ExecutorRaceRule.description,
    "RPL009": MergeSafetyRule.description,
    "RPL099": "module could not be parsed",
    "RPL100": "registry entry fails to import or resolve",
    "RPL101": "registry entry does not satisfy its protocol",
    "RPL102": "registry key does not match the entry's declared name",
    "RPL103": "lazy accessor does not resolve the registry's own entry",
}


def all_rules() -> "tuple[list[ModuleRule], list[DataflowRule]]":
    """Fresh instances of every AST rule (module-level, project-level)."""
    module_rules: list[ModuleRule] = [
        DeterminismRule(),
        SharedStateRule(),
        FloatLoopRule(),
        DataclassHygieneRule(),
        PerFlowLoopRule(),
        MergeSafetyRule(),
    ]
    project_rules: list[DataflowRule] = [
        PicklabilityRule(),
        SeedProvenanceRule(),
        ExecutorRaceRule(),
    ]
    return module_rules, project_rules
