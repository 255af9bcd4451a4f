"""Layer 2 -- registry conformance by import-and-inspect.

Pure AST analysis cannot tell whether ``FAULT_MODELS["plane_outage"]``
actually resolves, or whether a fault model instance satisfies the
:class:`~repro.network.faults.FaultModel` protocol.  This layer imports the
live registries and checks every entry:

* **RPL100** -- the registry (or an entry) fails to import/resolve;
* **RPL101** -- an entry does not satisfy its protocol (wrong type,
  missing attribute, signature that cannot accept the protocol's call);
* **RPL102** -- the registry key does not match the entry's declared name
  (``model.name``, ``policy.name``, ``experiment.experiment_id``);
* **RPL103** -- the ``get_*`` accessor does not return the registry's own
  entry for its key (the ``get_fault_model``-style string-target path is
  broken).

The checks are data-driven: :func:`check_registries` takes a list of
:class:`RegistrySpec`, so tests can point the same machinery at seeded
broken registries without touching the live package.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from importlib import import_module
from typing import Callable, Mapping

from .engine import Finding

__all__ = [
    "RegistrySpec",
    "default_registry_specs",
    "check_registries",
]

RESOLUTION = "RPL100"
PROTOCOL = "RPL101"
KEY_MISMATCH = "RPL102"
LAZY_TARGET = "RPL103"


@dataclass(frozen=True)
class RegistrySpec:
    """How to locate and validate one registry."""

    #: Dotted module holding the registry.
    module: str
    #: Attribute name of the registry mapping.
    attribute: str
    #: Per-entry protocol check: returns a list of problem strings.
    entry_check: "Callable[[str, object], list[str]] | None" = None
    #: Returns the entry's declared name, or None when the convention
    #: does not define one (key-mismatch check is then skipped).
    declared_name: "Callable[[str, object], str | None] | None" = None
    #: The registry's accessor, e.g. ``get_fault_model``.
    accessor: "Callable[[str], object] | None" = None
    accessor_name: str = ""

    @property
    def label(self) -> str:
        return f"{self.module}:{self.attribute}"


def _finding(spec: RegistrySpec, rule: str, message: str, key: str = "") -> Finding:
    symbol = f"{spec.attribute}[{key!r}]" if key else spec.attribute
    return Finding(rule=rule, path=spec.module, line=1, message=message, symbol=symbol)


def _callable_accepts(value: object, count: int) -> "str | None":
    """Check ``value`` can be called with ``count`` positional arguments."""
    if not callable(value):
        return "entry is not callable"
    try:
        signature = inspect.signature(value)
    except (TypeError, ValueError):  # builtins without introspection
        return None
    try:
        signature.bind(*[None] * count)
    except TypeError:
        return (
            f"signature {signature} cannot accept the protocol's "
            f"{count} positional argument(s)"
        )
    return None


def check_registries(
    specs: "list[RegistrySpec] | None" = None,
) -> list[Finding]:
    """Validate every entry of every registry; return the findings."""
    findings: list[Finding] = []
    for spec in specs if specs is not None else default_registry_specs():
        findings.extend(_check_one(spec))
    findings.sort(key=lambda f: (f.path, f.symbol, f.rule, f.message))
    return findings


def _check_one(spec: RegistrySpec) -> list[Finding]:
    findings: list[Finding] = []
    try:
        module = import_module(spec.module)
    except Exception as error:
        findings.append(
            _finding(spec, RESOLUTION, f"registry module failed to import: {error!r}")
        )
        return findings
    registry = getattr(module, spec.attribute, None)
    if registry is None:
        findings.append(
            _finding(
                spec,
                RESOLUTION,
                f"module {spec.module!r} has no attribute {spec.attribute!r}",
            )
        )
        return findings
    if not isinstance(registry, Mapping):
        findings.append(
            _finding(
                spec,
                PROTOCOL,
                f"registry {spec.attribute!r} is {type(registry).__name__}, "
                "not a mapping",
            )
        )
        return findings

    for key in sorted(registry):
        value = registry[key]
        if not isinstance(key, str) or not key:
            findings.append(
                _finding(
                    spec,
                    PROTOCOL,
                    f"registry key {key!r} must be a non-empty string",
                    key=str(key),
                )
            )
            continue
        if value is None:
            findings.append(
                _finding(spec, RESOLUTION, "entry resolved to None", key=key)
            )
            continue
        if spec.entry_check is not None:
            for problem in spec.entry_check(key, value):
                findings.append(_finding(spec, PROTOCOL, problem, key=key))
        if spec.declared_name is not None:
            declared = spec.declared_name(key, value)
            if declared is not None and declared != key:
                findings.append(
                    _finding(
                        spec,
                        KEY_MISMATCH,
                        f"registry key {key!r} does not match the entry's "
                        f"declared name {declared!r}",
                        key=key,
                    )
                )
        if spec.accessor is not None:
            try:
                resolved = spec.accessor(key)
            except Exception as error:
                findings.append(
                    _finding(
                        spec,
                        LAZY_TARGET,
                        f"accessor {spec.accessor_name}({key!r}) raised "
                        f"{error!r}",
                        key=key,
                    )
                )
            else:
                if resolved is not value:
                    findings.append(
                        _finding(
                            spec,
                            LAZY_TARGET,
                            f"accessor {spec.accessor_name}({key!r}) returned "
                            "a different object than the registry entry",
                            key=key,
                        )
                    )
    return findings


# -- live registry specs ---------------------------------------------------------


def _fault_model_check(key: str, value: object) -> list[str]:
    from ...network.faults import FaultModel

    problems: list[str] = []
    if not isinstance(value, FaultModel):
        problems.append(f"entry {type(value).__name__!r} is not a FaultModel")
        return problems
    if not isinstance(getattr(value, "parameters", None), frozenset):
        problems.append("fault model .parameters must be a frozenset")
    for method, count in (("validate", 1), ("compile", 2)):
        bound = getattr(value, method, None)
        if not callable(bound):
            problems.append(f"fault model lacks {method}()")
            continue
        problem = _callable_accepts(bound, count)
        if problem:
            problems.append(f"{method}: {problem}")
    return problems


def _telemetry_check(key: str, value: object) -> list[str]:
    from ...network.telemetry import TelemetryModel

    problems: list[str] = []
    if not isinstance(value, TelemetryModel):
        problems.append(f"entry {type(value).__name__!r} is not a TelemetryModel")
        return problems
    if not isinstance(getattr(value, "name", None), str):
        problems.append("telemetry model .name must be a string")
    if not isinstance(getattr(value, "summary_pairs", None), int):
        problems.append("telemetry model .summary_pairs must be an int")
    bound = getattr(value, "store", None)
    if not callable(bound):
        problems.append("telemetry model lacks store()")
    else:
        problem = _callable_accepts(bound, 0)
        if problem:
            problems.append(f"store: {problem}")
    return problems


def _steering_check(key: str, value: object) -> list[str]:
    from ...network.steering import SteeringPolicy

    problems: list[str] = []
    if not isinstance(value, SteeringPolicy):
        problems.append(f"entry {type(value).__name__!r} is not a SteeringPolicy")
        return problems
    if not isinstance(getattr(value, "name", None), str):
        problems.append("steering policy .name must be a string")
    if not isinstance(getattr(value, "adaptive", None), bool):
        problems.append("steering policy .adaptive must be a bool")
    bound = getattr(value, "controller", None)
    if not callable(bound):
        problems.append("steering policy lacks controller()")
    else:
        problem = _callable_accepts(bound, 0)
        if problem:
            problems.append(f"controller: {problem}")
    bound = getattr(value, "multipliers", None)
    if not callable(bound):
        problems.append("steering policy lacks multipliers()")
    else:
        problem = _callable_accepts(bound, 3)
        if problem:
            problems.append(f"multipliers: {problem}")
    return problems


def _exporter_check(key: str, value: object) -> list[str]:
    from ...obs.exporters import Exporter

    problems: list[str] = []
    if not isinstance(value, Exporter):
        problems.append(f"entry {type(value).__name__!r} is not an Exporter")
        return problems
    if not isinstance(getattr(value, "name", None), str):
        problems.append("exporter .name must be a string")
    bound = getattr(value, "render", None)
    if not callable(bound):
        problems.append("exporter lacks render()")
    else:
        problem = _callable_accepts(bound, 1)
        if problem:
            problems.append(f"render: {problem}")
    return problems


def _experiment_check(key: str, value: object) -> list[str]:
    from ...analysis.experiments import Experiment

    problems: list[str] = []
    if not isinstance(value, Experiment):
        problems.append(f"entry {type(value).__name__!r} is not an Experiment")
        return problems
    if not isinstance(value.title, str) or not value.title:
        problems.append("experiment title must be a non-empty string")
    problem = _callable_accepts(value.runner, 1)
    if problem:
        problems.append(f"runner: {problem}")
    return problems


def default_registry_specs() -> list[RegistrySpec]:
    """Specs for the five live registries of the engine."""
    from ...analysis.experiments import EXPERIMENTS  # noqa: F401 - existence
    from ...network.faults import get_fault_model
    from ...network.steering import get_steering_policy
    from ...network.telemetry import get_telemetry
    from ...obs.exporters import get_exporter

    return [
        RegistrySpec(
            module="repro.network.faults",
            attribute="FAULT_MODELS",
            entry_check=_fault_model_check,
            declared_name=lambda key, value: getattr(value, "name", None),
            accessor=get_fault_model,
            accessor_name="get_fault_model",
        ),
        RegistrySpec(
            module="repro.network.steering",
            attribute="STEERING_POLICIES",
            entry_check=_steering_check,
            declared_name=lambda key, value: getattr(value, "name", None),
            accessor=get_steering_policy,
            accessor_name="get_steering_policy",
        ),
        RegistrySpec(
            module="repro.network.telemetry",
            attribute="TELEMETRY",
            entry_check=_telemetry_check,
            declared_name=lambda key, value: getattr(value, "name", None),
            accessor=get_telemetry,
            accessor_name="get_telemetry",
        ),
        RegistrySpec(
            module="repro.obs.exporters",
            attribute="OBS_EXPORTERS",
            entry_check=_exporter_check,
            declared_name=lambda key, value: getattr(value, "name", None),
            accessor=get_exporter,
            accessor_name="get_exporter",
        ),
        RegistrySpec(
            module="repro.analysis.experiments",
            attribute="EXPERIMENTS",
            entry_check=_experiment_check,
            declared_name=lambda key, value: getattr(
                value, "experiment_id", None
            ),
        ),
    ]
