"""Metric exporters: render a :class:`RunMetrics` for people or tooling.

Exporters are registered by name in :data:`OBS_EXPORTERS`, mirroring
``TELEMETRY`` / ``STEERING_POLICIES`` / ``FAULT_MODELS``, and
validated by the same lint machinery (``RPL100``-``RPL103`` via a
``RegistrySpec``).  Three ship by default:

* ``"json"`` -- the full :meth:`RunMetrics.to_dict` document (stage
  histograms included), for benchmark records and CI artifacts;
* ``"table"`` -- an aligned per-stage text table (calls / total / mean /
  share) plus counters and gauges, for terminals and logs;
* ``"null"`` -- renders nothing, the disabled sink.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from .metrics import RunMetrics

__all__ = [
    "Exporter",
    "JsonExporter",
    "TableExporter",
    "NullExporter",
    "OBS_EXPORTERS",
    "get_exporter",
]


class Exporter(ABC):
    """Renders run metrics to a string; registry-named."""

    name: str = ""

    @abstractmethod
    def render(self, metrics: RunMetrics) -> str:
        """Return the rendered metrics (may be empty)."""

    def export(self, metrics: RunMetrics, stream=None) -> str:
        """Render and, when ``stream`` is given, write the non-empty result."""
        text = self.render(metrics)
        if stream is not None and text:
            stream.write(text + "\n")
        return text


@dataclass
class JsonExporter(Exporter):
    """Full JSON dump of the metrics (machine-readable, histogram included)."""

    name: str = field(default="json", init=False)
    indent: "int | None" = 2

    def render(self, metrics: RunMetrics) -> str:
        return json.dumps(metrics.to_dict(), indent=self.indent, sort_keys=True)


@dataclass
class TableExporter(Exporter):
    """Aligned per-stage text table, for terminals and logs."""

    name: str = field(default="table", init=False)
    #: Stages with zero calls are omitted unless this is set.
    include_idle: bool = False

    def render(self, metrics: RunMetrics) -> str:
        summary = metrics.stage_summary()
        rows = [
            (stage, entry)
            for stage, entry in summary.items()
            if self.include_idle or entry["calls"] > 0
        ]
        width = max([len("stage")] + [len(stage) for stage, _ in rows])
        lines = [
            f"{'stage':<{width}}  {'calls':>8}  {'total_s':>10}  "
            f"{'mean_ms':>9}  {'share':>6}"
        ]
        for stage, entry in rows:
            lines.append(
                f"{stage:<{width}}  {int(entry['calls']):>8}  "
                f"{entry['seconds']:>10.4f}  {entry['mean_ms']:>9.3f}  "
                f"{entry['share'] * 100.0:>5.1f}%"
            )
        for label, mapping in (("counter", metrics.counters), ("gauge", metrics.gauges)):
            for name in sorted(mapping):
                lines.append(f"{label} {name} = {mapping[name]:g}")
        return "\n".join(lines)


@dataclass
class NullExporter(Exporter):
    """Renders nothing: the disabled sink."""

    name: str = field(default="null", init=False)

    def render(self, metrics: RunMetrics) -> str:
        return ""


#: Metric exporters addressable by name, mirroring
#: :data:`repro.network.telemetry.TELEMETRY`.
OBS_EXPORTERS: dict[str, Exporter] = {
    exporter.name: exporter
    for exporter in (JsonExporter(), TableExporter(), NullExporter())
}


def get_exporter(name: str) -> Exporter:
    """Return the exporter registered under ``name``."""
    try:
        return OBS_EXPORTERS[name]
    except KeyError:
        raise ValueError(
            f"unknown metrics exporter {name!r}; available: {sorted(OBS_EXPORTERS)}"
        ) from None
