"""Golden regression test: exact per-step snapshot links of recorded sequences.

For every step of a handful of small sequences -- a single shell, two shells
stitched by ``nearest`` and by ``k-nearest`` links, every fault model on one
sequence, a hand-built schedule with degraded ground stations, and a station
subset -- the committed record holds SHA-256 digests of:

* :meth:`SnapshotSequence.edge_list`: the label table and the raw bytes of
  ``a``, ``b``, ``distance_km``, ``delay_ms`` and ``capacity_gbps``, so row
  order (which fixes CSR neighbour order and therefore shortest-path
  tie-breaks) and every float are pinned bit for bit;
* the :meth:`SnapshotSequence.graphs` stream (``copy=True``): the nodes with
  their attributes and ``list(graph.edges(data=True))`` in iteration order,
  so the incremental graph diff is pinned too.

To re-record after a deliberate behaviour change::

    PYTHONPATH=src python tests/network/test_snapshot_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.coverage.walker import WalkerDelta
from repro.network.faults import FaultContext, FaultSchedule, FaultSpec, compile_faults
from repro.network.ground_station import GroundStation
from repro.network.topology import ConstellationTopology, MultiShellTopology
from repro.orbits.time import Epoch, epoch_range

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_snapshot_links.json"

STATIONS = (
    GroundStation("London", 51.5, -0.1),
    GroundStation("New York", 40.7, -74.0),
    GroundStation("Tokyo", 35.7, 139.7),
    GroundStation("Sao Paulo", -23.6, -46.6),
    GroundStation("Sydney", -33.9, 151.2),
)
SUBSET = ("New York", "Sao Paulo", "Sydney")

EDGE_LIST_FIELDS = ("a", "b", "distance_km", "delay_ms", "capacity_gbps")

ALL_FAULT_MODELS = (
    FaultSpec("random_satellite", {"rate": 0.05, "duration_steps": 2, "seed": 3}),
    FaultSpec("plane_outage", {"count": 1, "start_step": 1, "seed": 7}),
    FaultSpec("radiation", {"base_rate": 0.05, "seed": 5}),
    FaultSpec("station_outage", {"period_steps": 3, "stagger_steps": 1}),
    FaultSpec("link_degradation", {"factor": 0.5, "fraction": 0.2, "seed": 11}),
)


def _walker_shell(start: Epoch, altitude_km: float, total: int, planes: int):
    walker = WalkerDelta(
        altitude_km=altitude_km,
        inclination_deg=65.0,
        total_satellites=total,
        planes=planes,
        phasing=1,
    )
    elements = walker.satellite_elements()
    per_plane = walker.satellites_per_plane
    return ConstellationTopology(
        planes=[elements[i * per_plane : (i + 1) * per_plane] for i in range(planes)],
        epoch=start,
    )


def _degraded_stations(topology, steps: int) -> FaultSchedule:
    """A hand-built schedule: the fault models never degrade a station."""
    rng = np.random.default_rng(17)
    names = tuple(station.name for station in STATIONS)
    shape = (steps, len(names))
    return FaultSchedule(
        satellite_up=rng.random((steps, topology.satellite_count)) > 0.1,
        satellite_factor=rng.choice([1.0, 0.75, 0.3], (steps, topology.satellite_count)),
        station_names=names,
        station_up=rng.random(shape) > 0.2,
        station_factor=rng.choice([1.0, 0.6, 0.25], shape),
    )


def build_cases() -> dict:
    """Return ``{name: (sequence, station_names, faults)}`` for every case."""
    start = Epoch.from_calendar(2025, 3, 20, 12, 0, 0.0)
    epochs = epoch_range(start, 3000.0, 600.0)
    single = _walker_shell(start, 560.0, 120, 8)
    shells = [_walker_shell(start, 550.0, 60, 5), _walker_shell(start, 1100.0, 40, 4)]
    nearest = MultiShellTopology(shells=shells)
    k_nearest = MultiShellTopology(shells=shells, inter_shell_links="k-nearest", inter_shell_k=2)
    single_seq = single.snapshot_sequence(epochs, STATIONS)
    nearest_seq = nearest.snapshot_sequence(epochs, STATIONS)
    names = tuple(station.name for station in STATIONS)
    every_model = compile_faults(ALL_FAULT_MODELS, FaultContext(nearest, epochs, names))
    subset_faults = compile_faults(ALL_FAULT_MODELS, FaultContext(single, epochs, SUBSET))
    return {
        "single-shell": (single_seq, None, None),
        "two-shell-nearest": (nearest_seq, None, None),
        "two-shell-k-nearest": (k_nearest.snapshot_sequence(epochs, STATIONS), None, None),
        "two-shell-all-fault-models": (nearest_seq, None, every_model),
        "single-shell-degraded-stations": (
            single_seq,
            None,
            _degraded_stations(single, len(epochs)),
        ),
        "station-subset": (single_seq, SUBSET, None),
        "station-subset-faults": (single_seq, SUBSET, subset_faults),
    }


def _digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def snapshot_digests(sequence, station_names, faults) -> list[dict]:
    """Return one record of edge-list and graph digests per step."""
    records = []
    graphs = sequence.graphs(copy=True, station_names=station_names, faults=faults)
    for step, graph in enumerate(graphs):
        edges = sequence.edge_list(step, station_names, faults=faults)
        record = {"labels": _digest(repr(edges.labels))}
        for name in EDGE_LIST_FIELDS:
            array = getattr(edges, name)
            record[name] = _digest(f"{array.dtype.str}{array.shape}".encode() + array.tobytes())
        record["links"] = int(edges.a.size)
        record["graph_nodes"] = _digest(repr(list(graph.nodes(data=True))))
        record["graph_edges"] = _digest(repr(list(graph.edges(data=True))))
        records.append(record)
    return records


def record_all() -> dict:
    return {name: snapshot_digests(*case) for name, case in build_cases().items()}


@pytest.fixture(scope="module")
def cases() -> dict:
    return build_cases()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_record_covers_every_case(cases, golden):
    assert set(golden) == set(cases)


@pytest.mark.parametrize(
    "name",
    [
        "single-shell",
        "two-shell-nearest",
        "two-shell-k-nearest",
        "two-shell-all-fault-models",
        "single-shell-degraded-stations",
        "station-subset",
        "station-subset-faults",
    ],
)
def test_snapshot_links_match_golden_record(cases, golden, name):
    fresh = snapshot_digests(*cases[name])
    assert len(fresh) == len(golden[name])
    for step, (got, want) in enumerate(zip(fresh, golden[name])):
        assert got == want, f"{name}: step {step} differs"


def test_cases_exercise_their_features(cases):
    """Guard against cases that silently stopped covering what they name."""
    sequence, _, faults = cases["two-shell-all-fault-models"]
    healthy = sequence.edge_lists()
    faulted = sequence.edge_lists(faults=faults)
    assert any(f.a.size < h.a.size for f, h in zip(faulted, healthy))
    assert any(np.any(f.capacity_gbps < 20.0) for f in faulted)
    assert not faults.station_up.all()
    sequence, subset, faults = cases["single-shell-degraded-stations"]
    ground = [
        edges.capacity_gbps[edges.b >= len(edges.labels) - len(STATIONS)]
        for edges in sequence.edge_lists(subset, faults)
    ]
    assert any(np.any(caps == 20.0 * 0.25) for caps in ground)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(record_all(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
