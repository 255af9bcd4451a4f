"""Constellation network topologies and cached snapshot sequences.

This module is the topology stage of the layered scenario-sweep engine.  It
is organised in three tiers:

* **Static structure** -- a topology (a single-shell
  :class:`ConstellationTopology` or a sharded :class:`MultiShellTopology`)
  describes which link candidates can ever exist: intra-plane neighbour pairs
  (fixed by slot order, so they never change), nearest-neighbour scans toward
  adjacent planes (and adjacent shells), and the ground stations that may
  attach.  The structure is computed once per topology, not per time step.

* **Vectorised kinematics** -- :class:`SnapshotSequence` takes a topology and
  an epoch sequence, obtains the batched ``(T, N, 3)`` Earth-fixed position
  array from the topology's :class:`~repro.orbits.propagation.BatchPropagator`
  shards, and evaluates distances, ISL feasibility masks and
  nearest-neighbour selections for *all candidate pairs of all steps* in
  numpy array operations -- no per-edge Python feasibility calls.  Ground
  visibility is kept sparse: a station sees a few satellites of many, so
  only the visible (step, station, satellite) triples are stored, with
  their slant ranges, and the exact elevation test runs only on satellites
  above a station's horizon plane.

* **One link producer** -- :meth:`SnapshotSequence.edge_list` is the only
  place that turns the precomputed arrays into links.  It applies the
  feasibility masks and, optionally, a compiled
  :class:`~repro.network.faults.FaultSchedule` in one vectorised pass -- a
  link exists while it is feasible and both endpoints are up, and carries
  its capacity scaled by the worse endpoint's degradation factor -- so fault
  scenarios reuse the same precomputed kinematics as healthy ones.  Its
  :class:`~repro.network.backends.SnapshotEdgeList` is the picklable payload
  the scenario-sweep simulator ships to worker processes, and
  :meth:`SnapshotSequence.edge_arrays` derives the CSR routing view
  (:class:`repro.network.backends.EdgeArrays`) from it.

The standard "+Grid" pattern (each satellite linked to its two intra-plane
neighbours and the nearest satellite in each adjacent plane) is provided for
both Walker-delta shells and SS-plane constellations; because an SS-plane
constellation concentrates its planes around demand-heavy local times, its
topology is denser in the demand-carrying region -- one of the Section 5
implications this layer lets users explore.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..orbits.elements import OrbitalElements
from ..orbits.propagation import BatchPropagator
from ..orbits.time import Epoch
from .backends import EdgeArrays, SnapshotEdgeList
from .faults import FaultSchedule
from .ground_station import GroundStation, visibility_mask
from .isl import ISLConfig, isl_feasible_mask, propagation_delay_ms

__all__ = [
    "SatelliteNode",
    "ConstellationTopology",
    "MultiShellTopology",
    "SnapshotSequence",
    "build_plus_grid_topology",
]


@dataclass(frozen=True)
class SatelliteNode:
    """One satellite of the network: its identity and orbital slot."""

    node_id: int
    plane_index: int
    slot_index: int
    elements: OrbitalElements


@dataclass(frozen=True)
class _StaticPairs:
    """Candidate links whose endpoints are fixed (intra-plane neighbours).

    Feasibility and distance still vary with time, but the pair list itself
    is computed once per topology.
    """

    # The pair list is a deterministic function of the topology and config,
    # so it is excluded from equality (ndarray == yields an array anyway).
    pairs: np.ndarray = field(compare=False)  # (E, 2) node ids, rows sorted
    config: ISLConfig


@dataclass(frozen=True)
class _NearestScan:
    """Candidate links found per step: each ``a`` satellite links to its
    ``k`` nearest neighbours among the ``b`` satellites (kept only if
    feasible)."""

    # Index arrays are derived from the topology; keep them out of equality.
    a_indices: np.ndarray = field(compare=False)  # (Na,) node ids
    b_indices: np.ndarray = field(compare=False)  # (Nb,) node ids
    config: ISLConfig
    k: int = 1


def _nearest_scan_arrays(
    positions: np.ndarray,
    scan: _NearestScan,
    max_elements: int = 4_000_000,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate a k-nearest-neighbour scan over a ``(T, N, 3)`` position stack.

    Returns ``(a_ids, b_nearest, distances, feasible)``: ``a_ids`` is the
    ``(len(a_indices) * k,)`` array of scanning node ids (each repeated ``k``
    times, ``k`` clamped to ``len(b_indices)``), the other three are
    ``(T, len(a_indices) * k)`` with each satellite's picks ordered
    nearest-first.  The pairwise distance tensor is evaluated in chunks --
    over steps, and within a step over the ``a`` axis when one step's
    ``|a| * |b|`` block alone exceeds the budget (inter-shell scans of
    10k-satellite shells) -- so memory stays bounded at roughly
    ``max_elements`` floats.
    """
    steps = positions.shape[0]
    count_a = len(scan.a_indices)
    count_b = len(scan.b_indices)
    k = min(scan.k, count_b)
    step_chunk = max(1, max_elements // max(1, count_a * count_b))
    a_chunk = max(1, max_elements // max(1, count_b))
    nearest_local = np.empty((steps, count_a, k), dtype=np.intp)
    distances = np.empty((steps, count_a, k))
    for begin in range(0, steps, step_chunk):
        end = min(steps, begin + step_chunk)
        block_b = positions[begin:end, scan.b_indices, :]
        for a_begin in range(0, count_a, a_chunk):
            a_end = min(count_a, a_begin + a_chunk)
            block_a = positions[begin:end, scan.a_indices[a_begin:a_end], :]
            pairwise = np.linalg.norm(
                block_b[:, None, :, :] - block_a[:, :, None, :], axis=-1
            )
            if k == 1:
                # argmin, not argpartition: exact ties must keep resolving
                # to the lowest candidate index, as they always have.
                local = np.argmin(pairwise, axis=-1)[..., None]
                picked = np.take_along_axis(pairwise, local, axis=-1)
            else:
                local = np.argpartition(pairwise, k - 1, axis=-1)[..., :k]
                # Ascending-index then stable-by-distance: ties inside the
                # selection deterministically prefer the lower index.
                local.sort(axis=-1)
                picked = np.take_along_axis(pairwise, local, axis=-1)
                order = np.argsort(picked, axis=-1, kind="stable")
                local = np.take_along_axis(local, order, axis=-1)
                picked = np.take_along_axis(picked, order, axis=-1)
            nearest_local[begin:end, a_begin:a_end] = local
            distances[begin:end, a_begin:a_end] = picked
    b_nearest = np.asarray(scan.b_indices)[nearest_local]  # (T, A, k)
    positions_a = positions[:, scan.a_indices, None, :]
    flat_b = b_nearest.reshape(steps, count_a * k)
    positions_b = np.take_along_axis(positions, flat_b[..., None], axis=1).reshape(
        steps, count_a, k, 3
    )
    feasible = isl_feasible_mask(positions_a, positions_b, scan.config)
    a_ids = np.repeat(np.asarray(scan.a_indices), k)
    return (
        a_ids,
        flat_b,
        distances.reshape(steps, count_a * k),
        feasible.reshape(steps, count_a * k),
    )


def _ground_visibility(
    stations: Sequence[GroundStation], positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Return the visible (step, station, satellite) triples of a ``(T, N, 3)`` stack.

    The result is a step-indexed CSR ``(offsets, station_rows, satellites,
    slant_km)``: step ``t``'s triples are ``offsets[t]:offsets[t + 1]``, in
    (station, satellite) order.  A satellite below a station's horizon
    plane (``position . zenith < |site|``) cannot clear a non-negative
    elevation mask, so each step's candidates come from one ``(K, N)``
    product with the stations' zenith directions, kept with 1 km of slack
    for rounding; a station with a negative mask takes every satellite as a
    candidate.  :func:`~repro.network.ground_station.visibility_mask` then
    decides each station's candidates of all steps in one call.
    """
    steps, satellite_count = positions.shape[:2]
    sites = np.array([station.position_ecef_km() for station in stations]).reshape(-1, 3)
    radii = np.linalg.norm(sites, axis=1)
    zenith = sites / radii[:, None]
    floor = np.where(
        [station.min_elevation_deg >= 0.0 for station in stations], radii - 1.0, -np.inf
    )
    # Candidates as flat indices into the (T, K, N) triple space, which is
    # never materialised: each step's (K, N) mask is scanned and dropped.
    block = floor.size * satellite_count
    candidates = np.concatenate(
        [
            np.flatnonzero(zenith @ positions[step].T >= floor[:, None]) + step * block
            for step in range(steps)
        ]
    )
    candidate_step, candidates = np.divmod(candidates, block)
    candidate_station, candidate_satellite = np.divmod(candidates, satellite_count)

    # The exact test, one call per station over its candidates of every step.
    visible = np.empty(candidate_step.size, dtype=bool)
    slant_km = np.empty(candidate_step.size)
    by_station = np.argsort(candidate_station, kind="stable")
    bounds = np.searchsorted(candidate_station[by_station], np.arange(len(stations) + 1))
    for row, station in enumerate(stations):
        picks = by_station[bounds[row] : bounds[row + 1]]
        visible[picks], slant_km[picks] = visibility_mask(
            station, positions[candidate_step[picks], candidate_satellite[picks]]
        )
    offsets = np.searchsorted(candidate_step[visible], np.arange(steps + 1))
    return (
        offsets,
        candidate_station[visible],
        candidate_satellite[visible],
        slant_km[visible],
    )


class SnapshotSequence:
    """Precomputed per-step links of a topology, as edge lists.

    One construction evaluates the whole sequence in vectorised numpy: the
    batched ``(T, N, 3)`` propagation, distances and feasibility masks of all
    static candidate pairs, nearest-neighbour selections toward adjacent
    planes/shells, and ground-station visibility for every supplied station.
    Ground visibility is stored sparsely, as a step-indexed CSR of the
    visible (step, station, satellite) triples and their slant ranges, in
    (step, station, satellite) order; no ``(T, K, N)`` array is built.
    :meth:`edge_list` turns one step of these arrays into links, applying
    the masks and any fault schedule; :meth:`edge_arrays` and
    :meth:`edge_lists` are derived from it.

    Several station subsets (e.g. one per scenario group) can be drawn from
    the same sequence; the expensive array work is shared by all of them.
    """

    def __init__(
        self,
        topology: "ConstellationTopology | MultiShellTopology",
        epochs: Sequence[Epoch],
        ground_stations: Sequence[GroundStation] | None = None,
    ):
        self._epochs = list(epochs)
        if not self._epochs:
            raise ValueError("snapshot sequence requires at least one epoch")
        self._topology = topology
        self._stations = list(ground_stations) if ground_stations else []
        names = [station.name for station in self._stations]
        if len(set(names)) != len(names):
            raise ValueError("ground station names must be unique")

        positions = topology.positions_ecef_over(self._epochs)

        # One satellite link table of (a, b, distance, feasible, capacity)
        # blocks: ``a`` is (E,), ``b`` is (E,) for static pairs and (T, E)
        # for per-step scan picks, distance and feasible are (T, E).  All
        # static blocks precede all scan blocks -- this is the edge-list row
        # order, which fixes CSR neighbour order and so shortest-path
        # tie-breaks.
        static: list[tuple] = []
        scans: list[tuple] = []
        for group in topology.edge_groups():
            if isinstance(group, _StaticPairs):
                if len(group.pairs) == 0:
                    continue
                block_a = positions[:, group.pairs[:, 0], :]
                block_b = positions[:, group.pairs[:, 1], :]
                static.append(
                    (
                        group.pairs[:, 0],
                        group.pairs[:, 1],
                        np.linalg.norm(block_a - block_b, axis=-1),
                        isl_feasible_mask(block_a, block_b, group.config),
                        group.config.capacity_gbps,
                    )
                )
            elif isinstance(group, _NearestScan):
                if len(group.a_indices) == 0 or len(group.b_indices) == 0:
                    continue
                scans.append(
                    (*_nearest_scan_arrays(positions, group), group.config.capacity_gbps)
                )
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown edge group {type(group).__name__}")
        self._links = static + scans

        # Ground visibility: a step-indexed CSR of the visible (station,
        # satellite) pairs and their slant ranges.
        (
            self._ground_offsets,
            self._ground_station,
            self._ground_satellite,
            self._ground_slant_km,
        ) = _ground_visibility(self._stations, positions)
        self._station_rows = {
            station.name: row for row, station in enumerate(self._stations)
        }
        self._ground_capacity = topology.isl_config.capacity_gbps

    # -- introspection -----------------------------------------------------------

    @property
    def topology(self) -> "ConstellationTopology | MultiShellTopology":
        """The topology whose links the sequence evaluates."""
        return self._topology

    @property
    def epochs(self) -> list[Epoch]:
        """The epoch of every step, in order."""
        return list(self._epochs)

    @property
    def ground_stations(self) -> list[GroundStation]:
        """The stations whose visibility was precomputed."""
        return list(self._stations)

    def __len__(self) -> int:
        return len(self._epochs)

    # -- link production ---------------------------------------------------------

    def _select_stations(
        self, station_names: Iterable[str] | None
    ) -> list[GroundStation]:
        if station_names is None:
            return self._stations
        wanted = set(station_names)
        unknown = wanted - {station.name for station in self._stations}
        if unknown:
            raise ValueError(
                f"stations not part of this sequence: {sorted(unknown)}"
            )
        return [station for station in self._stations if station.name in wanted]

    def node_labels(self, station_names: Iterable[str] | None = None) -> tuple:
        """Return the node-label table of the array views, in row order.

        Satellites come first (rows equal their node ids), followed by the
        selected ground stations as ``"gs:<name>"`` in sequence order.
        """
        stations = self._select_stations(station_names)
        satellite_count = self._topology.satellite_count
        return tuple(range(satellite_count)) + tuple(
            f"gs:{station.name}" for station in stations
        )

    def edge_list(
        self,
        step: int,
        station_names: Iterable[str] | None = None,
        faults: FaultSchedule | None = None,
    ) -> SnapshotEdgeList:
        """Return one step's links as flat, picklable endpoint/attribute arrays.

        The single link producer of the sequence: :meth:`edge_arrays` is
        derived from it, and this is where the masks apply.  The export is
        assembled purely from slices of the precomputed feasibility/distance
        arrays and the step's visible ground triples -- no per-edge Python
        work.  Rows come in a fixed order (static pairs, then nearest-
        neighbour picks, then ground links station by station with
        satellites ascending), which fixes the CSR neighbour order and so
        shortest-path tie-breaks; each undirected link appears exactly once,
        duplicate nearest-neighbour picks collapsing onto their first row.
        This is the payload shipped to worker processes by the
        scenario-sweep simulator.  With ``faults`` the outage masks of a
        :class:`~repro.network.faults.FaultSchedule` are applied in the same
        vectorised selection: links touching a down node vanish, capacities
        scale by the worse endpoint's factor -- so a pre-masked payload
        reaches the workers and every executor sees the identical degraded
        network.  A schedule must match the sequence's steps and satellites
        and cover the *selected* stations (schedules are compiled per
        scenario station subset, so it may be narrower than the sequence).
        """
        stations = self._select_stations(station_names)
        labels = self.node_labels(station_names)
        satellite_count = self._topology.satellite_count
        rows = [self._station_rows[station.name] for station in stations]
        blocks = [
            (a, b if b.ndim == 1 else b[step], distance[step], feasible[step], capacity)
            for a, b, distance, feasible, capacity in self._links
        ]
        if rows:
            # Ground links: the step's visible triples of the selected
            # stations, station-major (sequence order) with satellites
            # ascending per station.
            begin, end = self._ground_offsets[step], self._ground_offsets[step + 1]
            label_rows = np.full(len(self._stations), -1, dtype=np.intp)
            label_rows[rows] = np.arange(satellite_count, len(labels), dtype=np.intp)
            ground = label_rows[self._ground_station[begin:end]]
            selected = np.flatnonzero(ground >= 0)
            blocks.append(
                (
                    self._ground_satellite[begin:end][selected],
                    ground[selected],
                    self._ground_slant_km[begin:end][selected],
                    np.ones(selected.size, dtype=bool),
                    self._ground_capacity,
                )
            )

        # The fault rule, over the label table: a link exists while it is
        # feasible and both endpoints are up, and carries its block capacity
        # scaled by the worse endpoint's factor.
        up = factor = None
        if faults is not None:
            if faults.steps != len(self):
                raise ValueError(
                    f"fault schedule covers {faults.steps} steps but the sequence "
                    f"has {len(self)}"
                )
            if faults.satellite_count != satellite_count:
                raise ValueError(
                    f"fault schedule covers {faults.satellite_count} satellites but "
                    f"the topology has {satellite_count}"
                )
            # Coverage is checked against the *selected* stations only:
            # schedules are compiled per scenario station subset.
            missing = {station.name for station in stations} - set(
                faults.station_names
            )
            if missing:
                raise ValueError(
                    f"fault schedule does not cover stations {sorted(missing)}"
                )
            columns = [faults.station_column(station.name) for station in stations]
            up = np.concatenate(
                (faults.satellite_up[step], faults.station_up[step, columns])
            )
            factor = np.concatenate(
                (faults.satellite_factor[step], faults.station_factor[step, columns])
            )
        parts = []
        for a, b, distance, feasible, capacity in blocks:
            selected = np.flatnonzero(feasible if up is None else feasible & up[a] & up[b])
            a_sel, b_sel = a[selected], b[selected]
            parts.append(
                (
                    np.minimum(a_sel, b_sel),
                    np.maximum(a_sel, b_sel),
                    distance[selected],
                    np.full(selected.size, capacity)
                    if factor is None
                    else capacity * np.minimum(factor[a_sel], factor[b_sel]),
                )
            )
        if parts:
            a, b, distances, capacities = map(np.concatenate, zip(*parts))
        else:
            a = b = np.empty(0, dtype=np.intp)
            distances = capacities = np.empty(0)
        # Canonical endpoints (a <= b throughout) make duplicates, e.g. two
        # scan directions picking each other, collapse to their first row.
        _, first = np.unique(a * len(labels) + b, return_index=True)
        if first.size != a.size:
            first.sort()
            a, b = a[first], b[first]
            distances, capacities = distances[first], capacities[first]
        return SnapshotEdgeList(
            labels=labels,
            a=a,
            b=b,
            distance_km=distances,
            delay_ms=np.asarray(propagation_delay_ms(distances), dtype=float),
            capacity_gbps=capacities,
        )

    def edge_arrays(
        self,
        step: int,
        station_names: Iterable[str] | None = None,
        faults: FaultSchedule | None = None,
    ) -> EdgeArrays:
        """Return one step's CSR routing view ``(indptr, indices, weights, node_index)``.

        The delay-weighted compressed-sparse-row export every route search
        runs on (:class:`repro.network.backends.RouteTables`): built from the
        precomputed per-step arrays without any per-edge Python iteration,
        and cheap to pickle across process boundaries.  ``faults`` applies
        outage masks exactly as in :meth:`edge_list`.
        """
        return self.edge_list(step, station_names, faults=faults).arrays()

    def edge_lists(
        self,
        station_names: Iterable[str] | None = None,
        faults: FaultSchedule | None = None,
    ) -> list[SnapshotEdgeList]:
        """Return every step's :meth:`edge_list`, in step order."""
        return [
            self.edge_list(step, station_names, faults=faults)
            for step in range(len(self))
        ]


class _SnapshotTopologyMixin:
    """Shared snapshot API of single- and multi-shell topologies.

    Subclasses supply the static structure (:meth:`edge_groups`,
    :meth:`graph_nodes`), batched kinematics (:meth:`positions_ecef_over`)
    and an ``isl_config``/``epoch``; every snapshot comes from the
    :class:`SnapshotSequence` engine.
    """

    def snapshot_sequence(
        self,
        epochs: Sequence[Epoch],
        ground_stations: Sequence[GroundStation] | None = None,
    ) -> SnapshotSequence:
        """Precompute a cached snapshot sequence over ``epochs``."""
        return SnapshotSequence(self, epochs, ground_stations)


@dataclass
class ConstellationTopology(_SnapshotTopologyMixin):
    """A constellation arranged in planes, able to produce link snapshots.

    Treat instances as immutable: the node list and the batch propagator are
    built once in ``__post_init__``, so mutating ``planes``, ``epoch`` or
    ``isl_config`` afterwards is silently ignored -- construct a new topology
    instead.

    Attributes
    ----------
    planes:
        List of planes; each plane is the ordered list of its satellites'
        orbital elements (order defines intra-plane neighbours).
    epoch:
        Reference epoch of the element sets.
    isl_config:
        Link feasibility and capacity parameters.
    """

    planes: list[list[OrbitalElements]]
    epoch: Epoch
    isl_config: ISLConfig = field(default_factory=ISLConfig)

    def __post_init__(self) -> None:
        if not self.planes or any(len(plane) == 0 for plane in self.planes):
            raise ValueError("topology requires at least one non-empty plane")
        self._nodes: list[SatelliteNode] = []
        self._plane_offsets: list[int] = []
        node_id = 0
        for plane_index, plane in enumerate(self.planes):
            self._plane_offsets.append(node_id)
            for slot_index, elements in enumerate(plane):
                self._nodes.append(
                    SatelliteNode(
                        node_id=node_id,
                        plane_index=plane_index,
                        slot_index=slot_index,
                        elements=elements,
                    )
                )
                node_id += 1
        self._batch = BatchPropagator(
            [node.elements for node in self._nodes], self.epoch
        )

    # -- basic accessors ---------------------------------------------------------

    @property
    def nodes(self) -> list[SatelliteNode]:
        """All satellite nodes, ordered by node id."""
        return self._nodes

    @property
    def satellite_count(self) -> int:
        """Total number of satellites."""
        return len(self._nodes)

    @property
    def plane_count(self) -> int:
        """Number of planes."""
        return len(self.planes)

    # -- geometry ----------------------------------------------------------------

    def positions_ecef_km(self, at: Epoch | None = None) -> np.ndarray:
        """Return Earth-fixed positions [km] of all satellites at an epoch."""
        return self._batch.positions_ecef_at(at or self.epoch)

    def positions_ecef_over(self, epochs: Sequence[Epoch]) -> np.ndarray:
        """Return Earth-fixed positions [km] at every epoch, shape (T, N, 3).

        One vectorised propagation covers the whole sequence; this is what
        snapshot-sequence consumers (time-aware routing, the simulator)
        should use instead of calling :meth:`positions_ecef_km` per step.
        """
        return self._batch.positions_ecef_many(list(epochs))

    # -- static link structure ---------------------------------------------------

    def graph_nodes(self) -> Iterator[tuple[int, dict]]:
        """Yield every satellite node id with its ``plane``/``slot``/``kind``."""
        for node in self._nodes:
            yield node.node_id, {
                "plane": node.plane_index,
                "slot": node.slot_index,
                "kind": "satellite",
            }

    def edge_groups(self) -> list[_StaticPairs | _NearestScan]:
        """Return the candidate-link structure of the +Grid pattern.

        Intra-plane rings are static pair lists.  Inter-plane links are
        nearest-neighbour scans in *both* directions between adjacent planes:
        the nearest-neighbour relation is not symmetric, so each satellite
        links to its nearest neighbour in the next plane *and* in the
        previous one (duplicate picks collapse onto one edge).
        """
        groups: list[_StaticPairs | _NearestScan] = []
        intra: list[tuple[int, int]] = []
        for plane_index, plane in enumerate(self.planes):
            offset = self._plane_offsets[plane_index]
            count = len(plane)
            if count < 2:
                continue
            ring = count if count > 2 else 1  # two slots share a single link
            for slot in range(ring):
                a = offset + slot
                b = offset + (slot + 1) % count
                intra.append((a, b) if a <= b else (b, a))
        if intra:
            groups.append(
                _StaticPairs(pairs=np.array(intra, dtype=np.intp), config=self.isl_config)
            )

        directed_pairs: list[tuple[int, int]] = []
        for plane_index in range(self.plane_count):
            for neighbour in (
                (plane_index + 1) % self.plane_count,
                (plane_index - 1) % self.plane_count,
            ):
                if neighbour == plane_index:
                    continue
                if (plane_index, neighbour) not in directed_pairs:
                    directed_pairs.append((plane_index, neighbour))
        for plane_a, plane_b in directed_pairs:
            start_a = self._plane_offsets[plane_a]
            start_b = self._plane_offsets[plane_b]
            groups.append(
                _NearestScan(
                    a_indices=np.arange(
                        start_a, start_a + len(self.planes[plane_a]), dtype=np.intp
                    ),
                    b_indices=np.arange(
                        start_b, start_b + len(self.planes[plane_b]), dtype=np.intp
                    ),
                    config=self.isl_config,
                )
            )
        return groups


@dataclass
class MultiShellTopology(_SnapshotTopologyMixin):
    """Several constellation shells composed into one routed network.

    Very large constellations (10k+ satellites) are partitioned into shells
    -- e.g. by altitude band -- each carrying its own
    :class:`~repro.orbits.propagation.BatchPropagator`, so per-shard position
    arrays stay cache-friendly instead of one huge stacked batch.  Node ids
    are globally unique (shells are offset in order), every shell keeps its
    own +Grid structure and ISL configuration, and adjacent shells are
    stitched by nearest-feasible-neighbour links in both directions (the same
    scan primitive used between planes).

    The composed topology exposes the same snapshot API as a single shell,
    so routing, snapshot sequences and the scenario-sweep simulator work on
    it unchanged.

    Attributes
    ----------
    shells:
        The member topologies, in stitching order (consecutive shells are
        linked); each propagates from its own reference epoch.
    isl_config:
        Link parameters of the inter-shell links and of ground up/down links.
    inter_shell_k:
        Stitching between adjacent shells: each satellite links to its
        ``inter_shell_k`` nearest feasible neighbours in the adjacent shell,
        in both directions.  The default, 1, is one nearest-neighbour link
        per satellite per direction; more gives the inter-shell cut
        redundancy against handoffs.  A positive integer (``bool`` is
        rejected).
    """

    shells: list[ConstellationTopology]
    isl_config: ISLConfig = field(default_factory=ISLConfig)
    inter_shell_k: int = 1

    def __post_init__(self) -> None:
        if not self.shells:
            raise ValueError("multi-shell topology requires at least one shell")
        k = self.inter_shell_k
        if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
            raise ValueError(f"inter_shell_k must be an integer >= 1, got {k!r}")
        self.inter_shell_k = int(k)
        self._shell_offsets: list[int] = []
        offset = 0
        for shell in self.shells:
            self._shell_offsets.append(offset)
            offset += shell.satellite_count
        self._satellite_count = offset

    # -- basic accessors ---------------------------------------------------------

    @property
    def epoch(self) -> Epoch:
        """Reference epoch of the first shell (the default snapshot instant)."""
        return self.shells[0].epoch

    @property
    def shell_count(self) -> int:
        """Number of member shells."""
        return len(self.shells)

    @property
    def satellite_count(self) -> int:
        """Total number of satellites over all shells."""
        return self._satellite_count

    @property
    def nodes(self) -> list[SatelliteNode]:
        """All satellite nodes with globally unique ids, in shell order.

        ``plane_index`` and ``slot_index`` stay shell-local; the owning shell
        is recoverable from the ``shell`` attribute of :meth:`graph_nodes`.
        """
        nodes = []
        for shell_index, shell in enumerate(self.shells):
            offset = self._shell_offsets[shell_index]
            for node in shell.nodes:
                nodes.append(
                    SatelliteNode(
                        node_id=offset + node.node_id,
                        plane_index=node.plane_index,
                        slot_index=node.slot_index,
                        elements=node.elements,
                    )
                )
        return nodes

    # -- geometry ----------------------------------------------------------------

    def positions_ecef_km(self, at: Epoch | None = None) -> np.ndarray:
        """Return Earth-fixed positions [km] of all satellites at an epoch."""
        at = at or self.epoch
        return np.concatenate(
            [shell.positions_ecef_km(at) for shell in self.shells], axis=0
        )

    def positions_ecef_over(self, epochs: Sequence[Epoch]) -> np.ndarray:
        """Return Earth-fixed positions [km] at every epoch, shape (T, N, 3).

        Each shell propagates through its own batch shard; the results are
        concatenated along the satellite axis in shell order.
        """
        epochs = list(epochs)
        return np.concatenate(
            [shell.positions_ecef_over(epochs) for shell in self.shells], axis=1
        )

    # -- static link structure ---------------------------------------------------

    def graph_nodes(self) -> Iterator[tuple[int, dict]]:
        """Yield every satellite node id with its attributes, ``shell`` added."""
        for shell_index, shell in enumerate(self.shells):
            offset = self._shell_offsets[shell_index]
            for node_id, attributes in shell.graph_nodes():
                yield offset + node_id, {**attributes, "shell": shell_index}

    def edge_groups(self) -> list[_StaticPairs | _NearestScan]:
        """Return every shell's +Grid structure plus inter-shell scans."""
        groups: list[_StaticPairs | _NearestScan] = []
        for shell_index, shell in enumerate(self.shells):
            offset = self._shell_offsets[shell_index]
            for group in shell.edge_groups():
                if isinstance(group, _StaticPairs):
                    groups.append(
                        _StaticPairs(pairs=group.pairs + offset, config=group.config)
                    )
                else:
                    groups.append(
                        _NearestScan(
                            a_indices=group.a_indices + offset,
                            b_indices=group.b_indices + offset,
                            config=group.config,
                        )
                    )
        for shell_index in range(self.shell_count - 1):
            lower = np.arange(
                self._shell_offsets[shell_index],
                self._shell_offsets[shell_index] + self.shells[shell_index].satellite_count,
                dtype=np.intp,
            )
            upper = np.arange(
                self._shell_offsets[shell_index + 1],
                self._shell_offsets[shell_index + 1]
                + self.shells[shell_index + 1].satellite_count,
                dtype=np.intp,
            )
            groups.append(
                _NearestScan(
                    a_indices=lower,
                    b_indices=upper,
                    config=self.isl_config,
                    k=self.inter_shell_k,
                )
            )
            groups.append(
                _NearestScan(
                    a_indices=upper,
                    b_indices=lower,
                    config=self.isl_config,
                    k=self.inter_shell_k,
                )
            )
        return groups


def build_plus_grid_topology(
    planes: list[list[OrbitalElements]],
    epoch: Epoch,
    isl_config: ISLConfig | None = None,
) -> ConstellationTopology:
    """Convenience constructor mirroring :class:`ConstellationTopology`."""
    return ConstellationTopology(
        planes=planes, epoch=epoch, isl_config=isl_config or ISLConfig()
    )
