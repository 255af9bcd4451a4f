"""Time-stepped network simulation and scenario sweeps.

The simulator runs one pipeline per scenario and time step:

1. **snapshot** -- per-step edge lists stream from a cached
   :class:`~repro.network.topology.SnapshotSequence` (one batched
   ``(T, N, 3)`` propagation plus one vectorised feasibility pass for the
   whole run); each snapshot group (station subset plus fault schedule)
   gets one :class:`~repro.network.backends.SnapshotEdgeList` per step,
   from which the step kernel builds the group's station rows, the edge
   list's link lookup and one shared *base*
   :class:`~repro.network.backends.GatewayRouteTables` over all of the
   group's stations on the unsteered weights, whoever is in the group;
2. **flow selection** -- the gravity traffic matrix of the step's UTC hour
   (built afresh at every step: no hour's matrix is memoised) is filtered
   to the group's ground stations and cut to the largest ``flows_per_step``
   flows as a columnar :class:`~repro.network.flows.FlowTable`.  The step kernel
   does this once per (snapshot group, flow budget), on *unscaled* demand,
   as a :class:`~repro.network.flows.FlowPlan`; each scenario multiplies
   the plan's demand by its multiplier -- the same elementwise product
   selection would use, so the bits are identical.  Scaling is monotone
   but may round two adjacent demands to one value, which the name
   tie-break could then reorder: a scenario whose product merges any
   strictly ordered adjacent pair of the selection, or the last selected
   demand with the largest one left out below it, selects its own plan
   on its scaled demand instead (the *tie rule*);
3. **routing** -- route tables indexed by station id
   (:class:`~repro.network.backends.GatewayRouteTables`) run one batched
   multi-source Dijkstra over the snapshot's CSR arrays from the
   satellites the source stations link to (their *gateways*), and all
   paths are walked at once into one ragged array of the edge rows of
   every path's hops (:func:`~repro.network.flows.route_flow_table`).  A
   flow takes its best gateway's tree path only when a uniqueness
   certificate proves a search from its station would return the same
   path; the stations of all other flows are solved exactly, so every
   path and latency equals a station-sourced Dijkstra's bit for bit,
   whichever stations the tables were solved for.  Paths do not depend on
   demand, so every plan is walked once, by the kernel, on the group's
   base route tables and reused by every open-loop scenario of the plan.
   A steered scenario starts from those paths: it re-solves, on the base
   CSR re-weighted by its steered delays, only the sources, and re-walks
   only the flows, that its steering can move -- those whose base path
   crosses a changed link when no weight went down, every reachable one
   otherwise -- and splices the new paths in
   (:func:`~repro.network.flows.reroute_flows`);
4. **capacity allocation** -- the routed paths compile straight into a
   sparse (flow x link) incidence system from the edge rows the walk
   recorded for every hop, numbered in link-code order without sorting
   or searching any hop
   (:func:`~repro.network.alloc_arrays.compile_system_from_rows`) -- once
   per shared plan, each scenario swapping in its scaled demand vector --
   and the scenario's array solver
   (:data:`repro.network.alloc_arrays.ARRAY_SOLVERS`) splits link
   bandwidth in whole-array numpy;
5. **statistics** -- throughput, latency, reachability and the resilience
   and steering quantities are folded into a :class:`StepStatistics`.

Every stage works on numpy arrays: a snapshot is an edge list, a flow is a
row of a columnar table, and an allocation is a pair of rate and
utilisation vectors.

:meth:`NetworkSimulator.run_scenarios` evaluates many :class:`Scenario`
variants (demand multipliers, ground-station subsets, flow budgets,
allocators, fault specs, steering policies, telemetry) over *one* shared
snapshot sequence: scenarios of one snapshot group share each step's base
route tables (steered ones re-solve only what steering moved), and
scenarios that differ only in demand multiplier
share each step's flow plan, so a sweep pays the topology, shortest-path,
selection, path-walk, compile and telemetry-key cost once per group (and
flow budget) instead of once per scenario.  This is the paper's Section 5
evaluation methodology -- many traffic scenarios over one constellation --
as a first-class API.

Fault scenarios (:mod:`repro.network.faults`) compile to per-step outage
masks exactly once per sweep, applied to the shared sequence's edge
tensors; the per-step statistics then carry stranded demand and node
up-fractions, and :class:`SimulationResult` offers availability, latency
stretch and time-to-recover against a healthy baseline run.

The serial loop calls the step kernel (:func:`_evaluate_step`) directly;
with ``max_workers > 1`` each worker process receives its slice of the
scenarios plus the picklable per-step edge lists and runs the very same
loop, so results are bit-identical either way.  :func:`run_grid` composes a
constellation-design axis with the scenario axis into a persisted
cross-product sweep.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from ..demand.traffic_matrix import GravityTrafficModel, TrafficMatrix
from ..obs import (
    NULL_TRACER,
    ProgressTracker,
    RunMetrics,
    Tracer,
    combined_stage_means,
)
from .alloc_arrays import ARRAY_SOLVERS, compile_system_from_rows
from ..orbits.time import Epoch, epoch_range
from .backends import GatewayRouteTables, SnapshotEdgeList, load_csgraph
from .faults import FaultContext, FaultSchedule, FaultSpec, compile_faults, normalise_fault_specs
from .flows import (
    FlowPlan,
    FlowTable,
    RoutedFlowTable,
    _count,
    plan_flows,
    reroute_flows,
    route_flow_table,
    station_rows,
)
from .ground_station import GroundStation
from .steering import SteeringController, SteeringPolicy, get_steering_policy
from .telemetry import KeyBatch, PairTelemetry, get_telemetry
from .topology import ConstellationTopology, MultiShellTopology

__all__ = [
    "Scenario",
    "StepStatistics",
    "SimulationResult",
    "NetworkSimulator",
    "run_grid",
]


@dataclass(frozen=True)
class Scenario:
    """One traffic scenario of a sweep.

    Attributes
    ----------
    name:
        Unique key of the scenario within a sweep.
    demand_multiplier:
        Scales every traffic-matrix entry before flow selection; must be a
        positive, finite real number (a ``bool`` is rejected), stored as a
        ``float``.
    ground_station_names:
        Restrict traffic endpoints (and snapshot attachment) to this subset of
        the simulator's stations, a non-empty sequence of names (a bare
        ``str`` is rejected); ``None`` uses all of them.
    flows_per_step:
        Per-step flow budget; ``None`` uses the simulator's default.
    allocator:
        Capacity-allocation solver name, looked up in
        :data:`repro.network.alloc_arrays.ARRAY_SOLVERS`
        (``"proportional_array"`` or ``"max_min_array"``).
    faults:
        Fault-injection specs applied to this scenario's snapshots, as a
        tuple of :class:`~repro.network.faults.FaultSpec` (also accepted: a
        single spec, a bare model name, a ``(name, params)`` pair, or an
        iterable of those -- normalised here).  ``None`` runs the healthy
        network.  Specs are validated against
        :data:`repro.network.faults.FAULT_MODELS` at construction, so a
        malformed fault scenario fails immediately instead of mid-sweep.
    telemetry:
        Station-pair telemetry model name, looked up in
        :data:`repro.network.telemetry.TELEMETRY` (``"exact"`` or
        ``"sketch"``); enables per-step top-pair summaries on
        :class:`StepStatistics` and mergeable per-run station-pair and link
        :class:`~repro.network.telemetry.PairTelemetry` aggregates on
        :class:`SimulationResult`.  ``None`` collects nothing.
    steering:
        Congestion-steering policy name, looked up in
        :data:`repro.network.steering.STEERING_POLICIES`; adaptive policies
        feed each step's per-link utilisation back into the next step's
        routing weights.  ``None`` defers to the sweep-level default of
        :meth:`NetworkSimulator.run_scenarios`; ``"static"`` pins the
        scenario to open-loop routing (bit-identical to no steering)
        regardless of the sweep default.
    """

    name: str
    demand_multiplier: float = 1.0
    ground_station_names: tuple[str, ...] | None = None
    flows_per_step: int | None = None
    allocator: str = "proportional_array"
    faults: "tuple[FaultSpec, ...] | None" = None
    telemetry: str | None = None
    steering: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        multiplier = self.demand_multiplier
        # ``isfinite`` rejects NaN and inf, which ``x <= 0`` lets through.
        if (
            isinstance(multiplier, bool)
            or not isinstance(multiplier, numbers.Real)
            or not (math.isfinite(multiplier) and multiplier > 0)
        ):
            raise ValueError(
                f"demand_multiplier must be a positive finite number, got {multiplier!r}"
            )
        object.__setattr__(self, "demand_multiplier", float(multiplier))
        object.__setattr__(
            self, "flows_per_step", _count("flows_per_step", self.flows_per_step)
        )
        names = self.ground_station_names
        if names is not None:
            # A bare string would iterate into one-letter station names.
            if isinstance(names, str) or not (names := tuple(names)):
                raise ValueError(
                    "ground_station_names must be a non-empty sequence of station "
                    f"names, got {self.ground_station_names!r}"
                )
            object.__setattr__(self, "ground_station_names", names)
        if self.allocator not in ARRAY_SOLVERS:
            raise ValueError(
                f"allocator must be one of {sorted(ARRAY_SOLVERS)}, "
                f"got {self.allocator!r}"
            )
        if self.telemetry is not None:
            get_telemetry(self.telemetry)  # validate the model name early
        if self.steering is not None:
            get_steering_policy(self.steering)  # validate the policy name early
        object.__setattr__(self, "faults", normalise_fault_specs(self.faults))


@dataclass(frozen=True)
class StepStatistics:
    """Network statistics of one simulation step.

    The resilience fields (``stranded_gbps`` and the up-fractions) default
    to their healthy-network values, so fault-free runs and pre-fault
    consumers are unaffected.
    """

    utc_hour: float
    offered_gbps: float
    delivered_gbps: float
    reachable_fraction: float
    mean_latency_ms: float
    worst_link_utilisation: float
    #: Offered demand [Gbps] that went unserved: flows that could not be
    #: routed at all (disconnected endpoints) plus routed flows whose
    #: allocation came back exactly zero (paths through zero-capacity
    #: links) -- the paper-relevant "stranded demand" under outages.
    stranded_gbps: float = 0.0
    #: Fraction of satellites up at this step (1.0 on the healthy network).
    satellites_up_fraction: float = 1.0
    #: Fraction of this scenario's ground stations up at this step.
    stations_up_fraction: float = 1.0
    #: Largest (source, destination, offered Gbps) station pairs of the step,
    #: from the scenario's telemetry model; empty when telemetry is off.
    top_pairs: tuple[tuple[str, str, float], ...] = ()
    #: Links whose steering engagement flipped when this step's utilisation
    #: feedback was folded in (0 without an adaptive steering policy).
    steering_reroutes: int = 0
    #: Highest EWMA-smoothed link utilisation after this step's update.
    steering_max_utilisation: float = 0.0
    #: Engagement flips suppressed by the steering anti-flap cooldown.
    steering_flaps: int = 0

    @property
    def delivery_ratio(self) -> float:
        """Delivered over offered traffic (1.0 means everything was served)."""
        if self.offered_gbps == 0:
            return 1.0
        return self.delivered_gbps / self.offered_gbps


@dataclass
class SimulationResult:
    """Collected per-step statistics of one simulation run."""

    steps: list[StepStatistics] = field(default_factory=list)
    #: Whole-run station-pair telemetry aggregate (per-step collections
    #: merged in step order -- including across process workers), present
    #: only when the scenario enabled a telemetry model.
    telemetry: PairTelemetry | None = None
    #: Whole-run per-link utilisation aggregate (per-step utilisation summed
    #: across steps -- "sustained heat"), sharing the steering feedback's
    #: signal: a :class:`PairTelemetry` over the snapshot group's node
    #: labels, keyed by link codes, so ``top_pairs`` returns
    #: ``(node_a, node_b, summed utilisation)``.  Present only when the
    #: scenario enabled a telemetry model.
    link_telemetry: PairTelemetry | None = None
    #: Per-stage durations, call counts, counters and memory gauges of this
    #: scenario's run (:mod:`repro.obs`), present only when the sweep ran
    #: with ``instrument=True``.  Shared per-step snapshot work is
    #: amortised equally across the scenarios it serves, so summing a
    #: sweep's per-scenario metrics conserves the total measured time;
    #: worker-process metrics merge into this elementwise, like telemetry.
    metrics: RunMetrics | None = None

    def sustained_hot_links(
        self, count: int = 5
    ) -> tuple[tuple[object, object, float], ...]:
        """Largest ``count`` (node_a, node_b, summed utilisation) links.

        The run-level congestion ranking: per-step utilisation summed over
        every step, so a link at 0.9 for the whole run outranks one that
        spiked to 1.0 once.  Empty without link telemetry.
        """
        if self.link_telemetry is None:
            return ()
        return self.link_telemetry.top_pairs(count)

    def _require_steps(self) -> None:
        if not self.steps:
            raise ValueError("simulation produced no steps")

    def mean_delivery_ratio(self) -> float:
        """Return the average delivery ratio over all steps."""
        self._require_steps()
        return float(np.mean([step.delivery_ratio for step in self.steps]))

    def mean_latency_ms(self) -> float:
        """Return the average of per-step mean latencies (reachable pairs only)."""
        values = [step.mean_latency_ms for step in self.steps if np.isfinite(step.mean_latency_ms)]
        if not values:
            return float("nan")
        return float(np.mean(values))

    def worst_step(self) -> StepStatistics:
        """Return the step with the lowest delivery ratio."""
        self._require_steps()
        return min(self.steps, key=lambda step: step.delivery_ratio)

    # -- resilience metrics ------------------------------------------------------

    def availability(self, threshold: float = 0.99) -> float:
        """Fraction of steps whose delivery ratio meets ``threshold``.

        The service-availability metric of a fault sweep: how much of the
        run the network delivered (at least) the required fraction of the
        offered demand.
        """
        self._require_steps()
        return float(
            np.mean([step.delivery_ratio >= threshold for step in self.steps])
        )

    def mean_stranded_gbps(self) -> float:
        """Average demand per step that could not be routed at all."""
        self._require_steps()
        return float(np.mean([step.stranded_gbps for step in self.steps]))

    def latency_stretch(self, baseline: "SimulationResult") -> float:
        """Mean per-step latency ratio against a healthy baseline run.

        Steps where either run has no reachable pair are skipped; with no
        comparable step at all the stretch is NaN.  Values above 1 mean the
        surviving traffic takes longer detours around the outages.
        """
        if len(baseline.steps) != len(self.steps):
            raise ValueError(
                "baseline must cover the same steps as this result "
                f"({len(baseline.steps)} != {len(self.steps)})"
            )
        ratios = [
            step.mean_latency_ms / reference.mean_latency_ms
            for step, reference in zip(self.steps, baseline.steps)
            if np.isfinite(step.mean_latency_ms)
            and np.isfinite(reference.mean_latency_ms)
            and reference.mean_latency_ms > 0
        ]
        if not ratios:
            return float("nan")
        return float(np.mean(ratios))

    def time_to_recover_steps(
        self, baseline: "SimulationResult", tolerance: float = 0.02
    ) -> int:
        """Longest stretch of steps degraded below the healthy baseline.

        A step counts as degraded when its delivery ratio falls more than
        ``tolerance`` below the baseline's ratio at the same step; the
        longest contiguous degraded run is the worst-case time to recover,
        in steps (0 when the run never degrades).
        """
        if len(baseline.steps) != len(self.steps):
            raise ValueError(
                "baseline must cover the same steps as this result "
                f"({len(baseline.steps)} != {len(self.steps)})"
            )
        worst = current = 0
        for step, reference in zip(self.steps, baseline.steps):
            if reference.delivery_ratio - step.delivery_ratio > tolerance:
                current += 1
                worst = max(worst, current)
            else:
                current = 0
        return worst


@dataclass(frozen=True)
class _ScenarioSpec:
    """One scenario's fully resolved evaluation spec.

    Picklable, so process workers receive exactly what the serial loop
    evaluates.  ``group`` indexes the scenario's snapshot group
    (station subset plus fault schedule): fault masks are compiled by the
    driver and pre-applied to the group's edge lists, so the step kernel
    never runs fault code -- it only carries the per-step up-fractions for
    the statistics.
    """

    scenario: Scenario
    station_names: tuple[str, ...]
    flows_per_step: int
    group: int
    satellites_up: tuple[float, ...] | None = None
    stations_up: tuple[float, ...] | None = None
    #: Resolved *adaptive* steering policy (``None`` means open loop: static
    #: and absent policies are normalised away by the driver).  Shipped as
    #: the instance, so policies registered at run time reach workers too.
    steering: SteeringPolicy | None = None
    #: Whether this is the sweep's first scenario of its (group, flow
    #: budget) plan key.  The kernel credits the plan's ``flow_plans_built``
    #: count and its base walk's routing counters to it, so they count each
    #: plan once, serial or not -- even when process workers each rebuild
    #: it for their chunk.
    leads_plan: bool = True

    @property
    def name(self) -> str:
        return self.scenario.name


class _GroupSnapshot(NamedTuple):
    """One snapshot group's shared per-step state, built by the step kernel.

    The step's :class:`~repro.network.flows.FlowPlan` of each flow budget
    sits beside it (see :func:`_build_plans`), already routed on
    ``route_tables`` and compiled.  Every route table of the step, base or
    steered, is a
    :class:`~repro.network.backends.GatewayRouteTables`: one search from
    the stations' gateway satellites, with the uncertified sources
    re-solved exactly, so its paths are the station-sourced ones.
    """

    edge_list: SnapshotEdgeList
    #: Snapshot row of each of the group's stations, indexed by station id.
    station_rows: np.ndarray
    #: Base (unsteered) route tables over every station of the group,
    #: solved at every step whoever is in the group.  Every plan is walked
    #: on them; steered scenarios start from those paths and re-solve only
    #: the sources of the flows that steering can move.
    route_tables: GatewayRouteTables


#: One scenario's step output: statistics plus station-pair and per-link
#: telemetry (``None`` when telemetry is off).
_StepOutput = tuple[StepStatistics, PairTelemetry | None, PairTelemetry | None]


def _pair_keys(table: FlowTable) -> KeyBatch:
    """The station-pair telemetry keys of a plan's table, consolidated once."""
    return KeyBatch.from_pairs(table.src, table.dst, len(table.station_names))


def _pair_telemetry(scenario: Scenario, plan: FlowPlan) -> PairTelemetry:
    """Collect the step's station-pair offered-demand summary.

    The store sums the plan's (scaled) demand over the plan's prepared
    keys; a plan without them (a tie-rule plan) prepares its own.
    """
    table = plan.table
    keys = plan.pair_keys if plan.pair_keys is not None else _pair_keys(table)
    store = get_telemetry(scenario.telemetry).store()
    store.observe_batch(keys, table.demand)
    return PairTelemetry(labels=table.station_names, store=store)


def _link_telemetry(
    scenario: Scenario, edge_list: SnapshotEdgeList, utilisation: np.ndarray
) -> PairTelemetry:
    """Fold one step's per-link utilisation into telemetry.

    Consumes the same link-index-order utilisation export the steering
    feedback runs on -- one signal, two consumers.  Only loaded links are
    observed, so the store tracks the hot set, and summed-over-steps values
    rank links by *sustained* heat.
    """
    hot = utilisation > 0.0
    store = get_telemetry(scenario.telemetry).store()
    telemetry = PairTelemetry(labels=edge_list.labels, store=store)
    telemetry.observe(edge_list.link_codes[hot], utilisation[hot])
    return telemetry


def _route_plan(plan: FlowPlan, snapshot: _GroupSnapshot) -> FlowPlan:
    """Walk the plan's paths on the group's base route tables."""
    return plan._replace(
        routed=route_flow_table(snapshot.route_tables, snapshot.station_rows, plan.table)
    )


#: The counters of :func:`_count_walk`, registered on every traced scenario.
_ROUTING_COUNTERS = ("route_sources", "route_gateways", "route_fallbacks", "flows_rerouted")


def _count_walk(
    obs: Tracer,
    tables: GatewayRouteTables,
    routed: RoutedFlowTable,
    sources: np.ndarray,
    rerouted: int = 0,
) -> None:
    """Credit one walk on ``tables``, from the stations ``sources``, to ``obs``.

    Counts the walk's distinct source stations (``route_sources``), the
    gateways the tables searched (``route_gateways``), the sources the walk
    solved exactly because a certificate failed (``route_fallbacks``, which
    the walk itself reports in ``routed``) and the flows it walked on
    steered tables (``flows_rerouted``).  Untraced runs count nothing.
    """
    if not obs.enabled:
        return
    obs.counter("route_sources", np.unique(sources).size)
    obs.counter("route_gateways", tables.gateway_rows.size)
    obs.counter("route_fallbacks", routed.exact_sources)
    obs.counter("flows_rerouted", rerouted)


def _reroute_plan(
    plan: FlowPlan, snapshot: _GroupSnapshot, steered: SnapshotEdgeList, obs: Tracer
) -> FlowPlan:
    """Move a base-routed, compiled plan onto steered weights.

    Steering multiplies weights by finite positive factors, so every flow
    stays reachable or unreachable as on the base weights.  When no weight
    went down, a base path that crosses no changed link stays the steered
    shortest path (raising the weights of links off a shortest path cannot
    make another path shorter), so only the flows whose base path crosses
    one are walked again.  When any weight went down, every reachable flow
    is.  Either way the walk runs on tables solved for just those flows'
    sources, and the new paths are spliced in
    (:func:`~repro.network.flows.reroute_flows`).
    """
    base = snapshot.edge_list.delay_ms
    flows = np.flatnonzero(plan.routed.reachable)
    system = plan.system  # None only when no flow is reachable
    if system is not None and not np.any(steered.delay_ms < base):
        flows = flows[system.flows_touching((steered.delay_ms != base)[system.link_rows])]
    if not flows.size:
        return plan
    source_rows = np.full(snapshot.station_rows.size, -1, dtype=np.intp)
    sources = plan.table.src[flows]
    source_rows[sources] = snapshot.station_rows[sources]
    arrays = snapshot.route_tables.arrays.reweighted(steered.delay_ms)
    tables = GatewayRouteTables.solve(arrays, source_rows)
    routed = reroute_flows(plan.routed, tables, snapshot.station_rows, flows)
    _count_walk(obs, tables, routed, sources, int(flows.size))
    return plan._replace(routed=routed, system=None)


def _route_scenario(
    plan: FlowPlan,
    snapshot: _GroupSnapshot,
    steered: SnapshotEdgeList | None,
    obs: Tracer,
) -> FlowPlan:
    """Route one scenario's plan; ``steered`` is ``None`` for open loop.

    The kernel's plans arrive walked on the group's base tables and
    compiled; a tie-rule plan of the scenario's own is walked there and
    compiled here, and its walk is credited to ``obs``.  An open-loop
    scenario keeps the plan as it is; a steered one moves it onto its
    steered weights (:func:`_reroute_plan`).
    """
    if plan.routed is None:
        plan = _compile_plan(_route_plan(plan, snapshot), snapshot)
        _count_walk(obs, snapshot.route_tables, plan.routed, plan.table.src)
    if steered is None:
        return plan
    return _reroute_plan(plan, snapshot, steered, obs)


def _compile_plan(plan: FlowPlan, snapshot: _GroupSnapshot) -> FlowPlan:
    """Compile the plan's reachable paths (no system when none is reachable)."""
    demand, offsets, links = plan.routed.compact()
    if not demand.size:
        return plan
    return plan._replace(
        system=compile_system_from_rows(snapshot.edge_list, demand, offsets, links)
    )


def _evaluate_scenario(
    spec: _ScenarioSpec,
    snapshot: _GroupSnapshot,
    shared: FlowPlan,
    step: int,
    utc_hour: float,
    matrix: TrafficMatrix,
    controller: SteeringController | None,
    obs: Tracer,
) -> _StepOutput:
    """Stages 2-5 for one scenario at one step, as whole-array numpy.

    ``shared`` is the kernel's plan for the scenario's group and flow
    budget, selected on unscaled demand.  The scenario scales it by its
    demand multiplier; if scaling would merge two of its demands
    (:meth:`~repro.network.flows.FlowPlan.scaled`), it selects its own plan
    on the scaled demand instead, with the same builder, and walks and
    compiles it on the group's base route tables in its routing span.
    Routing (:func:`_route_scenario`) otherwise reuses the paths and
    incidence the kernel built on those tables: as they are for an
    open-loop scenario, and re-solved and re-walked, on the
    controller-steered snapshot, only for the flows its steering moved
    (:func:`_reroute_plan`; the base tables and paths never see
    per-scenario feedback state).  Allocation and every reported statistic
    run against the unsteered capacities and delays: steered latencies
    are re-read from the unsteered delay column over the compiled
    incidence.  ``obs`` records the stage spans (the shared
    :data:`~repro.obs.NULL_TRACER` when untraced), the routing span's walks
    (:func:`_count_walk`) in the ``route_sources``, ``route_gateways``,
    ``route_fallbacks`` and ``flows_rerouted`` counters, and the solver's
    own work counters (max-min's ``waterfill_rounds`` /
    ``waterfill_passes``) in the allocation span.
    """
    scenario = spec.scenario
    edge_list = snapshot.edge_list
    steered = None
    if controller is not None:
        with obs.span("steering"):
            steered = controller.steer(edge_list)
    if obs.enabled:
        obs.counter("steps")
    with obs.span("flow_selection"):
        plan = shared.scaled(scenario.demand_multiplier)
        fallback = plan is None
        if fallback:
            plan = plan_flows(
                matrix, spec.station_names, spec.flows_per_step, scenario.demand_multiplier
            )
    table = plan.table
    if obs.enabled:
        obs.counter("flow_plan_fallbacks", float(fallback))
        obs.counter("flow_plans_built", float(fallback))
        obs.counter("flows_selected", table.flow_count)
        obs.gauge("flow_table_bytes", table.nbytes)
        for name in _ROUTING_COUNTERS:
            obs.counter(name, 0.0)
    telemetry = None
    if scenario.telemetry is not None:
        with obs.span("telemetry"):
            telemetry = _pair_telemetry(scenario, plan)
    with obs.span("routing"):
        plan = _route_scenario(plan, snapshot, steered, obs)
    routed = plan.routed
    routed_count = int(np.count_nonzero(routed.reachable))
    if obs.enabled:
        obs.counter("flows_routed", routed_count)
        obs.gauge("flow_table_bytes", routed.nbytes)
    delivered = 0.0
    worst_util = 0.0
    starved = 0.0
    utilisation = None
    with obs.span("allocation"):
        if plan.system is None:
            plan = _compile_plan(plan, snapshot)
        system = plan.system
        if system is not None:
            rates, utilisation = ARRAY_SOLVERS[scenario.allocator](system, obs=obs)
            delivered = float(rates.sum())
            if utilisation.size:
                worst_util = float(utilisation.max())
            starved = float(system.demand[rates == 0.0].sum())
    if obs.enabled and system is not None:
        obs.gauge("incidence_bytes", system.nbytes)
    latencies = routed.latency_ms[routed.reachable]
    steering_stats = None
    link_telemetry = None
    if controller is not None or scenario.telemetry is not None:
        # The utilisation export serves both loop closure and link
        # telemetry; attribute it to whichever consumer is live.
        with obs.span("steering" if controller is not None else "telemetry"):
            link_utilisation = (
                system.link_utilisation_array(utilisation, len(edge_list.a))
                if system is not None
                else np.zeros(len(edge_list.a))
            )
            if controller is not None:
                # Steered routing distances are preferences, not times:
                # re-read true latencies from the unsteered delay column
                # (with no system, no flow is reachable: none to re-read).
                if system is not None:
                    latencies = system.flow_totals(edge_list.delay_ms[system.link_rows])
                controller.observe(edge_list, link_utilisation)
                steering_stats = controller.step_stats()
        if scenario.telemetry is not None:
            with obs.span("telemetry"):
                link_telemetry = _link_telemetry(scenario, edge_list, link_utilisation)
    with obs.span("statistics"):
        offered = float(table.demand.sum())
        routed_demand = float(system.demand.sum()) if system is not None else 0.0
        latencies = np.asarray(latencies, dtype=float)
        stats = StepStatistics(
            utc_hour=utc_hour,
            offered_gbps=offered,
            delivered_gbps=delivered,
            reachable_fraction=(
                routed_count / table.flow_count if table.flow_count else 1.0
            ),
            mean_latency_ms=(
                float(np.mean(latencies)) if latencies.size else float("inf")
            ),
            worst_link_utilisation=worst_util,
            stranded_gbps=max(0.0, offered - routed_demand) + starved,
            satellites_up_fraction=(
                spec.satellites_up[step] if spec.satellites_up else 1.0
            ),
            stations_up_fraction=spec.stations_up[step] if spec.stations_up else 1.0,
            top_pairs=(
                telemetry.top_pairs(get_telemetry(scenario.telemetry).summary_pairs)
                if telemetry is not None
                else ()
            ),
            steering_reroutes=steering_stats[0] if steering_stats else 0,
            steering_max_utilisation=steering_stats[1] if steering_stats else 0.0,
            steering_flaps=steering_stats[2] if steering_stats else 0,
        )
    if obs.enabled:
        if controller is not None:
            obs.gauge("steering_state_bytes", controller.memory_bytes())
        if telemetry is not None:
            obs.gauge("telemetry_bytes", telemetry.store.memory_bytes())
    return stats, telemetry, link_telemetry


#: The stages a flow plan's selection, path walk and compile stand in for.
_PLAN_STAGES = ("flow_selection", "routing", "allocation")


def _build_plans(
    matrix: TrafficMatrix,
    specs: Sequence[_ScenarioSpec],
    snapshots: Mapping[int, _GroupSnapshot],
    tracers: Mapping[str, Tracer],
) -> dict[tuple[int, int], FlowPlan]:
    """One :class:`~repro.network.flows.FlowPlan` per (group, flow budget).

    Each plan is selected on unscaled demand, routed on the group's base
    route tables and compiled, so open-loop scenarios walk and compile
    nothing and steered ones start from its paths.  When any user keeps
    telemetry, the plan also carries its station-pair keys
    (:class:`~repro.network.telemetry.KeyBatch`), consolidated once and
    hashed by the first sketch that observes them, for every user's store;
    they go with the plan when the step returns.  With ``tracers``, each
    user gets an equal share of the plan's selection, routing and compile
    time in the matching stage, without a call count (its own spans count
    the calls), and the key's leading scenario counts the plan in
    ``flow_plans_built`` and its walk in the routing counters
    (:func:`_count_walk`), so each counts once per plan, serial or not --
    even when process workers each rebuild the plan for their chunk.  The
    keys' preparation is shared the same way in ``telemetry``, among the
    users that keep telemetry.
    """
    users: dict[tuple[int, int], list[_ScenarioSpec]] = {}
    for spec in specs:
        users.setdefault((spec.group, spec.flows_per_step), []).append(spec)
    plans: dict[tuple[int, int], FlowPlan] = {}
    for (group, budget), members in users.items():
        snapshot = snapshots[group]
        marks = [time.perf_counter()]
        plan = plan_flows(matrix, members[0].station_names, budget)
        marks.append(time.perf_counter())
        plan = _route_plan(plan, snapshot)
        if members[0].leads_plan:
            leader = tracers.get(members[0].name, NULL_TRACER)
            _count_walk(leader, snapshot.route_tables, plan.routed, plan.table.src)
        marks.append(time.perf_counter())
        plan = _compile_plan(plan, snapshot)
        marks.append(time.perf_counter())
        keepers = [member for member in members if member.scenario.telemetry is not None]
        if keepers:
            plan = plan._replace(pair_keys=_pair_keys(plan.table))
        marks.append(time.perf_counter())
        plans[group, budget] = plan
        if tracers:
            *spent, keys_seconds = np.diff(marks)
            for member in members:
                tracer = tracers[member.name]
                for stage, seconds in zip(_PLAN_STAGES, spent):
                    tracer.fold_seconds(stage, float(seconds) / len(members))
                tracer.counter("flow_plans_built", float(member.leads_plan))
            for member in keepers:
                tracers[member.name].fold_seconds(
                    "telemetry", float(keys_seconds) / len(keepers)
                )
    return plans


def _evaluate_step(
    step: int,
    utc_hour: float,
    matrix: TrafficMatrix,
    edge_lists: Mapping[int, SnapshotEdgeList],
    specs: Sequence[_ScenarioSpec],
    controllers: Mapping[str, SteeringController],
    tracers: Mapping[str, Tracer],
    export_seconds: float = 0.0,
    matrix_seconds: float = 0.0,
) -> list[_StepOutput]:
    """The step kernel: evaluate every scenario of one step.

    ``edge_lists`` maps each snapshot group to its (already fault-masked)
    edge list of this step.  The kernel builds each group's shared state
    once -- station rows, the edge list's link lookup and base
    :class:`~repro.network.backends.GatewayRouteTables` over all of the
    group's stations, whoever is in the group or the worker's chunk -- and
    then one :class:`~repro.network.flows.FlowPlan` per (group, flow
    budget), selected on unscaled demand, routed on the base tables and
    compiled (:func:`_build_plans`).  Then it evaluates the scenarios in
    ``specs`` order; the plans are dropped when the step returns.  Steered
    scenarios re-solve, inside their routing span, only the sources whose
    base paths their steering moved.

    With ``tracers`` (one per scenario, or none at all) the snapshot stage
    -- the caller's edge-list export (``export_seconds``) plus the shared
    builds here, the shared route tables included -- serves every scenario
    at once, so it is amortised equally and per-scenario metrics sum to the
    measured total; each plan's cost is shared the same way among its users.
    The caller's traffic-matrix fetch (``matrix_seconds``), the input of
    every plan's selection, is folded into ``flow_selection`` in equal
    shares.
    """
    begin = time.perf_counter() if tracers else 0.0
    snapshots: dict[int, _GroupSnapshot] = {}
    for group, names in {spec.group: spec.station_names for spec in specs}.items():
        edge_list = edge_lists[group]
        edge_list.link_lookup  # shared group work, timed once in the snapshot span
        rows = station_rows(edge_list.node_index, names)
        snapshots[group] = _GroupSnapshot(
            edge_list=edge_list,
            station_rows=rows,
            route_tables=GatewayRouteTables.solve(edge_list.arrays(), rows),
        )
    if tracers:
        share = (export_seconds + time.perf_counter() - begin) / len(specs)
        for spec in specs:
            tracer = tracers[spec.name]
            tracer.record_seconds("snapshot", share)
            tracer.fold_seconds("flow_selection", matrix_seconds / len(specs))
            tracer.gauge("edge_list_bytes", edge_lists[spec.group].nbytes)
    plans = _build_plans(matrix, specs, snapshots, tracers)
    return [
        _evaluate_scenario(
            spec,
            snapshots[spec.group],
            plans[spec.group, spec.flows_per_step],
            step,
            utc_hour,
            matrix,
            controllers.get(spec.name),
            tracers.get(spec.name, NULL_TRACER),
        )
        for spec in specs
    ]


def _merge_step(
    results: dict[str, SimulationResult],
    specs: Sequence[_ScenarioSpec],
    outputs: list[_StepOutput],
) -> None:
    """Append one step's kernel outputs to the per-scenario results."""
    for spec, (stats, *summaries) in zip(specs, outputs):
        result = results[spec.name]
        result.steps.append(stats)
        for name, summary in zip(("telemetry", "link_telemetry"), summaries):
            aggregate = getattr(result, name)
            if aggregate is None:
                setattr(result, name, summary)
            elif summary is not None:
                aggregate.merge(summary)


def _run_specs(
    specs: Sequence[_ScenarioSpec],
    edge_lists_at: Callable[[int], Mapping[int, SnapshotEdgeList]],
    utc_hours: Sequence[float],
    traffic_model: GravityTrafficModel,
    trace: bool,
    on_step: "Callable[[list[RunMetrics]], None] | None" = None,
) -> dict[str, SimulationResult]:
    """Run ``specs`` over every step: the sweep loop, serial or in a worker.

    ``edge_lists_at(step)`` returns that step's per-group edge lists, and
    ``traffic_model`` builds the step's traffic matrix when the step
    starts; it is released once the next step's matrix replaces it, so at
    most one earlier matrix is alive while a step builds its own.  One
    steering controller per adaptive scenario carries the control loop's
    state across steps; with ``trace`` each scenario gets a tracer whose
    :class:`~repro.obs.RunMetrics` land on its result.  ``on_step`` is
    called after every step with the tracers' metrics (progress reporting).
    """
    controllers = {
        spec.name: spec.steering.controller()
        for spec in specs
        if spec.steering is not None
    }
    tracers = {spec.name: Tracer() for spec in specs} if trace else {}
    results = {spec.name: SimulationResult() for spec in specs}
    for step, utc_hour in enumerate(utc_hours):
        begin = time.perf_counter() if trace else 0.0
        matrix = traffic_model.matrix_at(utc_hour)
        fetched = time.perf_counter() if trace else 0.0
        edge_lists = edge_lists_at(step)
        outputs = _evaluate_step(
            step,
            utc_hour,
            matrix,
            edge_lists,
            specs,
            controllers,
            tracers,
            export_seconds=time.perf_counter() - fetched if trace else 0.0,
            matrix_seconds=fetched - begin,
        )
        _merge_step(results, specs, outputs)
        if on_step is not None:
            on_step([tracer.metrics for tracer in tracers.values()])
    for name, tracer in tracers.items():
        results[name].metrics = tracer.metrics
    return results


def _sweep_process_worker(
    specs: list[_ScenarioSpec],
    edge_lists: dict[int, list[SnapshotEdgeList]],
    utc_hours: list[float],
    traffic_model: GravityTrafficModel,
    trace: bool,
) -> dict[str, SimulationResult]:
    """Run a slice of a sweep's scenarios over shipped per-group edge lists.

    Module-level so it pickles under every multiprocessing start method.
    ``edge_lists`` holds every step's edge list of each group the slice
    uses; the worker runs the same loop and step kernel as the serial path,
    so its results are bit-identical.  Tracers are built here
    (they hold a lock and are never shipped); their plain
    :class:`~repro.obs.RunMetrics` travel back on the results.
    """
    return _run_specs(
        specs,
        lambda step: {group: lists[step] for group, lists in edge_lists.items()},
        utc_hours,
        traffic_model,
        trace,
    )


def _check_sweep_arguments(
    duration_hours: float, step_hours: float, max_workers: int | None
) -> None:
    """Reject bad sweep-level arguments, naming the offending parameter."""
    for name, value in (("duration_hours", duration_hours), ("step_hours", step_hours)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    _count("max_workers", max_workers)


def _progress_tracker(progress, cells: int) -> "ProgressTracker | None":
    """The tracker a sweep's ``progress`` argument asks for.

    ``None`` observes nothing, a :class:`~repro.obs.ProgressTracker` is used
    as it is (its owner sized it, e.g. over a whole grid), and any other
    callable receives the events of a new tracker over ``cells``
    scenario-step evaluations.
    """
    if progress is None or isinstance(progress, ProgressTracker):
        return progress
    return ProgressTracker(total=cells, callback=progress)


def _check_pipeline_keywords(backend: str, flow_engine: str) -> None:
    """Validate the compatibility keywords that no longer select anything."""
    if backend != "csgraph":
        raise ValueError(f"backend must be 'csgraph', got {backend!r}")
    if flow_engine != "columnar":
        raise ValueError(f"flow_engine must be 'columnar', got {flow_engine!r}")


@dataclass
class NetworkSimulator:
    """Time-stepped simulator of a constellation serving gravity traffic.

    Attributes
    ----------
    topology:
        Constellation to simulate (a single shell or a
        :class:`~repro.network.topology.MultiShellTopology`).
    ground_stations:
        Traffic endpoints (must correspond to cities of the traffic model).
    traffic_model:
        Gravity traffic generator; its city list is filtered to the ground
        stations present.
    flows_per_step:
        The simulator routes only the largest ``flows_per_step`` flows of each
        traffic matrix to keep step cost bounded (scenarios may override).
    """

    topology: ConstellationTopology | MultiShellTopology
    ground_stations: list[GroundStation]
    traffic_model: GravityTrafficModel = field(default_factory=GravityTrafficModel)
    flows_per_step: int = 50

    def __post_init__(self) -> None:
        self.flows_per_step = _count("flows_per_step", self.flows_per_step)
        # Load the routing engine with the simulator, not inside the first
        # timed routing call.
        load_csgraph()

    # -- public entry points -----------------------------------------------------

    def run(
        self,
        start: Epoch,
        duration_hours: float,
        step_hours: float = 1.0,
        allocator: str = "proportional_array",
        steering: str | None = None,
        instrument: bool = False,
    ) -> SimulationResult:
        """Run a single default scenario and return per-step statistics.

        Equivalent to a one-element :meth:`run_scenarios` sweep; kept as the
        simple entry point.  ``instrument=True`` attaches per-stage
        :class:`~repro.obs.RunMetrics` to the result (see
        :mod:`repro.obs`); the default leaves the pipeline untraced.
        """
        scenario = Scenario(name="run", allocator=allocator)
        return self.run_scenarios(
            [scenario],
            start,
            duration_hours,
            step_hours,
            steering=steering,
            instrument=instrument,
        )["run"]

    def run_scenarios(
        self,
        scenarios: list[Scenario],
        start: Epoch,
        duration_hours: float,
        step_hours: float = 1.0,
        max_workers: int | None = None,
        backend: str = "csgraph",
        flow_engine: str = "columnar",
        steering: str | None = None,
        instrument: bool = False,
        progress=None,
    ) -> dict[str, SimulationResult]:
        """Run every scenario over one shared snapshot sequence.

        All scenarios see the same constellation kinematics: one batched
        propagation and one vectorised link-feasibility pass cover the whole
        sweep, and scenarios whose ground-station subsets *and* fault specs
        coincide form one snapshot group sharing each step's edge list.
        Shortest paths depend only on the snapshot, so one batched search
        per group and step, from the satellites the group's stations link
        to (their gateways), serves every scenario of the group, whatever
        their demand multipliers, flow budgets or allocators.  Adaptively
        steered scenarios start from it too: each re-solves only the
        sources, and re-walks only the flows, that its steering moved --
        those whose base path crosses a link it made more expensive, or
        every reachable flow once it lowered a weight.  Selection, the path
        walk and the incidence compile do not depend on the demand
        multiplier either: per step, scenarios of one group and flow budget
        share one flow plan selected on unscaled demand (and, on shared
        route tables, walked and compiled once), and each scales its
        demand.  A scenario whose multiplier would round two distinct
        demands of the plan's selection -- or the last selected one and the
        largest one left out -- to one value selects its own plan instead,
        so results never depend on the sharing.
        Fault specs (:attr:`Scenario.faults`) compile once per distinct
        spec tuple into vectorised outage masks.  Results are keyed by
        scenario name, in input order, and are identical to running each
        scenario through an equivalently configured independent simulator.

        ``backend`` and ``flow_engine`` select nothing: the simulator always
        routes with csgraph and runs the columnar flow stages.  They are
        accepted for existing callers and must be ``"csgraph"`` and
        ``"columnar"``.

        ``max_workers`` (a positive integer) optionally fans the scenarios
        out to worker processes: with ``min(max_workers, len(scenarios)) >
        1`` each worker receives its slice of the scenarios plus the
        picklable per-step edge lists and evaluates them on a separate
        core; otherwise the sweep runs serially in this process.  Both run
        the same step kernel, so results are bit-identical.  Starting the
        workers costs tens of milliseconds, so leave ``max_workers`` unset
        for small sweeps.

        ``steering`` selects the sweep's default congestion-steering policy
        by registry name (:data:`repro.network.steering.STEERING_POLICIES`;
        per-scenario override via :attr:`Scenario.steering`).  Adaptive
        policies close the control loop: each scenario carries one
        :class:`~repro.network.steering.SteeringController` across the run,
        the allocation stage exports per-link utilisation, and the next
        step routes on feedback-steered weights.  Reported latencies are
        always true (unsteered) path delays, and ``"static"`` / ``None``
        bypass the controller machinery entirely.

        ``instrument=True`` traces the sweep with :mod:`repro.obs`: every
        result carries a :attr:`SimulationResult.metrics` with per-stage
        durations, call counts, deterministic flow counters and working-set
        gauges.  Four counters describe the route walks credited to a
        scenario -- each flow plan's walk on its group's base tables to the
        plan's leading scenario, a scenario's own tie-rule plan and steered
        re-walks to itself: ``route_sources`` counts the distinct station
        sources walked, ``route_gateways`` the gateway satellites the
        walked tables searched
        (:class:`~repro.network.backends.GatewayRouteTables`),
        ``route_fallbacks`` the sources solved exactly from the station
        because a path's uniqueness certificate failed (never more than
        ``route_sources``; the walk reports it, so counting costs nothing),
        and ``flows_rerouted`` the flows walked on steered tables.  They are
        the same in serial and worker-process sweeps.  Max-min scenarios
        also count ``waterfill_rounds`` (progressive-filling rounds) and
        ``waterfill_passes`` (the solver passes that ran them: a pass
        replays a whole run of demand-only rounds).  Spans only ever read
        the monotonic clock around stages -- they never touch pipeline
        values -- so instrumented statistics are bit-identical to untraced
        runs, and the default (off) path keeps the shared
        :data:`~repro.obs.NULL_TRACER` whose spans are free.

        ``progress`` optionally observes sweep completion: pass a callable
        receiving :class:`~repro.obs.ProgressEvent` (e.g.
        :class:`~repro.obs.StderrProgress` for a rate-limited stderr line)
        or a preconfigured :class:`~repro.obs.ProgressTracker` (as
        :func:`run_grid` does, to aggregate one ETA across many sweeps).
        Progress is counted in *cells* -- one scenario-step evaluation --
        with EWMA-smoothed throughput and ETA.
        """
        _check_sweep_arguments(duration_hours, step_hours, max_workers)
        _check_pipeline_keywords(backend, flow_engine)
        if steering is not None:
            get_steering_policy(steering)  # validate the sweep default early
        scenarios = list(scenarios)
        if not scenarios:
            raise ValueError("at least one scenario is required")
        names = [scenario.name for scenario in scenarios]
        if len(set(names)) != len(names):
            raise ValueError("scenario names must be unique")

        station_subsets = {
            scenario.name: self._station_subset(scenario) for scenario in scenarios
        }
        union_names = set().union(*station_subsets.values())
        union_stations = [
            station for station in self.ground_stations if station.name in union_names
        ]
        epochs = epoch_range(start, duration_hours * 3600.0, step_hours * 3600.0)
        sequence = self.topology.snapshot_sequence(epochs, union_stations)
        utc_hours = [
            (start.fraction_of_day() * 24.0 + index * step_hours) % 24.0
            for index in range(len(epochs))
        ]

        # Fault schedules are compiled exactly once per snapshot group
        # (station subset, spec tuple) -- by the driver, never by a worker --
        # so serial and worker runs apply bit-identical masks.  Compiling
        # against the scenario's *own* subset (not the sweep union) keeps
        # every result identical to an independent simulator's: adding an
        # unrelated scenario to a sweep can never shift another scenario's
        # station-outage windows or random draws.  The expensive derived
        # caches (position stack, group keys) are shared across subsets.
        base_context = FaultContext(self.topology, epochs)
        fault_contexts: dict[tuple[str, ...], FaultContext] = {}
        group_of: dict[tuple, int] = {}
        group_stations: list[tuple[str, ...]] = []
        schedules: list[FaultSchedule | None] = []
        plan_keys: set[tuple[int, int]] = set()
        specs = []
        for scenario in scenarios:
            subset = station_subsets[scenario.name]
            key = (subset, scenario.faults)
            if key not in group_of:
                schedule = None
                if scenario.faults is not None:
                    if subset not in fault_contexts:
                        fault_contexts[subset] = base_context.with_stations(subset)
                    schedule = compile_faults(scenario.faults, fault_contexts[subset])
                group_of[key] = len(schedules)
                group_stations.append(subset)
                schedules.append(schedule)
            schedule = schedules[group_of[key]]
            policy_name = scenario.steering if scenario.steering is not None else steering
            policy = get_steering_policy(policy_name) if policy_name is not None else None
            budget = (
                scenario.flows_per_step
                if scenario.flows_per_step is not None
                else self.flows_per_step
            )
            plan_key = (group_of[key], budget)
            specs.append(
                _ScenarioSpec(
                    scenario=scenario,
                    station_names=subset,
                    flows_per_step=budget,
                    group=group_of[key],
                    satellites_up=(
                        tuple(
                            schedule.satellites_up_fraction(step)
                            for step in range(len(epochs))
                        )
                        if schedule is not None
                        else None
                    ),
                    stations_up=(
                        tuple(
                            schedule.stations_up_fraction(step, subset)
                            for step in range(len(epochs))
                        )
                        if schedule is not None
                        else None
                    ),
                    # Non-adaptive policies ("static", the open-loop
                    # identity) normalise to None: no controller at all.
                    steering=policy if policy is not None and policy.adaptive else None,
                    leads_plan=plan_key not in plan_keys,
                )
            )
            plan_keys.add(plan_key)

        # Observation plumbing: tracers exist only when asked for (progress
        # needs per-stage means, so it implies tracing too); otherwise every
        # stage sees the shared NULL_TRACER and pays nothing.
        tracker = _progress_tracker(progress, len(scenarios) * len(epochs))
        trace = bool(instrument) or tracker is not None

        if max_workers is not None and min(max_workers, len(specs)) > 1:
            payloads = {
                group: sequence.edge_lists(subset, faults=schedules[group])
                for group, subset in enumerate(group_stations)
            }
            results = self._run_processes(
                specs, payloads, utc_hours, max_workers, trace, tracker
            )
        else:
            def edge_lists_at(step: int) -> dict[int, SnapshotEdgeList]:
                return {
                    group: sequence.edge_list(step, subset, faults=schedules[group])
                    for group, subset in enumerate(group_stations)
                }

            def on_step(metrics: list[RunMetrics]) -> None:
                tracker.advance(len(specs), stage_means=combined_stage_means(metrics))

            results = _run_specs(
                specs,
                edge_lists_at,
                utc_hours,
                self.traffic_model,
                trace,
                on_step=on_step if tracker is not None else None,
            )
        if not instrument:
            for result in results.values():
                result.metrics = None
        return {name: results[name] for name in names}

    def _run_processes(
        self,
        specs: list[_ScenarioSpec],
        payloads: dict[int, list[SnapshotEdgeList]],
        utc_hours: list[float],
        max_workers: int,
        trace: bool,
        tracker: "ProgressTracker | None",
    ) -> dict[str, SimulationResult]:
        """Fan a sweep out to worker processes over picklable edge lists.

        Fault masks are applied to the edge lists *before* shipping, so a
        worker evaluating a faulted scenario receives the identical degraded
        arrays the serial path routes on.  Progress is necessarily coarser
        than the in-process path -- a worker reports only when its whole
        chunk completes -- but the cell totals and stage means still add up.
        A worker that raises (or dies) surfaces as a :class:`RuntimeError`
        naming the scenarios of its chunk, chained to the original error.
        """
        chunks = [chunk for chunk in (specs[i::max_workers] for i in range(max_workers)) if chunk]
        results: dict[str, SimulationResult] = {}
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            futures = {
                pool.submit(
                    _sweep_process_worker,
                    chunk,
                    {group: payloads[group] for group in {spec.group for spec in chunk}},
                    utc_hours,
                    self.traffic_model,
                    trace,
                ): chunk
                for chunk in chunks
            }
            # Advance as chunks land: each completed future accounts for its
            # chunk's scenarios over every step of the sweep.
            for future in as_completed(futures):
                chunk = futures[future]
                try:
                    results.update(future.result())
                except Exception as error:
                    names = [spec.name for spec in chunk]
                    raise RuntimeError(
                        f"sweep worker failed on scenarios {names}: {error!r}"
                    ) from error
                if tracker is not None:
                    tracker.advance(
                        len(chunk) * len(utc_hours),
                        stage_means=combined_stage_means(
                            [result.metrics for result in results.values()]
                        ),
                    )
        return results

    def _station_subset(self, scenario: Scenario) -> tuple[str, ...]:
        """Resolve a scenario's effective station names, in simulator order."""
        available = [station.name for station in self.ground_stations]
        if scenario.ground_station_names is None:
            return tuple(available)
        wanted = set(scenario.ground_station_names)
        unknown = wanted - set(available)
        if unknown:
            raise ValueError(
                f"scenario {scenario.name!r} references unknown stations: "
                f"{sorted(unknown)}"
            )
        return tuple(name for name in available if name in wanted)


def run_grid(
    designs: "Mapping[str, ConstellationTopology | MultiShellTopology]",
    scenarios: list[Scenario],
    ground_stations: list[GroundStation],
    start: Epoch,
    duration_hours: float,
    *,
    traffic_model: GravityTrafficModel | None = None,
    step_hours: float = 1.0,
    flows_per_step: int = 50,
    max_workers: int | None = None,
    steering: str | None = None,
    instrument: bool = False,
    progress=None,
    output_path: "str | Path | None" = None,
) -> dict[tuple[str, str], SimulationResult]:
    """Cross-product sweep: every constellation design times every scenario.

    Composes the design-layer axis (named topologies -- e.g. the outcome of
    a bandwidth-multiplier sweep over
    :class:`repro.core.designer.ConstellationDesigner`) with the
    traffic-scenario axis: each design runs one shared-sequence
    :meth:`NetworkSimulator.run_scenarios` sweep over *all* scenarios, and
    the result is keyed by ``(design_name, scenario_name)``.

    With ``output_path`` the grid is persisted as a JSON document for the
    analysis layer: one record per cell carrying the summary metrics
    (mean/worst delivery ratio, mean latency) plus the full per-step
    statistics, together with the sweep axes and time grid.  The file is
    written atomically: a temporary file in the same directory replaces the
    target only once it is complete, so a failed write never leaves a
    truncated or half-updated grid behind.

    ``max_workers`` / ``steering`` / ``instrument`` are
    forwarded to every per-design sweep, so a large grid can scale over
    processes, close the congestion-steering loop and attach per-stage
    :class:`~repro.obs.RunMetrics` per cell.  ``progress`` observes the
    *whole grid* through one shared :class:`~repro.obs.ProgressTracker`
    (total cells = designs x scenarios x steps), so the reported ETA spans
    every remaining design, not just the sweep in flight.
    """
    if not designs:
        raise ValueError("at least one design is required")
    _check_sweep_arguments(duration_hours, step_hours, max_workers)
    steps = len(epoch_range(start, duration_hours * 3600.0, step_hours * 3600.0))
    tracker = _progress_tracker(progress, len(designs) * len(scenarios) * steps)
    cells: dict[tuple[str, str], SimulationResult] = {}
    for design_name, topology in designs.items():
        simulator = NetworkSimulator(
            topology=topology,
            ground_stations=list(ground_stations),
            traffic_model=traffic_model
            if traffic_model is not None
            else GravityTrafficModel(),
            flows_per_step=flows_per_step,
        )
        sweep = simulator.run_scenarios(
            scenarios,
            start,
            duration_hours,
            step_hours,
            max_workers=max_workers,
            steering=steering,
            instrument=instrument,
            progress=tracker,
        )
        for scenario_name, result in sweep.items():
            cells[(design_name, scenario_name)] = result
    if output_path is not None:
        def _finite(value: float) -> "float | None":
            # Unreachable steps carry inf/nan latencies; RFC 8259 has no
            # such tokens, so persist them as null to keep the file loadable
            # by any JSON consumer.
            return value if np.isfinite(value) else None

        def _step_record(step: StepStatistics) -> dict:
            record = asdict(step)
            record["mean_latency_ms"] = _finite(step.mean_latency_ms)
            return record

        document = {
            "start_jd": start.jd,
            "duration_hours": duration_hours,
            "step_hours": step_hours,
            "designs": list(designs),
            "scenarios": [scenario.name for scenario in scenarios],
            "cells": [
                {
                    "design": design_name,
                    "scenario": scenario_name,
                    "mean_delivery_ratio": result.mean_delivery_ratio(),
                    "worst_delivery_ratio": result.worst_step().delivery_ratio,
                    "mean_latency_ms": _finite(result.mean_latency_ms()),
                    "steps": [_step_record(step) for step in result.steps],
                }
                for (design_name, scenario_name), result in cells.items()
            ],
        }
        _write_atomic(Path(output_path), document)
    return cells


def _write_atomic(path: Path, document: dict) -> None:
    """Serialise ``document`` to ``path`` via a same-directory temp file.

    ``os.replace`` is atomic on POSIX and Windows, so readers see either the
    previous file or the complete new one -- never a partial write; a
    failure (including in serialisation) removes the temporary file.
    """
    handle, temporary = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w") as stream:
            json.dump(document, stream, indent=2, allow_nan=False)
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise
