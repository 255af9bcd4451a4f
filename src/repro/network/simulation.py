"""Time-stepped network simulation and scenario sweeps.

The simulator runs one pipeline per scenario and time step:

1. **snapshot** -- per-step edge lists stream from a cached
   :class:`~repro.network.topology.SnapshotSequence` (one batched
   ``(T, N, 3)`` propagation plus one vectorised feasibility pass for the
   whole run); each snapshot group (station subset plus fault schedule)
   gets one :class:`~repro.network.backends.SnapshotEdgeList` per step,
   from which the step kernel builds one shared csgraph router, one shared
   route cache and one shared allocation compile cache;
2. **flow selection** -- the gravity traffic matrix of the step's UTC hour
   (memoised: the diurnal model repeats every 24 h) is filtered to the
   scenario's ground stations, scaled by its demand multiplier and cut to
   the largest ``flows_per_step`` flows as a columnar
   :class:`~repro.network.flows.FlowTable`;
3. **routing** -- every distinct source station is solved in one batched
   multi-source Dijkstra over the snapshot's CSR arrays, and all paths are
   walked at once into ragged row arrays
   (:func:`~repro.network.flows.route_flow_table`);
4. **capacity allocation** -- the routed paths compile straight into a
   sparse (flow x link) incidence system and the scenario's array solver
   (:data:`repro.network.alloc_arrays.ARRAY_SOLVERS`) splits link bandwidth
   in whole-array numpy;
5. **statistics** -- throughput, latency, reachability and the resilience
   and steering quantities are folded into a :class:`StepStatistics`.

The reference implementations -- networkx routing, per-``Flow`` objects and
the dict allocators of :mod:`repro.network.capacity` -- stay available for
analysis and as test oracles, but the simulator never runs them.

:meth:`NetworkSimulator.run_scenarios` evaluates many :class:`Scenario`
variants (demand multipliers, ground-station subsets, flow budgets,
allocators, fault specs, steering policies, telemetry) over *one* shared
snapshot sequence: scenarios of one snapshot group share each step's
routing searches, so a sweep pays the topology and shortest-path cost once
per group instead of once per scenario.  This is the paper's Section 5
evaluation methodology -- many traffic scenarios over one constellation --
as a first-class API.

Fault scenarios (:mod:`repro.network.faults`) compile to per-step outage
masks exactly once per sweep, applied to the shared sequence's edge
tensors; the per-step statistics then carry stranded demand and node
up-fractions, and :class:`SimulationResult` offers availability, latency
stretch and time-to-recover against a healthy baseline run.

Every executor runs the same step kernel (:func:`_evaluate_step`).  The
serial loop calls it directly, ``executor="thread"`` fans its per-scenario
evaluations out to a thread pool, and ``executor="process"`` ships each
worker its slice of the scenarios plus the picklable per-step edge lists,
and the worker runs the very same loop.  Results are bit-identical across
executors.  :func:`run_grid` composes a constellation-design axis with the
scenario axis into a persisted cross-product sweep.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, as_completed
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
from .alloc_arrays import ARRAY_SOLVERS, EdgeListCompileCache, compile_system_from_rows
from ..orbits.time import Epoch, epoch_range
from .backends import BACKENDS, RoutingBackend, SnapshotEdgeList, get_backend
from .faults import FaultContext, FaultSchedule, FaultSpec, compile_faults, normalise_fault_specs
from .flows import route_flow_table, select_flow_table
from .ground_station import GroundStation
from .routing import SnapshotRouter
from .steering import (
    SteeringController,
    SteeringPolicy,
    get_steering_policy,
    link_codes,
    path_delays_from_rows,
)
from .telemetry import LinkTelemetry, PairTelemetry, get_telemetry
from .topology import ConstellationTopology, MultiShellTopology

__all__ = [
    "Scenario",
    "StepStatistics",
    "SimulationResult",
    "NetworkSimulator",
    "run_grid",
]

#: The routing backend of the production pipeline.
_ROUTING_BACKEND = "csgraph"


@dataclass(frozen=True)
class Scenario:
    """One traffic scenario of a sweep.

    Attributes
    ----------
    name:
        Unique key of the scenario within a sweep.
    demand_multiplier:
        Scales every traffic-matrix entry before flow selection; must be
        positive and finite.
    ground_station_names:
        Restrict traffic endpoints (and graph attachment) to this subset of
        the simulator's stations; ``None`` uses all of them.
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
        :data:`repro.network.telemetry.TELEMETRY` (``"exact"``,
        ``"sketch"``, ``"auto"``); enables per-step top-pair summaries on
        :class:`StepStatistics` and mergeable per-run pair and link
        aggregates on :class:`SimulationResult`.  ``None`` collects nothing.
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
        # ``isfinite`` rejects NaN and inf, which ``x <= 0`` lets through.
        if not (math.isfinite(self.demand_multiplier) and self.demand_multiplier > 0):
            raise ValueError(
                "demand_multiplier must be positive and finite, got "
                f"{self.demand_multiplier}"
            )
        if self.flows_per_step is not None and self.flows_per_step <= 0:
            raise ValueError("flows_per_step must be positive")
        if self.ground_station_names is not None:
            object.__setattr__(
                self, "ground_station_names", tuple(self.ground_station_names)
            )
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
    #: signal; present only when the scenario enabled a telemetry model.
    link_telemetry: LinkTelemetry | None = None
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
        return self.link_telemetry.top_links(count)

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


class _SharedRouteCache:
    """One snapshot's cache of single-source routing tables.

    The step kernel builds one per snapshot group per step, so scenarios of
    a group share each source's shortest-path search however many of them
    (or worker threads) consume it, and no table ever outlives its
    snapshot.  The lock makes the check-then-compute atomic under thread
    pools: concurrent scenarios of one group wait for the first computation
    instead of redundantly repeating it.
    """

    def __init__(self):
        self._routes: dict = {}
        self._lock = threading.Lock()

    def routes_from_many(self, router: SnapshotRouter, sources: list) -> dict:
        """Return ``{source: routing table}``, computing the missing sources.

        All sources absent from the cache are solved in one batched
        :meth:`~repro.network.routing.SnapshotRouter.routes_from_many` call,
        so the step pays a single multi-source search per group however the
        consuming scenarios overlap.
        """
        missing = [source for source in sources if source not in self._routes]
        if missing:
            with self._lock:
                missing = [s for s in dict.fromkeys(missing) if s not in self._routes]
                if missing:
                    self._routes.update(router.routes_from_many(missing))
        return {source: self._routes[source] for source in sources}


class _TrafficMatrixCache:
    """Memoise ``matrix_at`` by UTC hour.

    The diurnal model repeats every 24 hours, so a multi-day simulation
    revisits the same hours; each distinct hour's O(cities^2) gravity matrix
    is built once.  Keys are rounded to nanosecond-of-hour precision so
    float-modulo jitter between nominally equal hours still hits the cache.
    """

    def __init__(self, model: GravityTrafficModel):
        self._model = model
        self._matrices: dict[float, TrafficMatrix] = {}

    def matrix_at(self, utc_hour: float) -> TrafficMatrix:
        key = round(utc_hour % 24.0, 9)
        matrix = self._matrices.get(key)
        if matrix is None:
            matrix = self._model.matrix_at(utc_hour)
            self._matrices[key] = matrix
        return matrix


@dataclass(frozen=True)
class _ScenarioSpec:
    """One scenario's fully resolved evaluation spec.

    Picklable, so process workers receive exactly what the in-process
    executors evaluate.  ``group`` indexes the scenario's snapshot group
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

    @property
    def name(self) -> str:
        return self.scenario.name


class _GroupSnapshot(NamedTuple):
    """One snapshot group's shared per-step state, built by the step kernel."""

    edge_list: SnapshotEdgeList
    #: Open-loop router and its route cache (``None`` when every scenario
    #: of the group steers adaptively and routes privately).
    router: SnapshotRouter | None
    route_cache: _SharedRouteCache | None
    #: Per-snapshot constants of the incidence compile, shared by every
    #: scenario of the group.
    compile_cache: EdgeListCompileCache


#: One scenario's step output: statistics plus station-pair and per-link
#: telemetry (``None`` when telemetry is off).
_StepOutput = tuple[StepStatistics, PairTelemetry | None, LinkTelemetry | None]


def _pair_telemetry(scenario: Scenario, table) -> PairTelemetry:
    """Collect the step's station-pair offered-demand summary."""
    model = get_telemetry(scenario.telemetry)
    telemetry = PairTelemetry(
        labels=tuple(table.station_names), store=model.store(table.flow_count)
    )
    telemetry.observe_pairs(table.src, table.dst, table.demand)
    return telemetry


def _link_telemetry(
    scenario: Scenario, edge_list: SnapshotEdgeList, utilisation: np.ndarray
) -> LinkTelemetry:
    """Fold one step's per-link utilisation into telemetry.

    Consumes the same link-index-order utilisation export the steering
    feedback runs on -- one signal, two consumers.  Only loaded links are
    observed, so the store tracks the hot set, and summed-over-steps values
    rank links by *sustained* heat.
    """
    model = get_telemetry(scenario.telemetry)
    hot = utilisation > 0.0
    telemetry = LinkTelemetry(
        labels=edge_list.labels,
        store=model.store(int(np.count_nonzero(hot))),
    )
    telemetry.observe_links(link_codes(edge_list)[hot], utilisation[hot])
    return telemetry


def _evaluate_scenario(
    spec: _ScenarioSpec,
    snapshot: _GroupSnapshot,
    step: int,
    utc_hour: float,
    matrix: TrafficMatrix,
    controller: SteeringController | None,
    obs: Tracer,
) -> _StepOutput:
    """Stages 2-5 for one scenario at one step, as whole-array numpy.

    With an adaptive ``controller`` the step routes on a *private* router
    over the controller-steered snapshot (the group's shared router and
    route cache hold open-loop tables that must not see per-scenario
    feedback state); allocation and every reported statistic still run
    against the unsteered capacities and delays.  ``obs`` records the
    stage spans (the shared :data:`~repro.obs.NULL_TRACER` when untraced).
    """
    scenario = spec.scenario
    edge_list = snapshot.edge_list
    router, route_cache = snapshot.router, snapshot.route_cache
    if controller is not None:
        with obs.span("steering"):
            steered = controller.steer(edge_list)
            router = SnapshotRouter(backend=_ROUTING_BACKEND, arrays=steered.arrays())
        route_cache = None
    if obs.enabled:
        obs.counter("steps")
    with obs.span("flow_selection"):
        table = select_flow_table(
            matrix, spec.station_names, spec.flows_per_step, scenario.demand_multiplier
        )
    if obs.enabled:
        obs.counter("flows_selected", table.flow_count)
        obs.gauge("flow_table_bytes", table.nbytes)
    telemetry = None
    if scenario.telemetry is not None:
        with obs.span("telemetry"):
            telemetry = _pair_telemetry(scenario, table)
    with obs.span("routing"):
        routed = route_flow_table(router, table, route_cache)
    routed_count = int(np.count_nonzero(routed.reachable))
    if obs.enabled:
        obs.counter("flows_routed", routed_count)
        obs.gauge("flow_table_bytes", routed.nbytes)
    demand, offsets, rows = routed.compact()
    delivered = 0.0
    worst_util = 0.0
    starved = 0.0
    system = None
    utilisation = None
    with obs.span("allocation"):
        if demand.size:
            system = compile_system_from_rows(
                snapshot.compile_cache, demand, offsets, rows
            )
            rates, utilisation = ARRAY_SOLVERS[scenario.allocator](system)
            delivered = float(rates.sum())
            if utilisation.size:
                worst_util = float(utilisation.max())
            starved = float(demand[rates == 0.0].sum())
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
                # re-read true latencies from the unsteered delay column.
                latencies = path_delays_from_rows(edge_list, offsets, rows)
                controller.observe(edge_list, link_utilisation)
                steering_stats = controller.step_stats()
        if scenario.telemetry is not None:
            with obs.span("telemetry"):
                link_telemetry = _link_telemetry(scenario, edge_list, link_utilisation)
    with obs.span("statistics"):
        offered = float(table.demand.sum())
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
            stranded_gbps=max(0.0, offered - float(demand.sum())) + starved,
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


def _evaluate_step(
    step: int,
    utc_hour: float,
    matrix: TrafficMatrix,
    edge_lists: Mapping[int, SnapshotEdgeList],
    specs: Sequence[_ScenarioSpec],
    controllers: Mapping[str, SteeringController],
    tracers: Mapping[str, Tracer],
    pool: ThreadPoolExecutor | None = None,
    export_seconds: float = 0.0,
) -> list[_StepOutput]:
    """The step kernel: evaluate every scenario of one step.

    ``edge_lists`` maps each snapshot group to its (already fault-masked)
    edge list of this step.  The kernel builds each group's shared state
    once -- csgraph router and route cache for the open-loop scenarios,
    compile cache for every scenario -- then evaluates the scenarios,
    through ``pool`` when given.  Outputs come back in ``specs`` order.

    With ``tracers`` (one per scenario, or none at all) the snapshot stage
    -- the caller's edge-list export (``export_seconds``) plus the shared
    builds here -- serves every scenario at once, so it is amortised
    equally and per-scenario metrics sum to the measured total.
    """
    begin = time.perf_counter() if tracers else 0.0
    open_loop = {spec.group for spec in specs if spec.steering is None}
    snapshots: dict[int, _GroupSnapshot] = {}
    for group in dict.fromkeys(spec.group for spec in specs):
        edge_list = edge_lists[group]
        shared = group in open_loop
        snapshots[group] = _GroupSnapshot(
            edge_list=edge_list,
            router=(
                SnapshotRouter(backend=_ROUTING_BACKEND, arrays=edge_list.arrays())
                if shared
                else None
            ),
            route_cache=_SharedRouteCache() if shared else None,
            compile_cache=EdgeListCompileCache(edge_list),
        )
    if tracers:
        share = (export_seconds + time.perf_counter() - begin) / len(specs)
        for spec in specs:
            tracer = tracers[spec.name]
            tracer.record_seconds("snapshot", share)
            tracer.gauge("edge_list_bytes", edge_lists[spec.group].nbytes)

    def evaluate(spec: _ScenarioSpec) -> _StepOutput:
        return _evaluate_scenario(
            spec,
            snapshots[spec.group],
            step,
            utc_hour,
            matrix,
            controllers.get(spec.name),
            tracers.get(spec.name, NULL_TRACER),
        )

    if pool is not None:
        return list(pool.map(evaluate, specs))
    return [evaluate(spec) for spec in specs]


def _merge_step(
    results: dict[str, SimulationResult],
    specs: Sequence[_ScenarioSpec],
    outputs: list[_StepOutput],
) -> None:
    """Append one step's kernel outputs to the per-scenario results."""
    for spec, (stats, pair_telemetry, link_telemetry) in zip(specs, outputs):
        result = results[spec.name]
        result.steps.append(stats)
        if pair_telemetry is not None:
            if result.telemetry is None:
                result.telemetry = pair_telemetry
            else:
                result.telemetry.merge(pair_telemetry)
        if link_telemetry is not None:
            if result.link_telemetry is None:
                result.link_telemetry = link_telemetry
            else:
                result.link_telemetry.merge(link_telemetry)


def _run_specs(
    specs: Sequence[_ScenarioSpec],
    edge_lists_at: Callable[[int], Mapping[int, SnapshotEdgeList]],
    utc_hours: Sequence[float],
    traffic_model: GravityTrafficModel,
    trace: bool,
    pool: ThreadPoolExecutor | None = None,
    on_step: "Callable[[list[RunMetrics]], None] | None" = None,
) -> dict[str, SimulationResult]:
    """Run ``specs`` over every step: the sweep loop of every executor.

    ``edge_lists_at(step)`` returns that step's per-group edge lists.  One
    steering controller per adaptive scenario carries the control loop's
    state across steps; with ``trace`` each scenario gets a tracer whose
    :class:`~repro.obs.RunMetrics` land on its result.  ``on_step`` is
    called after every step with the tracers' metrics (progress reporting).
    """
    matrix_cache = _TrafficMatrixCache(traffic_model)
    controllers = {
        spec.name: spec.steering.controller()
        for spec in specs
        if spec.steering is not None
    }
    tracers = {spec.name: Tracer() for spec in specs} if trace else {}
    results = {spec.name: SimulationResult() for spec in specs}
    for step, utc_hour in enumerate(utc_hours):
        matrix = matrix_cache.matrix_at(utc_hour)
        begin = time.perf_counter() if trace else 0.0
        edge_lists = edge_lists_at(step)
        outputs = _evaluate_step(
            step,
            utc_hour,
            matrix,
            edge_lists,
            specs,
            controllers,
            tracers,
            pool=pool,
            export_seconds=time.perf_counter() - begin if trace else 0.0,
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
    uses; the worker runs the same loop and step kernel as the in-process
    executors, so its results are bit-identical.  Tracers are built here
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
    if max_workers is not None and max_workers < 1:
        raise ValueError(f"max_workers must be at least 1, got {max_workers!r}")


def _check_pipeline_keywords(backend: "str | RoutingBackend", flow_engine: str) -> None:
    """Validate the compatibility keywords that no longer select anything."""
    accepted = sorted(name for name, item in BACKENDS.items() if item.uses_arrays)
    try:
        native = get_backend(backend).uses_arrays
    except ValueError:
        native = False
    if not native:
        raise ValueError(
            f"backend must be an array-native routing backend {accepted}, "
            f"got {backend!r}"
        )
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
        backend: "str | RoutingBackend" = _ROUTING_BACKEND,
        executor: str = "thread",
        flow_engine: str = "columnar",
        steering: str | None = None,
        instrument: bool = False,
        progress=None,
    ) -> dict[str, SimulationResult]:
        """Run every scenario over one shared snapshot sequence.

        All scenarios see the same constellation kinematics: one batched
        propagation and one vectorised link-feasibility pass cover the whole
        sweep, and scenarios whose ground-station subsets *and* fault specs
        coincide form one snapshot group sharing each step's edge list and
        routing searches: shortest paths depend only on the snapshot, so
        one batched search per group per step serves every scenario of the
        group, whatever its demand multiplier, flow budget or allocator.
        Fault specs (:attr:`Scenario.faults`) compile once per distinct
        spec tuple into vectorised outage masks.  Results are keyed by
        scenario name, in input order, and are identical to running each
        scenario through an equivalently configured independent simulator.

        ``backend`` and ``flow_engine`` select nothing: the simulator always
        routes with csgraph and runs the columnar flow stages.  They are
        accepted for existing callers and must name an array-native backend
        and ``"columnar"``.

        ``max_workers`` (at least 1) optionally fans the scenario
        evaluations out to a pool.  With ``executor="thread"`` (the default)
        workers share the in-process snapshot stream; with
        ``executor="process"`` each worker process receives its slice of the
        scenarios plus the picklable per-step edge lists and evaluates them
        on a separate core.  Every executor runs the same step kernel, so
        results are bit-identical under all of them.

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
        gauges.  Spans only ever read the monotonic clock around stages --
        they never touch pipeline values -- so instrumented statistics are
        bit-identical to untraced runs, and the default (off) path keeps
        the shared :data:`~repro.obs.NULL_TRACER` whose spans are free.

        ``progress`` optionally observes sweep completion: pass a callable
        receiving :class:`~repro.obs.ProgressEvent` (e.g.
        :class:`~repro.obs.StderrProgress` for a rate-limited stderr line)
        or a preconfigured :class:`~repro.obs.ProgressTracker` (as
        :func:`run_grid` does, to aggregate one ETA across many sweeps).
        Progress is counted in *cells* -- one scenario-step evaluation --
        with EWMA-smoothed throughput and ETA.
        """
        _check_sweep_arguments(duration_hours, step_hours, max_workers)
        if executor not in ("thread", "process"):
            raise ValueError(
                f"executor must be 'thread' or 'process', got {executor!r}"
            )
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
        # so every executor applies bit-identical masks.  Compiling against
        # the scenario's *own* subset (not the sweep union) keeps every
        # result identical to an independent simulator's: adding an
        # unrelated scenario to a sweep can never shift another scenario's
        # station-outage windows or random draws.  The expensive derived
        # caches (position stack, group keys) are shared across subsets.
        base_context = FaultContext(self.topology, epochs)
        fault_contexts: dict[tuple[str, ...], FaultContext] = {}
        group_of: dict[tuple, int] = {}
        group_stations: list[tuple[str, ...]] = []
        schedules: list[FaultSchedule | None] = []
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
            specs.append(
                _ScenarioSpec(
                    scenario=scenario,
                    station_names=subset,
                    flows_per_step=(
                        scenario.flows_per_step
                        if scenario.flows_per_step is not None
                        else self.flows_per_step
                    ),
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
                )
            )

        # Observation plumbing: tracers exist only when asked for (progress
        # needs per-stage means, so it implies tracing too); otherwise every
        # stage sees the shared NULL_TRACER and pays nothing.
        if progress is None:
            tracker = None
        elif isinstance(progress, ProgressTracker):
            tracker = progress
        else:
            tracker = ProgressTracker(
                total=len(scenarios) * len(epochs), callback=progress
            )
        trace = bool(instrument) or tracker is not None

        if max_workers is not None and max_workers > 1 and executor == "process":
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

            pool = (
                ThreadPoolExecutor(max_workers=max_workers)
                if max_workers is not None and max_workers > 1
                else None
            )
            try:
                results = _run_specs(
                    specs,
                    edge_lists_at,
                    utc_hours,
                    self.traffic_model,
                    trace,
                    pool=pool,
                    on_step=on_step if tracker is not None else None,
                )
            finally:
                if pool is not None:
                    pool.shutdown()
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
    executor: str = "thread",
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

    ``max_workers`` / ``executor`` / ``steering`` / ``instrument`` are
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
    tracker = None
    if progress is not None:
        if isinstance(progress, ProgressTracker):
            tracker = progress
        else:
            steps = len(
                epoch_range(start, duration_hours * 3600.0, step_hours * 3600.0)
            )
            tracker = ProgressTracker(
                total=len(designs) * len(scenarios) * steps, callback=progress
            )
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
            executor=executor,
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
