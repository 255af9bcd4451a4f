"""Satellite network layer (the Section 5 implications substrate).

Inter-satellite link modelling, +Grid topologies for Walker and SS-plane
constellations (single- and multi-shell), cached snapshot sequences
producing per-step edge lists and CSR edge arrays, ground stations,
snapshot and time-aware routing (one compiled ``csgraph`` Dijkstra per
snapshot), array-native capacity allocation, demand-aware scheduling, a
scenario-sweep simulator driven by the gravity traffic model (one
pipeline: csgraph routing, columnar flows, array solvers) with
process-pool parallelism and cross-product design/scenario grids, a
fault-injection subsystem
(registered fault models compiling to vectorised per-step outage masks) with
resilience metrics, and closed-loop congestion steering (registered policies
feeding per-link utilisation back into routing weights with EWMA smoothing,
hysteresis and anti-flap cooldowns).
"""

from .backends import (
    EdgeArrays,
    NodeIndex,
    RouteTables,
    SnapshotEdgeList,
)
from .alloc_arrays import (
    ARRAY_SOLVERS,
    FlowLinkSystem,
    compile_system_from_rows,
)
from .faults import (
    FAULT_MODELS,
    FaultContext,
    FaultModel,
    FaultSchedule,
    FaultSpec,
    compile_faults,
    get_fault_model,
)
from .ground_station import (
    GroundStation,
    default_ground_stations,
    visibility_mask,
    visible_satellites,
)
from .isl import (
    ISLConfig,
    grazing_altitude_km,
    grazing_altitudes_km,
    isl_feasible,
    isl_feasible_mask,
    propagation_delay_ms,
)
from .flows import (
    FlowPlan,
    FlowTable,
    RoutedFlowTable,
    plan_flows,
    reroute_flows,
    route_flow_table,
    station_rows,
)
from .routing import RouteResult, SnapshotRouter, TimeAwareRouter
from .scheduler import PeakShiftScheduler, ScheduleResult
from .steering import (
    STEERING_POLICIES,
    CongestionAwareSteering,
    LoadSpreadingSteering,
    StaticSteering,
    SteeringController,
    SteeringPolicy,
    UtilisationWeightedSteering,
    get_steering_policy,
)
from .telemetry import (
    TELEMETRY,
    CountMinPairStore,
    ExactPairStore,
    ExactTelemetry,
    PairTelemetry,
    SketchTelemetry,
    TelemetryModel,
    get_telemetry,
)
from .simulation import (
    NetworkSimulator,
    Scenario,
    SimulationResult,
    StepStatistics,
    run_grid,
)
from .topology import (
    ConstellationTopology,
    MultiShellTopology,
    SatelliteNode,
    SnapshotSequence,
    build_plus_grid_topology,
)

__all__ = [
    "EdgeArrays",
    "NodeIndex",
    "RouteTables",
    "SnapshotEdgeList",
    "run_grid",
    "ARRAY_SOLVERS",
    "FlowLinkSystem",
    "FlowPlan",
    "FlowTable",
    "RoutedFlowTable",
    "compile_system_from_rows",
    "plan_flows",
    "reroute_flows",
    "route_flow_table",
    "station_rows",
    "TELEMETRY",
    "CountMinPairStore",
    "ExactPairStore",
    "ExactTelemetry",
    "PairTelemetry",
    "SketchTelemetry",
    "TelemetryModel",
    "get_telemetry",
    "STEERING_POLICIES",
    "CongestionAwareSteering",
    "LoadSpreadingSteering",
    "StaticSteering",
    "SteeringController",
    "SteeringPolicy",
    "UtilisationWeightedSteering",
    "get_steering_policy",
    "FAULT_MODELS",
    "FaultContext",
    "FaultModel",
    "FaultSchedule",
    "FaultSpec",
    "compile_faults",
    "get_fault_model",
    "GroundStation",
    "default_ground_stations",
    "visibility_mask",
    "visible_satellites",
    "ISLConfig",
    "grazing_altitude_km",
    "grazing_altitudes_km",
    "isl_feasible",
    "isl_feasible_mask",
    "propagation_delay_ms",
    "RouteResult",
    "SnapshotRouter",
    "TimeAwareRouter",
    "PeakShiftScheduler",
    "ScheduleResult",
    "NetworkSimulator",
    "Scenario",
    "SimulationResult",
    "StepStatistics",
    "ConstellationTopology",
    "MultiShellTopology",
    "SatelliteNode",
    "SnapshotSequence",
    "build_plus_grid_topology",
]
