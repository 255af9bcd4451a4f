"""Satellite network layer (the Section 5 implications substrate).

Inter-satellite link modelling, +Grid topologies for Walker and SS-plane
constellations (single- and multi-shell), cached incremental snapshot-graph
sequences with zero-copy CSR edge-array exports, ground stations, snapshot
and time-aware routing over pluggable backends (pure-python ``networkx`` or
array-native ``csgraph``), capacity allocation, demand-aware scheduling, a
scenario-sweep simulator driven by the gravity traffic model (one pipeline:
csgraph routing, columnar flows, array solvers) with thread- or
process-pool parallelism and cross-product design/scenario grids,
a fault-injection subsystem (registered fault models compiling to
vectorised per-step outage masks) with resilience metrics, and closed-loop
congestion steering (registered policies feeding per-link utilisation back
into routing weights with EWMA smoothing, hysteresis and anti-flap
cooldowns).
"""

from .backends import (
    BACKENDS,
    CSGraphBackend,
    EdgeArrays,
    NetworkXBackend,
    NodeIndex,
    RoutingBackend,
    SnapshotEdgeList,
    edge_arrays_from_graph,
    get_backend,
    graph_from_edge_arrays,
)
from .alloc_arrays import (
    ARRAY_SOLVERS,
    EdgeListCompileCache,
    FlowLinkSystem,
    allocate_max_min_array,
    allocate_proportional_array,
    compile_flow_link_system,
    compile_system_from_rows,
)
from .capacity import (
    ALLOCATORS,
    AllocationResult,
    Flow,
    allocate_max_min,
    allocate_proportional,
    get_allocator,
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
from .flows import FlowTable, RoutedFlowTable, route_flow_table, select_flow_table
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
    link_codes,
    path_delays,
    path_delays_from_rows,
)
from .telemetry import (
    TELEMETRY,
    AutoTelemetry,
    CountMinPairStore,
    ExactPairStore,
    ExactTelemetry,
    LinkTelemetry,
    PairTelemetry,
    SketchTelemetry,
    TelemetryModel,
    get_telemetry,
    merge_stores,
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
    "BACKENDS",
    "CSGraphBackend",
    "EdgeArrays",
    "NetworkXBackend",
    "NodeIndex",
    "RoutingBackend",
    "SnapshotEdgeList",
    "edge_arrays_from_graph",
    "get_backend",
    "graph_from_edge_arrays",
    "run_grid",
    "ALLOCATORS",
    "ARRAY_SOLVERS",
    "AllocationResult",
    "EdgeListCompileCache",
    "Flow",
    "FlowLinkSystem",
    "FlowTable",
    "RoutedFlowTable",
    "allocate_max_min",
    "allocate_max_min_array",
    "allocate_proportional",
    "allocate_proportional_array",
    "compile_flow_link_system",
    "compile_system_from_rows",
    "get_allocator",
    "route_flow_table",
    "select_flow_table",
    "TELEMETRY",
    "AutoTelemetry",
    "CountMinPairStore",
    "ExactPairStore",
    "ExactTelemetry",
    "LinkTelemetry",
    "PairTelemetry",
    "SketchTelemetry",
    "TelemetryModel",
    "get_telemetry",
    "merge_stores",
    "STEERING_POLICIES",
    "CongestionAwareSteering",
    "LoadSpreadingSteering",
    "StaticSteering",
    "SteeringController",
    "SteeringPolicy",
    "UtilisationWeightedSteering",
    "get_steering_policy",
    "link_codes",
    "path_delays",
    "path_delays_from_rows",
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
