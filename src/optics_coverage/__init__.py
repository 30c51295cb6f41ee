"""Sensor-network coverage toolkit.

Clusters deployed sensor positions with a density-based ordering
algorithm, then activates a small per-cluster working set through an
acceptance-level protocol with overlap-aware geometry, and reports
active-node ratios and coverage estimates over sleep/wake rounds.
"""

from .geometry import CoLocatedSensorsError, Point2D
from .metrics import (
    ExperimentSummary,
    RoundReport,
    active_ratio,
    analytic_cr,
    coverage_grid,
    grid_cr,
    summarize_experiment,
)
from .network import (
    Deployment,
    NeighborTable,
    SensorNode,
    build_neighbor_table,
    generate_deployment,
)
from .optics import (
    Cluster,
    ClusterAssignment,
    OpticsParams,
    OrderedPoint,
    Ordering,
    extract_clusters,
    optics_order,
)
from .protocol import (
    AllNodesDeadError,
    ProtocolConfig,
    RoundState,
    SelectionTree,
    cover_cluster,
    iterate_rounds,
    run_round,
)

__all__ = [
    "AllNodesDeadError",
    "Cluster",
    "ClusterAssignment",
    "CoLocatedSensorsError",
    "Deployment",
    "ExperimentSummary",
    "NeighborTable",
    "OpticsParams",
    "OrderedPoint",
    "Ordering",
    "Point2D",
    "ProtocolConfig",
    "RoundReport",
    "RoundState",
    "SelectionTree",
    "SensorNode",
    "active_ratio",
    "analytic_cr",
    "build_neighbor_table",
    "cover_cluster",
    "coverage_grid",
    "extract_clusters",
    "generate_deployment",
    "grid_cr",
    "iterate_rounds",
    "optics_order",
    "run_round",
    "summarize_experiment",
]
