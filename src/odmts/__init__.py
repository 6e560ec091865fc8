"""On-demand multimodal transit design and fleet sizing."""

from .instance import (
    Commodity,
    CostParams,
    Instance,
    RoutingParams,
    ValidationReport,
    bucket_of,
    load_instance,
    save_instance,
    split_commodities,
    validate,
)
from .routegen import (
    HubSets,
    Route,
    compute_hub_sets,
    enumerate_dropoff_routes,
    enumerate_pickup_routes,
    estimate_hub_arrival,
    materialize_dropoff,
    materialize_pickup,
)
from .design import DesignSolution, build_design_model, solve_design
from .fleet import (
    FleetGraph,
    FleetResult,
    Task,
    build_dense_graph,
    build_sparse_graph,
    min_fleet_oracle,
    recover_schedules,
    routes_to_tasks,
    solve_fleet,
)
from .instgen import generate, perturb_arrival_estimates
from .metrics import Report, avg_inconvenience, avg_shuttle_usage, build_report, emit_report
from .milp import MilpModel, MilpSolution, export_model, solve_milp

__version__ = "0.1.0"

__all__ = [
    "Commodity",
    "CostParams",
    "DesignSolution",
    "FleetGraph",
    "FleetResult",
    "HubSets",
    "Instance",
    "MilpModel",
    "MilpSolution",
    "Report",
    "Route",
    "RoutingParams",
    "Task",
    "ValidationReport",
    "avg_inconvenience",
    "avg_shuttle_usage",
    "bucket_of",
    "build_dense_graph",
    "build_design_model",
    "build_report",
    "build_sparse_graph",
    "compute_hub_sets",
    "emit_report",
    "enumerate_dropoff_routes",
    "enumerate_pickup_routes",
    "estimate_hub_arrival",
    "export_model",
    "generate",
    "load_instance",
    "materialize_dropoff",
    "materialize_pickup",
    "min_fleet_oracle",
    "perturb_arrival_estimates",
    "recover_schedules",
    "routes_to_tasks",
    "save_instance",
    "solve_design",
    "solve_fleet",
    "solve_milp",
    "split_commodities",
    "validate",
]
