"""MEC substrate: topology, services, costs, migration policies and the fleet.

Every MEC run, one user or many, goes through :class:`FleetSimulation`; a
single-user run is a fleet of ``M = 1``.  Its report carries the service
records (:class:`ServiceInstance`), one :class:`CostLedger` per user and
the eavesdropper's :class:`FleetObservationPlane`.
"""

from .topology import EdgeSite, MECTopology
from .service import ServiceInstance, ServiceKind
from .costs import CostLedger, CostModel
from .policies import (
    AlwaysFollowPolicy,
    DistanceThresholdPolicy,
    MDPMigrationPolicy,
    MigrationPolicy,
    NeverMigratePolicy,
)
from .placement import PlacementEngine, PlacementStats
from .fleet import (
    FleetEvaluation,
    FleetObservationPlane,
    FleetReport,
    FleetSimulation,
    FleetSimulationConfig,
    FleetStatistics,
    materialise_full_plane,
    run_fleet_monte_carlo,
)
from .streaming import StreamingFleetReport

__all__ = [
    "EdgeSite",
    "MECTopology",
    "ServiceInstance",
    "ServiceKind",
    "CostLedger",
    "CostModel",
    "AlwaysFollowPolicy",
    "DistanceThresholdPolicy",
    "MDPMigrationPolicy",
    "MigrationPolicy",
    "NeverMigratePolicy",
    "PlacementEngine",
    "PlacementStats",
    "FleetEvaluation",
    "FleetObservationPlane",
    "FleetReport",
    "FleetSimulation",
    "FleetSimulationConfig",
    "FleetStatistics",
    "materialise_full_plane",
    "run_fleet_monte_carlo",
    "StreamingFleetReport",
]
