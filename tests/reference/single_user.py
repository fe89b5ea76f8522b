"""Test-only oracle: the per-object single-user MEC simulator.

The library simulates every MEC run, one user or many, through the
vectorised :class:`~repro.mec.fleet.FleetSimulation` (a single-user run
is an ``M = 1`` fleet).  This module keeps the original object-by-object
walk of that setting, outside ``src/``, as the reference the fleet is
checked against:

* :class:`ServiceIdAllocator` hands out the service ids;
* :class:`MigrationEngine` applies a migration policy to the real service,
  moves chaffs where they are told, and logs every instantiation and
  migration as a :class:`MigrationEvent` while charging a
  :class:`~repro.mec.costs.CostLedger`;
* :class:`EavesdropperObserver` snapshots the services' location
  histories into an anonymous, optionally shuffled
  :class:`ObservationMatrix`, and :func:`censor_observations` blanks the
  slots a partial-coverage adversary cannot see;
* :class:`ChaffOrchestrator` turns a chaff strategy's planned
  trajectories (:class:`ChaffPlan`) into instantiation and migration
  requests (Section II-B);
* :class:`MECSimulation` plays one user, their real service, their chaffs
  and the observer slot by slot.

``tests/test_fleet.py::TestSingleUserEquivalence`` pins an ``M = 1``
fleet on an empty timeline to :class:`MECSimulation` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.eavesdropper.detector import TrajectoryDetector
from repro.core.strategies.base import ChaffStrategy
from repro.mec.costs import CostLedger, CostModel
from repro.mec.policies import AlwaysFollowPolicy, MigrationPolicy
from repro.mec.service import ServiceInstance, ServiceKind
from repro.mec.topology import MECTopology
from repro.mobility.markov import MarkovChain

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adversary.coverage import CoverageModel

__all__ = [
    "ServiceIdAllocator",
    "MigrationEvent",
    "MigrationEngine",
    "ObservationMatrix",
    "EavesdropperObserver",
    "censor_observations",
    "ChaffPlan",
    "ChaffOrchestrator",
    "MECSimulationConfig",
    "MECSimulationReport",
    "MECSimulation",
]


# ----------------------------------------------------------------------
# Migration engine: the policy applied to services, and the event log
# ----------------------------------------------------------------------


@dataclass
class ServiceIdAllocator:
    """Hands out unique service ids within one simulation scope.

    A simulation owns exactly one allocator and threads it through every
    component that instantiates services, so ids never collide when
    several composed simulations share one observation plane.
    """

    next_id: int = 0

    def __post_init__(self) -> None:
        if self.next_id < 0:
            raise ValueError("next_id must be non-negative")

    def allocate(self) -> int:
        """The next unused service id."""
        service_id = self.next_id
        self.next_id += 1
        return service_id


@dataclass(frozen=True)
class MigrationEvent:
    """A single observed migration (or instantiation) of a service."""

    slot: int
    service_id: int
    source_cell: int
    target_cell: int
    is_instantiation: bool = False

    def __post_init__(self) -> None:
        if self.slot < 0:
            raise ValueError("slot must be non-negative")
        if self.source_cell < 0 or self.target_cell < 0:
            raise ValueError("cells must be non-negative")


@dataclass
class MigrationEngine:
    """Applies a migration policy to the real service and logs all movement.

    Chaff services are moved by the chaff orchestrator, not by the policy;
    the engine still records their movements as events so the observation
    plane sees real and chaff migrations through the same interface.
    """

    topology: MECTopology
    policy: MigrationPolicy
    cost_model: CostModel
    ledger: CostLedger = field(default_factory=CostLedger)
    events: list[MigrationEvent] = field(default_factory=list)

    def register_instantiation(self, service: ServiceInstance, slot: int) -> None:
        """Log the creation of a service at its initial cell."""
        self.events.append(
            MigrationEvent(
                slot=slot,
                service_id=service.service_id,
                source_cell=service.cell,
                target_cell=service.cell,
                is_instantiation=True,
            )
        )

    def step_real_service(
        self, service: ServiceInstance, user_cell: int, slot: int
    ) -> int:
        """Advance the real service one slot under the migration policy.

        Returns the cell the service occupies after the (possible)
        migration, charging migration and communication costs to the
        ledger.
        """
        if service.is_chaff:
            raise ValueError("step_real_service only handles the real service")
        target = self.policy.decide(self.topology, service.cell, user_cell)
        source = service.cell
        if service.migrate_to(target):
            cost = self.cost_model.migration_cost(self.topology, source, target)
            self.ledger.count_migration()
            self.ledger.charge_migration(cost)
            self.events.append(
                MigrationEvent(
                    slot=slot,
                    service_id=service.service_id,
                    source_cell=source,
                    target_cell=target,
                )
            )
        self.ledger.charge_communication(
            self.cost_model.communication_cost(self.topology, user_cell, service.cell)
        )
        service.record_slot()
        return service.cell

    def step_chaff_service(
        self, service: ServiceInstance, target_cell: int, slot: int
    ) -> int:
        """Move a chaff service to the cell chosen by the chaff strategy."""
        if not service.is_chaff:
            raise ValueError("step_chaff_service only handles chaff services")
        source = service.cell
        if service.migrate_to(target_cell):
            cost = self.cost_model.migration_cost(self.topology, source, target_cell)
            self.ledger.count_migration()
            self.ledger.charge_migration(cost)
            self.events.append(
                MigrationEvent(
                    slot=slot,
                    service_id=service.service_id,
                    source_cell=source,
                    target_cell=target_cell,
                )
            )
        self.ledger.charge_chaff(self.cost_model.chaff_running_cost)
        service.record_slot()
        return service.cell

    def close_slot(self) -> None:
        """Finish accounting for the current slot."""
        self.ledger.close_slot()

    def events_for_service(self, service_id: int) -> list[MigrationEvent]:
        """All events logged for one service, in slot order."""
        return [event for event in self.events if event.service_id == service_id]


# ----------------------------------------------------------------------
# The eavesdropper's observation plane
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ObservationMatrix:
    """Anonymous observations plus the hidden ground-truth labels.

    Attributes
    ----------
    trajectories:
        ``(N, T)`` array of observed service trajectories, in the (possibly
        shuffled) order presented to the eavesdropper.
    service_ids:
        Service id of each row (hidden from the eavesdropper; used by the
        harness to score detections).
    user_row:
        Row index of the real user's service (ground truth for scoring).
    """

    trajectories: np.ndarray
    service_ids: np.ndarray
    user_row: int

    def __post_init__(self) -> None:
        if self.trajectories.ndim != 2:
            raise ValueError("trajectories must be 2-D")
        if self.service_ids.shape[0] != self.trajectories.shape[0]:
            raise ValueError("service_ids length must match trajectory count")
        if not 0 <= self.user_row < self.trajectories.shape[0]:
            raise ValueError("user_row out of range")

    @property
    def n_services(self) -> int:
        """Number of observed services ``N``."""
        return int(self.trajectories.shape[0])

    @property
    def horizon(self) -> int:
        """Number of observed slots ``T``."""
        return int(self.trajectories.shape[1])

    def user_trajectory(self) -> np.ndarray:
        """The real user's trajectory (ground truth)."""
        return self.trajectories[self.user_row]


class EavesdropperObserver:
    """Collects service trajectories into an :class:`ObservationMatrix`."""

    def __init__(self, *, shuffle: bool = True) -> None:
        self.shuffle = shuffle

    def observe(
        self,
        services: Sequence[ServiceInstance],
        real_service_id: int,
        rng: np.random.Generator,
    ) -> ObservationMatrix:
        """Snapshot the trajectories of all services.

        Parameters
        ----------
        services:
            All service instances (real + chaffs) with recorded histories
            of equal length.
        real_service_id:
            The id of the real user's service (for ground-truth labelling).
        rng:
            Used for the presentation-order shuffle.
        """
        if not services:
            raise ValueError("no services to observe")
        lengths = {len(service.location_history) for service in services}
        if len(lengths) != 1:
            raise ValueError("all services must have equal-length histories")
        if lengths == {0}:
            raise ValueError("services have empty histories")
        trajectories = np.stack(
            [np.asarray(service.location_history, dtype=np.int64) for service in services]
        )
        service_ids = np.asarray(
            [service.service_id for service in services], dtype=np.int64
        )
        unique_ids, counts = np.unique(service_ids, return_counts=True)
        if unique_ids.size != service_ids.size:
            duplicates = unique_ids[counts > 1].tolist()
            raise ValueError(
                "observed services must have unique ids (the ground-truth "
                f"label would be ambiguous); duplicated ids: {duplicates}"
            )
        if real_service_id not in service_ids:
            raise ValueError("real_service_id not among the observed services")
        order = np.arange(len(services))
        if self.shuffle:
            order = rng.permutation(len(services))
        trajectories = trajectories[order]
        service_ids = service_ids[order]
        user_row = int(np.flatnonzero(service_ids == real_service_id)[0])
        return ObservationMatrix(
            trajectories=trajectories, service_ids=service_ids, user_row=user_row
        )


def censor_observations(
    matrix: ObservationMatrix, coverage: "CoverageModel", n_cells: int
) -> ObservationMatrix:
    """The plane a partial-coverage adversary actually sees.

    Slots where a service sits outside the coverage model's compromised
    sites are censored to ``-1`` (the same sentinel the dynamic-world
    fleet uses for dead slots), keeping the ground-truth labels intact so
    the harness can still score detections against the full record.
    """
    return ObservationMatrix(
        trajectories=coverage.censor(matrix.trajectories, n_cells),
        service_ids=matrix.service_ids,
        user_row=matrix.user_row,
    )


# ----------------------------------------------------------------------
# Chaff orchestration: launching and steering chaff services
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChaffPlan:
    """Planned chaff trajectories for one user session."""

    owner_id: int
    trajectories: np.ndarray

    def __post_init__(self) -> None:
        if self.owner_id < 0:
            raise ValueError("owner_id must be non-negative")
        if self.trajectories.ndim != 2:
            raise ValueError("trajectories must be (n_chaffs, T)")

    @property
    def n_chaffs(self) -> int:
        """Number of chaff services in the plan."""
        return int(self.trajectories.shape[0])

    @property
    def horizon(self) -> int:
        """Planned number of slots."""
        return int(self.trajectories.shape[1])


@dataclass
class ChaffOrchestrator:
    """Creates chaff service instances and replays their planned trajectories."""

    strategy: ChaffStrategy
    chain: MarkovChain
    n_chaffs: int
    #: Simulation-scoped id source.  The owning simulation passes its own
    #: allocator so ids stay unique across all components (and across all
    #: users of a fleet); a standalone orchestrator defaults to ids from 1,
    #: leaving id 0 for the conventional real service.
    allocator: ServiceIdAllocator = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.n_chaffs < 0:
            raise ValueError("n_chaffs must be non-negative")
        if self.allocator is None:
            self.allocator = ServiceIdAllocator(next_id=1)

    def plan(
        self, owner_id: int, user_trajectory: np.ndarray, rng: np.random.Generator
    ) -> ChaffPlan:
        """Compute the chaff trajectories for a user session."""
        user = np.asarray(user_trajectory, dtype=np.int64)
        if self.n_chaffs == 0:
            return ChaffPlan(
                owner_id=owner_id,
                trajectories=np.empty((0, user.size), dtype=np.int64),
            )
        trajectories = self.strategy.generate(self.chain, user, self.n_chaffs, rng)
        return ChaffPlan(owner_id=owner_id, trajectories=trajectories)

    def instantiate(
        self, plan: ChaffPlan, engine: MigrationEngine, slot: int = 0
    ) -> list[ServiceInstance]:
        """Create one chaff service per planned trajectory at its first cell."""
        services = []
        for index in range(plan.n_chaffs):
            service = ServiceInstance(
                service_id=self.allocator.allocate(),
                owner_id=plan.owner_id,
                kind=ServiceKind.CHAFF,
                cell=int(plan.trajectories[index, 0]),
                created_at=slot,
            )
            engine.register_instantiation(service, slot)
            services.append(service)
        return services

    def step(
        self,
        plan: ChaffPlan,
        services: list[ServiceInstance],
        engine: MigrationEngine,
        slot: int,
    ) -> None:
        """Issue the migration requests for slot ``slot`` of the plan."""
        if len(services) != plan.n_chaffs:
            raise ValueError("service list does not match the plan")
        if not 0 <= slot < plan.horizon:
            raise ValueError("slot outside the planned horizon")
        for index, service in enumerate(services):
            engine.step_chaff_service(
                service, int(plan.trajectories[index, slot]), slot
            )


# ----------------------------------------------------------------------
# End-to-end single-user simulation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MECSimulationConfig:
    """Configuration of a single-user MEC simulation run."""

    horizon: int = 100
    n_chaffs: int = 1
    user_id: int = 0
    shuffle_observations: bool = True

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if self.n_chaffs < 0:
            raise ValueError("n_chaffs must be non-negative")
        if self.user_id < 0:
            raise ValueError("user_id must be non-negative")


@dataclass
class MECSimulationReport:
    """Everything produced by one simulation run."""

    user_trajectory: np.ndarray
    observations: ObservationMatrix
    ledger: CostLedger
    events: list[MigrationEvent]
    real_service: ServiceInstance
    chaff_services: list[ServiceInstance] = field(default_factory=list)

    @property
    def horizon(self) -> int:
        """Number of simulated slots."""
        return int(self.user_trajectory.size)

    @property
    def total_cost(self) -> float:
        """Total migration + communication + chaff cost of the run."""
        return self.ledger.total

    def evaluate(
        self, chain: MarkovChain, detector: TrajectoryDetector, rng: np.random.Generator
    ) -> dict[str, float]:
        """Run a detector on the observations and score the eavesdropper.

        Returns a dict with ``tracking_accuracy``, ``detection_accuracy``
        (0/1 for this single run) and ``total_cost``.
        """
        outcome = detector.detect(chain, self.observations.trajectories, rng)
        chosen = self.observations.trajectories[outcome.chosen_index]
        tracked = chosen == self.user_trajectory
        return {
            "tracking_accuracy": float(np.mean(tracked)),
            "detection_accuracy": float(
                outcome.chosen_index == self.observations.user_row
            ),
            "total_cost": self.total_cost,
        }


class MECSimulation:
    """Simulates one user, their real service, their chaffs and the observer."""

    def __init__(
        self,
        topology: MECTopology,
        chain: MarkovChain,
        *,
        strategy: ChaffStrategy | None = None,
        policy: MigrationPolicy | None = None,
        cost_model: CostModel | None = None,
        config: MECSimulationConfig | None = None,
    ) -> None:
        if topology.n_cells != chain.n_states:
            raise ValueError("topology and mobility model disagree on cell count")
        self.topology = topology
        self.chain = chain
        self.strategy = strategy
        self.policy = policy or AlwaysFollowPolicy()
        self.cost_model = cost_model or CostModel()
        self.config = config or MECSimulationConfig()
        if self.config.n_chaffs > 0 and strategy is None:
            raise ValueError("a chaff strategy is required when n_chaffs > 0")

    # ------------------------------------------------------------------
    def run(
        self,
        rng: np.random.Generator,
        *,
        user_trajectory: np.ndarray | None = None,
    ) -> MECSimulationReport:
        """Execute one simulation run.

        If ``user_trajectory`` is omitted the user's movement is sampled
        from the mobility model for ``config.horizon`` slots.
        """
        config = self.config
        if user_trajectory is None:
            user = self.chain.sample_trajectory(config.horizon, rng)
        else:
            user = np.asarray(user_trajectory, dtype=np.int64)
            if user.ndim != 1 or user.size == 0:
                raise ValueError("user_trajectory must be a non-empty 1-D array")
            if user.min() < 0 or user.max() >= self.topology.n_cells:
                raise ValueError(
                    "user_trajectory contains cells outside the topology: "
                    f"cells must lie in [0, {self.topology.n_cells}) "
                    f"(= mobility model states), got values in "
                    f"[{int(user.min())}, {int(user.max())}]"
                )
        horizon = user.size

        engine = MigrationEngine(
            topology=self.topology,
            policy=self.policy,
            cost_model=self.cost_model,
            ledger=CostLedger(),
        )
        allocator = ServiceIdAllocator()
        real_service = ServiceInstance(
            service_id=allocator.allocate(),
            owner_id=config.user_id,
            kind=ServiceKind.REAL,
            cell=int(user[0]),
        )
        engine.register_instantiation(real_service, slot=0)

        chaff_services: list[ServiceInstance] = []
        plan = None
        if self.strategy is not None and config.n_chaffs > 0:
            orchestrator = ChaffOrchestrator(
                strategy=self.strategy,
                chain=self.chain,
                n_chaffs=config.n_chaffs,
                allocator=allocator,
            )
            plan = orchestrator.plan(config.user_id, user, rng)
            chaff_services = orchestrator.instantiate(plan, engine, slot=0)

        for slot in range(horizon):
            engine.step_real_service(real_service, int(user[slot]), slot)
            if plan is not None:
                orchestrator.step(plan, chaff_services, engine, slot)
            engine.close_slot()

        observer = EavesdropperObserver(shuffle=config.shuffle_observations)
        observations = observer.observe(
            [real_service, *chaff_services],
            real_service_id=real_service.service_id,
            rng=rng,
        )
        return MECSimulationReport(
            user_trajectory=user,
            observations=observations,
            ledger=engine.ledger,
            events=list(engine.events),
            real_service=real_service,
            chaff_services=chaff_services,
        )
