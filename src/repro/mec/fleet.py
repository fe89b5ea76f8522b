"""Multi-user, capacity-aware MEC fleet simulation.

The single-user :class:`~repro.mec.simulator.MECSimulation` plays one user
against an eavesdropper that only ever sees that user's services.  The
paper's threat model, however, lives in a *shared* deployment: many users'
services co-hosted on the same edge sites, competing for site capacity,
and all visible on one observation plane.  This module simulates that
regime:

* ``M`` users with heterogeneous chaff budgets (and optionally per-user
  strategies and start cells) share one :class:`~repro.mec.topology.MECTopology`;
* every instantiation and migration is resolved by the capacity-enforcing
  :class:`~repro.mec.placement.PlacementEngine` (admit / spill to the
  nearest free site / reject);
* the eavesdropper observes the union of all ``N = sum(1 + n_chaffs_u)``
  service trajectories and is scored *per user* against that crowd —
  crowd-blending, a privacy scenario the single-user game cannot express;
* per-user :class:`~repro.mec.costs.CostLedger`\\ s keep the cost-privacy
  trade-off attributable to individual users.

The engines produce bit-identical results for the same seed.
``"batch"`` (default) and ``"stream"`` are a stack of one run of
:func:`repro.mec.runstack.run_stacked`, the one in-memory driver: it
samples through the batched APIs (:meth:`ChaffStrategy.generate_batch`,
:meth:`MarkovChain.evolve_from_uniforms`) and advances
:class:`_FleetSlotKernel` through its single slot loop,
:meth:`_FleetSlotKernel.advance`.  ``"loop"`` replays the naive
per-user/per-service Python walk and serves as the independent
reference for the equivalence tests and the speedup benchmark.

All randomness of one run derives from a single
:class:`~numpy.random.SeedSequence` (children spawned per user, for the
observation shuffle and for detector evaluation), so a fleet Monte-Carlo
sharded over workers (:func:`run_fleet_monte_carlo`) is bit-identical to
its serial execution for any worker count.

A :class:`~repro.world.timeline.Timeline` makes the world *dynamic*:
mobility follows the regime schedule's time-varying chain, per-slot
capacity views evict services off failed or shrunk sites, and churned
users enter and leave mid-episode through an active-service mask threaded
through the batch kernels.  The timeline is compiled once per
simulation into a :class:`~repro.world.timeline.WorldSchedule`; every
slot window reads slices of it.  An empty timeline is bit-identical to
the static path in every engine, and the engines stay bit-identical to
each other under any timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..core.eavesdropper.detector import (
    MaximumLikelihoodDetector,
    RandomGuessDetector,
    TrajectoryDetector,
)
from ..core.eavesdropper.scoring import eq1_decide, eq1_scores
from ..core.strategies.base import ChaffStrategy
from ..mobility.markov import MarkovChain
from ..sim.parallel import get_shared, parallel_map, resolve_workers, shard_slices
from ..sim.seeding import as_seed_sequence, spawn_generators, spawn_sequences_range
from ..telemetry import NULL_RECORDER
from ..world.timeline import Timeline, WorldSchedule
from .costs import CostLedger, CostModel
from .placement import PlacementEngine, PlacementStats
from .policies import (
    AlwaysFollowPolicy,
    DistanceThresholdPolicy,
    MDPMigrationPolicy,
    MigrationPolicy,
    NeverMigratePolicy,
)
from .service import ServiceIdAllocator, ServiceInstance, ServiceKind
from .topology import MECTopology

__all__ = [
    "FleetSimulationConfig",
    "FleetObservationPlane",
    "FleetEvaluation",
    "FleetReport",
    "FleetSimulation",
    "FleetStatistics",
    "run_fleet_monte_carlo",
    "materialise_full_plane",
    "FULL_PLANE_LIMIT",
]

#: Engines accepted by :meth:`FleetSimulation.run`.
FLEET_ENGINES = ("batch", "loop", "stream")

#: Target element budget of one bounded sampling block (users x horizon x
#: services-per-user); blocks shrink as the horizon grows, keeping the
#: sampler's heap roughly constant in ``T``.
_BLOCK_TARGET_ELEMS = 1 << 20

#: Elements above which :func:`materialise_full_plane` refuses to allocate.
#: Sized so every plane the small-``M`` test and experiment configurations
#: materialise fits comfortably, while a city-scale ``(M, N, T)`` crowd
#: plane (the thing the streaming engine exists to avoid) trips it.
FULL_PLANE_LIMIT = 200_000_000


def materialise_full_plane(
    shape: "tuple[int, ...]",
    dtype: "np.dtype | type" = np.int64,
    fill: "int | float | None" = None,
) -> np.ndarray:
    """The tree's one sanctioned full-plane allocation site.

    repro-lint's RPL007 bans 3-axis plane allocations (``(M, N, T)``
    shapes and friends) everywhere outside a ``FULL_PLANE_LIMIT``-guarded
    helper; consumers that genuinely need a dense plane — reports
    materialised for the small-``M`` bit-identity contract, evaluation of
    a whole crowd at once — route the allocation through here, where the
    element count is checked against :data:`FULL_PLANE_LIMIT` first.
    Streaming consumers iterate chunk planes instead and never hit this.
    """
    elements = int(np.prod(np.asarray(shape, dtype=np.int64)))
    if elements > FULL_PLANE_LIMIT:
        raise MemoryError(
            f"refusing to materialise a {shape} plane ({elements} elements "
            f"> FULL_PLANE_LIMIT={FULL_PLANE_LIMIT}); iterate its chunks "
            "instead (StreamingFleetReport.iter_plane_chunks)"
        )
    if fill is None:
        return np.empty(shape, dtype=dtype)
    return np.full(shape, fill, dtype=dtype)


@dataclass(frozen=True)
class FleetSimulationConfig:
    """Configuration of one multi-user fleet run.

    Attributes
    ----------
    n_users:
        Number of users ``M`` sharing the deployment.
    horizon:
        Number of simulated slots ``T``.
    n_chaffs:
        Chaff budget: one integer applied to every user, or a length-``M``
        sequence of per-user budgets (0 allowed).
    start_cells:
        Optional length-``M`` sequence fixing each user's first cell;
        omitted users start from the mobility model's initial
        distribution.
    shuffle_observations:
        Whether the global observation plane is presented in a random
        service order (as the eavesdropper would see it).
    """

    n_users: int = 50
    horizon: int = 100
    n_chaffs: "int | tuple[int, ...]" = 1
    start_cells: "tuple[int, ...] | None" = None
    shuffle_observations: bool = True

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ValueError("n_users must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        budgets = self.chaffs_per_user()
        if any(budget < 0 for budget in budgets):
            raise ValueError("chaff budgets must be non-negative")
        if self.start_cells is not None and len(self.start_cells) != self.n_users:
            raise ValueError("start_cells must list one cell per user")

    def chaffs_per_user(self) -> tuple[int, ...]:
        """The per-user chaff budgets as a length-``M`` tuple."""
        if isinstance(self.n_chaffs, int):
            return (self.n_chaffs,) * self.n_users
        budgets = tuple(int(budget) for budget in self.n_chaffs)
        if len(budgets) != self.n_users:
            raise ValueError("n_chaffs sequence must list one budget per user")
        return budgets

    @property
    def n_services(self) -> int:
        """Total services ``N`` on the shared observation plane."""
        return self.n_users + sum(self.chaffs_per_user())


@dataclass(frozen=True)
class FleetObservationPlane:
    """The eavesdropper's global view: every user's services, merged.

    Attributes
    ----------
    trajectories:
        ``(N, T)`` observed service trajectories in presentation order.
    service_ids:
        Service id of each row (hidden from the eavesdropper).
    owner_ids:
        Owning user of each row (hidden from the eavesdropper).
    real_rows:
        Length-``M`` array: for each user, the row of their real service
        (per-user ground truth for crowd scoring).
    """

    trajectories: np.ndarray
    service_ids: np.ndarray
    owner_ids: np.ndarray
    real_rows: np.ndarray

    def __post_init__(self) -> None:
        if self.trajectories.ndim != 2:
            raise ValueError("trajectories must be 2-D")
        n = self.trajectories.shape[0]
        if self.service_ids.shape != (n,) or self.owner_ids.shape != (n,):
            raise ValueError("service_ids/owner_ids must label every row")
        if np.unique(self.service_ids).size != n:
            raise ValueError("observed services must have unique ids")
        if self.real_rows.size and (
            self.real_rows.min() < 0 or self.real_rows.max() >= n
        ):
            raise ValueError("real_rows out of range")

    @property
    def n_services(self) -> int:
        """Number of observed services ``N``."""
        return int(self.trajectories.shape[0])

    @property
    def horizon(self) -> int:
        """Number of observed slots ``T``."""
        return int(self.trajectories.shape[1])

    def user_trajectory(self, user: int) -> np.ndarray:
        """The observed trajectory of one user's real service."""
        return self.trajectories[int(self.real_rows[user])]


@dataclass(frozen=True)
class FleetEvaluation:
    """Per-user detector scores against the merged observation plane."""

    chosen_rows: np.ndarray
    tracking_per_user: np.ndarray
    detected_per_user: np.ndarray

    @property
    def mean_tracking(self) -> float:
        """Mean per-user tracking accuracy."""
        return float(np.mean(self.tracking_per_user))

    @property
    def mean_detection(self) -> float:
        """Fraction of users whose real service the eavesdropper picked."""
        return float(np.mean(self.detected_per_user))


@dataclass
class FleetReport:
    """Everything produced by one fleet run.

    ``windows`` and ``transition_stack`` are the dynamic-world context of
    the run: the ``(N, 2)`` activity window of every presentation row of
    the observation plane (``None`` for a frozen world, where every
    service spans the whole episode) and the time-varying transition
    stack of the regime schedule (``None`` without regime switches).
    Rows of a churned world's plane hold ``-1`` on slots where the
    service did not exist.
    """

    user_trajectories: np.ndarray
    observations: FleetObservationPlane
    ledgers: list[CostLedger]
    services: list[ServiceInstance]
    placement: PlacementStats
    evaluation_seed: np.random.SeedSequence = field(repr=False, default=None)  # type: ignore[assignment]
    windows: np.ndarray | None = None
    transition_stack: np.ndarray | None = field(repr=False, default=None)

    @property
    def n_users(self) -> int:
        """Number of simulated users ``M``."""
        return int(self.user_trajectories.shape[0])

    @property
    def horizon(self) -> int:
        """Number of simulated slots ``T``."""
        return int(self.user_trajectories.shape[1])

    @property
    def total_cost(self) -> float:
        """Fleet-wide cost (sum of the per-user ledgers)."""
        return float(sum(ledger.total for ledger in self.ledgers))

    @property
    def per_user_cost(self) -> np.ndarray:
        """Length-``M`` array of per-user total costs."""
        return np.array([ledger.total for ledger in self.ledgers], dtype=float)

    @property
    def total_migrations(self) -> int:
        """Fleet-wide migration count (sum of the per-user ledgers)."""
        return int(sum(ledger.migrations for ledger in self.ledgers))

    def evaluate(
        self,
        chain: MarkovChain,
        detector: TrajectoryDetector,
        seed: "int | np.random.SeedSequence | None" = None,
    ) -> FleetEvaluation:
        """Score a detector per user against the merged observation plane.

        For every user the eavesdropper receives the *whole* crowd of
        ``N`` trajectories and attributes one row to that user; detection
        succeeds when the chosen row is the user's real service.  All
        ``M`` per-user decisions run as one
        :meth:`~repro.core.eavesdropper.detector.TrajectoryDetector.detect_crowd`
        call (the crowd is scored once; only per-user tie-break draws
        differ).  ``seed`` defaults to the run's own evaluation child, so
        report + evaluation are a pure function of the run seed.
        """
        if seed is None:
            seed = self.evaluation_seed
        if seed is None:
            raise ValueError(
                "no evaluation seed: pass one explicitly or evaluate a "
                "report produced by FleetSimulation.run"
            )
        rngs = spawn_generators(seed, self.n_users)
        plane = self.observations
        traj = plane.trajectories
        stack = self.transition_stack
        masked = windows_censor(self.windows, self.horizon)
        if not masked or getattr(detector, "supports_censored_planes", False):
            # Detectors that understand -1-marked planes (the adversary
            # layer) score a churned plane themselves, windows and all.
            extra = {} if stack is None else {"transition_stack": stack}
            chosen = detector.detect_crowd(chain, traj, rngs, **extra)
        else:
            # Rows observed over different windows score their
            # per-observed-slot rates (a dead slot holds -1).
            chosen = crowd_choices(
                detector,
                rngs,
                plane.n_services,
                lambda: eq1_scores(chain, [(traj, traj >= 0)], transition_stack=stack),
                "a churned observation plane (rows observed over different windows)",
            )
        tracked, observed = tracked_slots(
            traj[chosen],
            self.user_trajectories,
            self.windows[plane.real_rows] if masked else None,
        )
        return FleetEvaluation(
            chosen_rows=chosen,
            tracking_per_user=tracked / observed,
            detected_per_user=(chosen == plane.real_rows).astype(float),
        )


def windows_censor(windows: np.ndarray | None, horizon: int) -> bool:
    """Whether some service's activity window misses part of ``[0, horizon)``.

    Exactly then the observation plane holds ``-1`` dead slots, and
    evaluation scores per-observed-slot rates and counts tracking inside
    each user's own window.
    """
    return windows is not None and bool(
        np.any(windows[:, 0] != 0) or np.any(windows[:, 1] != horizon)
    )


def tracked_slots(
    chosen_cells: np.ndarray,
    user_cells: np.ndarray,
    user_windows: np.ndarray | None,
    start: int = 0,
) -> tuple[np.ndarray, "np.ndarray | int"]:
    """Per-user ``(tracked, observed)`` slot counts over ``(M, width)`` columns.

    The columns are slots ``[start, start + width)``.  A user is tracked
    on a slot when the row chosen for them observes their cell there.
    With ``user_windows`` (``(M, 2)`` activity windows) only the slots
    inside a user's own window count; the chosen row's dead slots hold
    ``-1`` and never match.
    """
    equal = chosen_cells == user_cells
    if user_windows is None:
        return equal.sum(axis=1), equal.shape[1]
    slots = np.arange(start, start + equal.shape[1])
    in_window = (user_windows[:, :1] <= slots) & (slots < user_windows[:, 1:])
    return (equal & in_window).sum(axis=1), in_window.sum(axis=1)


def crowd_choices(
    detector: TrajectoryDetector,
    rngs: "list[np.random.Generator]",
    n_rows: int,
    score: "Callable[[], np.ndarray]",
    plane: str,
) -> np.ndarray:
    """Per-user decisions of a shipped detector over a plane scored here.

    The fleet paths that score ``plane`` themselves (churned, run-stacked
    and streamed planes) serve the maximum-likelihood detector, whose
    Eq. (1) scores ``score()`` computes, and the random guesser, which
    scores every row ``-inf`` and so draws uniformly; they refuse others.
    """
    if isinstance(detector, RandomGuessDetector):
        return eq1_decide(np.full(n_rows, -np.inf), rngs, 0.0)[0]
    if not isinstance(detector, MaximumLikelihoodDetector):
        raise NotImplementedError(f"detector {detector.name!r} cannot score {plane}")
    return eq1_decide(score(), rngs, detector.tolerance)[0]


class _FleetSlotKernel:
    """One-slot advancement of the fleet's placement and cost state.

    :meth:`advance` is the one slot loop: the in-memory driver
    (:func:`repro.mec.runstack.run_stacked`) and the resumable streaming
    engine (:mod:`repro.mec.streaming`) both call it window by window,
    so they are bit-identical by construction.  The kernel owns
    everything that crosses a window boundary — current cells, cost
    totals, migration counters, the placement engine, and (dynamic
    worlds) the previous slot's live mask and capacity view.
    """

    def __init__(
        self,
        simulation: "FleetSimulation",
        owners: np.ndarray,
        is_real: np.ndarray,
        placement: PlacementEngine,
    ) -> None:
        self.sim = simulation
        self.owners = owners
        self.is_real = is_real
        self.real_row_of_user = np.flatnonzero(is_real)
        self.chaff_rows = np.flatnonzero(~is_real)
        self.placement = placement
        n_users = simulation.config.n_users
        n_services = owners.size
        self.cells = np.full(n_services, -1, dtype=np.int64)
        self.mig_total = np.zeros(n_users, dtype=float)
        self.comm_total = np.zeros(n_users, dtype=float)
        self.chaff_total = np.zeros(n_users, dtype=float)
        self.migrations = np.zeros(n_users, dtype=np.int64)
        self.service_migrations = np.zeros(n_services, dtype=np.int64)
        # Activity window of every kernel user (a stacked kernel's users
        # are S copies of the fleet's); None in a frozen world.
        schedule = simulation._schedule
        self.user_windows = (
            None
            if schedule is None
            else np.tile(schedule.user_windows, (n_users // schedule.n_users, 1))
        )
        # Dynamic-world carry: the previous slot's live mask and
        # capacity view (None until the first slot has run).
        self.prev_live: np.ndarray | None = None
        self.prev_caps: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Placement hooks.  Every placement-engine touch goes through one of
    # these six methods so the run-stacked kernel
    # (:mod:`repro.mec.runstack`) can reroute them to its per-run engine
    # stack while reusing the slot bodies verbatim.  ``rows`` is the
    # subset of service rows the call concerns (``None`` = all rows);
    # the base kernel ignores it — a single episode has a single engine.
    def _place_initial_rows(
        self, rows: "np.ndarray | None", desired_sub: np.ndarray
    ) -> np.ndarray:
        return self.placement.place_initial(desired_sub)

    def _admit_rows(
        self, rows: "np.ndarray | None", desired_sub: np.ndarray
    ) -> np.ndarray:
        return self.placement.admit_arrivals(desired_sub)

    def _release_rows(self, rows: np.ndarray) -> None:
        self.placement.release(self.cells[rows])

    def _resolve_rows(
        self,
        rows: "np.ndarray | None",
        current_sub: np.ndarray,
        desired_sub: np.ndarray,
    ) -> np.ndarray:
        return self.placement.resolve_moves(current_sub, desired_sub)

    def _evict_overloaded(
        self, placed: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        return self.placement.evict_overloaded(self.cells, placed)

    def _set_capacities(self, caps_col: np.ndarray) -> None:
        self.placement.set_capacities(caps_col)

    # ------------------------------------------------------------------
    def begin_static(self, plans_col0: np.ndarray) -> None:
        """Instantiate the whole fleet at slot 0 of a frozen world."""
        self.cells = self._place_initial_rows(None, plans_col0)

    def begin_dynamic(
        self, plans_col0: np.ndarray, live0: np.ndarray, caps0: np.ndarray
    ) -> None:
        """Instantiate the initially-active services of a dynamic world."""
        self._set_capacities(caps0)
        rows0 = np.flatnonzero(live0)
        self.cells[rows0] = self._place_initial_rows(rows0, plans_col0[rows0])

    def slot_cost_totals(self) -> np.ndarray:
        """Per-user cumulative cost after the slot just advanced."""
        return self.mig_total + self.comm_total + self.chaff_total

    def _charge_moves(self, moved: np.ndarray, new_cells: np.ndarray) -> None:
        """Charge migrations ``moved`` (``self.cells`` still pre-move)."""
        model = self.sim.cost_model
        hops = self.sim._hops[self.cells[moved], new_cells]
        np.add.at(
            self.mig_total,
            self.owners[moved],
            model.migration_cost_fixed + model.migration_cost_per_hop * hops,
        )
        np.add.at(self.migrations, self.owners[moved], 1)
        self.service_migrations[moved] += 1

    # ------------------------------------------------------------------
    def advance(
        self,
        start: int,
        user_cols: np.ndarray,
        plan_cols: np.ndarray,
        histories: np.ndarray,
        per_slot: "np.ndarray | None" = None,
    ) -> None:
        """Advance the slot window ``[start, start + width)``.

        ``user_cols`` / ``plan_cols`` are the window's columns of the user
        trajectories and service plans.  Each slot's cells land in the
        matching column of ``histories`` (``-1`` where a service is
        absent) and, when given, the per-user cumulative costs in
        ``per_slot``.  The window starting at slot 0 instantiates the
        fleet first.  A dynamic world's window is read as slices of the
        simulation's compiled schedule.
        """
        schedule = self.sim._schedule
        width = user_cols.shape[1]
        if schedule is None:
            if start == 0:
                self.begin_static(plan_cols[:, 0])
        else:
            caps = schedule.capacities[start : start + width]
            slots = np.arange(start, start + width)
            windows = self.user_windows
            active_u = (windows[:, :1] <= slots) & (slots < windows[:, 1:])
            active_svc = active_u[self.owners]
            if start == 0:
                self.begin_dynamic(plan_cols[:, 0], active_svc[:, 0], caps[0])
        for local in range(width):
            if schedule is None:
                self.step_static(user_cols[:, local], plan_cols[:, local])
                histories[:, local] = self.cells
            else:
                live = active_svc[:, local]
                self.step_dynamic(
                    user_cols[:, local],
                    plan_cols[:, local],
                    live,
                    caps[local],
                    active_u[:, local],
                )
                histories[:, local] = np.where(live, self.cells, -1)
            if per_slot is not None:
                per_slot[:, local] = self.slot_cost_totals()

    def step_static(self, user_cells: np.ndarray, plan_col: np.ndarray) -> None:
        """Advance one slot of a frozen world (the original batch body)."""
        sim = self.sim
        model = sim.cost_model
        desired = plan_col.copy()
        desired[self.real_row_of_user] = sim._decide_real_targets(
            self.cells[self.real_row_of_user], user_cells
        )
        new_cells = self._resolve_rows(None, self.cells, desired)
        moved = np.flatnonzero(new_cells != self.cells)
        if moved.size:
            self._charge_moves(moved, new_cells[moved])
        self.cells = new_cells
        self.comm_total += (
            model.communication_cost_per_hop
            * sim._hops[user_cells, self.cells[self.real_row_of_user]]
        )
        np.add.at(
            self.chaff_total,
            self.owners[self.chaff_rows],
            model.chaff_running_cost,
        )

    def step_dynamic(
        self,
        user_cells: np.ndarray,
        plan_col: np.ndarray,
        live: np.ndarray,
        caps_col: np.ndarray,
        active_now: np.ndarray,
    ) -> None:
        """Advance one slot of a dynamic world.

        World transitions (departures -> capacity change and evictions ->
        arrivals) run first — skipped on the episode's very first slot,
        when no previous live mask has been carried yet — then the
        voluntary moves and cost charges, in exactly the batch engine's
        order.
        """
        sim = self.sim
        model = sim.cost_model
        if self.prev_live is not None:
            prev = self.prev_live
            departed = np.flatnonzero(prev & ~live)
            if departed.size:
                self._release_rows(departed)
                self.cells[departed] = -1
            if not np.array_equal(caps_col, self.prev_caps):
                self._set_capacities(caps_col)
                new_cells, moved = self._evict_overloaded(prev & live)
                if moved.size:
                    self._charge_moves(moved, new_cells[moved])
                    self.cells = new_cells
            arriving = np.flatnonzero(live & ~prev)
            if arriving.size:
                self.cells[arriving] = self._admit_rows(
                    arriving, plan_col[arriving]
                )
        live_rows = np.flatnonzero(live)
        desired = plan_col.copy()
        real_live = self.real_row_of_user[active_now]
        desired[real_live] = sim._decide_real_targets(
            self.cells[real_live], user_cells[active_now]
        )
        new_sub = self._resolve_rows(
            live_rows, self.cells[live_rows], desired[live_rows]
        )
        moved_sub = np.flatnonzero(new_sub != self.cells[live_rows])
        if moved_sub.size:
            self._charge_moves(live_rows[moved_sub], new_sub[moved_sub])
        self.cells[live_rows] = new_sub
        users_active = np.flatnonzero(active_now)
        self.comm_total[users_active] += (
            model.communication_cost_per_hop
            * sim._hops[
                user_cells[users_active],
                self.cells[self.real_row_of_user[users_active]],
            ]
        )
        live_chaffs = live_rows[~self.is_real[live_rows]]
        np.add.at(
            self.chaff_total, self.owners[live_chaffs], model.chaff_running_cost
        )
        self.prev_live = live.copy()
        self.prev_caps = np.asarray(caps_col).copy()


class FleetSimulation:
    """Simulates ``M`` users, their services and chaffs on one shared MEC.

    Parameters
    ----------
    topology:
        The shared deployment; site capacities are enforced.
    chain:
        The users' mobility model (shared, as in the paper's synthetic
        setting; per-user realisations differ through their seeds and
        optional start cells).
    strategy:
        One :class:`~repro.core.strategies.base.ChaffStrategy` applied to
        every user with a positive chaff budget, or a length-``M``
        sequence of per-user strategies (``None`` allowed for users
        without chaffs).
    policy:
        Migration policy of the real services (default: always-follow).
    cost_model:
        Cost model charged to every user's ledger.
    config:
        Fleet shape (users, horizon, budgets, start cells).
    timeline:
        Optional :class:`~repro.world.timeline.Timeline` of world events
        (regime switches, site failures and capacity changes, user
        churn).  An empty timeline — the default — is the frozen world,
        bit-identical to the pre-dynamic code path in both engines.
    """

    def __init__(
        self,
        topology: MECTopology,
        chain: MarkovChain,
        *,
        strategy: "ChaffStrategy | Sequence[ChaffStrategy | None] | None" = None,
        policy: MigrationPolicy | None = None,
        cost_model: CostModel | None = None,
        config: FleetSimulationConfig | None = None,
        timeline: Timeline | None = None,
    ) -> None:
        if topology.n_cells != chain.n_states:
            raise ValueError("topology and mobility model disagree on cell count")
        self.topology = topology
        self.chain = chain
        self.policy = policy or AlwaysFollowPolicy()
        self.cost_model = cost_model or CostModel()
        self.config = config or FleetSimulationConfig()
        self.strategies = self._resolve_strategies(strategy)
        self._hops = topology.hop_distance_matrix()
        self.timeline = timeline if timeline is not None else Timeline()
        schedule: WorldSchedule | None = None
        if not self.timeline.is_empty:
            schedule = self.timeline.compile(
                horizon=self.config.horizon,
                n_cells=topology.n_cells,
                n_users=self.config.n_users,
                base_capacities=topology.base_capacities(),
                base_chain=chain,
            )
            # A timeline whose events never bite within the horizon is
            # the frozen world; the static kernels are bit-identical and
            # cheaper, so use them.
            if schedule.is_static:
                schedule = None
        self._schedule = schedule
        self._stack = schedule.transition_stack() if schedule is not None else None
        if schedule is None:
            total_capacity = sum(site.capacity for site in topology.sites)
            if self.config.n_services > total_capacity:
                raise ValueError(
                    f"fleet needs {self.config.n_services} service slots but the "
                    f"deployment only has {total_capacity}; lower the population "
                    "or raise site capacities"
                )
        else:
            # Only the initial placement must fit: later arrivals spill
            # or strand, and failures evict — those are simulated
            # outcomes, not configuration errors.
            per_user = 1 + np.asarray(self.config.chaffs_per_user(), dtype=np.int64)
            initially_active = schedule.user_windows[:, 0] == 0
            initial_services = int(per_user[initially_active].sum())
            slot0_capacity = int(schedule.capacities[0].sum())
            if initial_services > slot0_capacity:
                raise ValueError(
                    f"slot 0 hosts {initial_services} services but the world "
                    f"only offers {slot0_capacity} slots there; lower the "
                    "initially active population or soften the timeline"
                )
        if self.config.start_cells is not None:
            cells = np.asarray(self.config.start_cells, dtype=np.int64)
            if cells.size and (cells.min() < 0 or cells.max() >= topology.n_cells):
                raise ValueError("start_cells contains cells outside the topology")

    def _resolve_strategies(
        self, strategy: "ChaffStrategy | Sequence[ChaffStrategy | None] | None"
    ) -> list[ChaffStrategy | None]:
        budgets = self.config.chaffs_per_user()
        if strategy is None or isinstance(strategy, ChaffStrategy):
            strategies = [strategy] * self.config.n_users
        else:
            strategies = list(strategy)
            if len(strategies) != self.config.n_users:
                raise ValueError("need one strategy (or None) per user")
        for user, (budget, chosen) in enumerate(zip(budgets, strategies, strict=True)):
            if budget > 0 and chosen is None:
                raise ValueError(
                    f"user {user} has {budget} chaffs but no chaff strategy"
                )
        return strategies

    # ------------------------------------------------------------------
    def run(
        self,
        seed: "int | np.random.SeedSequence",
        *,
        engine: str = "batch",
        chunk_slots: int = 64,
        regions: int = 1,
        region_workers: int = 1,
        recorder=NULL_RECORDER,
    ) -> FleetReport:
        """Execute one fleet run.

        ``engine="batch"`` (default) and ``engine="stream"`` run a stack of
        one through :meth:`run_stacked`: batch advances the whole horizon
        as one window, stream advances ``chunk_slots``-sized windows with
        bounded sampling blocks, optionally sharding placement over
        ``regions`` topology regions (``region_workers`` threads).
        ``engine="loop"`` is the naive per-service Python reference.  All
        three are bit-identical for the same ``seed`` — the streaming
        knobs change execution, never results.
        """
        if engine not in FLEET_ENGINES:
            raise ValueError(f"engine must be one of {FLEET_ENGINES}, got {engine!r}")
        if engine == "loop":
            return self._run_loop(*self._episode_streams(seed), recorder=recorder)
        return self.run_stacked(
            [seed],
            engine=engine,
            chunk_slots=chunk_slots,
            regions=regions,
            region_workers=region_workers,
            recorder=recorder,
        ).to_reports()[0]

    def run_stacked(
        self,
        seeds: "Sequence[int | np.random.SeedSequence]",
        *,
        engine: str = "batch",
        chunk_slots: int = 64,
        regions: int = 1,
        region_workers: int = 1,
        collect_per_slot: bool = True,
        recorder=NULL_RECORDER,
    ):
        """Execute a stack of fleet runs as one pass of the slot kernel.

        The per-slot state machine advances ``(S * N)``-wide tensors
        instead of ``N``-wide ones — every run's RNG draws still come
        from that run's own SeedSequence children in the canonical
        order, so the resulting :class:`StackedRunOutcome` is
        bit-identical to running each seed through :meth:`run`.
        ``engine`` accepts ``"batch"`` and ``"stream"`` (the per-service
        ``"loop"`` reference has no stacked form; Monte-Carlo callers
        run it episode by episode).
        """
        # Deferred import: the run-stacked engine builds on this module.
        from .runstack import run_stacked as _run_stacked

        return _run_stacked(
            self,
            list(seeds),
            engine=engine,
            chunk_slots=chunk_slots,
            regions=regions,
            region_workers=region_workers,
            collect_per_slot=collect_per_slot,
            recorder=recorder,
        )

    # ------------------------------------------------------------------
    # Shared pieces
    # ------------------------------------------------------------------
    def _episode_streams(self, seed: "int | np.random.SeedSequence") -> tuple[
        list[np.random.Generator], np.random.Generator, np.random.SeedSequence
    ]:
        """``(user_rngs, shuffle_rng, evaluation_seed)`` of one run.

        One child per user, then one for the observation shuffle and
        one for detector evaluation — the canonical layout every engine
        draws from.
        """
        n_users = self.config.n_users
        children = as_seed_sequence(seed).spawn(n_users + 2)
        user_rngs = [np.random.default_rng(child) for child in children[:n_users]]
        return user_rngs, np.random.default_rng(children[n_users]), children[-1]

    def _presentation_order(
        self, shuffle_rng: np.random.Generator, n_services: int
    ) -> np.ndarray:
        """The observation plane's row order: one draw from the shuffle child."""
        if self.config.shuffle_observations:
            return shuffle_rng.permutation(n_services)
        return np.arange(n_services)

    def _service_layout(
        self, budgets: tuple[int, ...]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-service (owner, is_real, service_id) arrays in id order.

        Services are allocated user by user — real first, then that
        user's chaffs — from one fleet-scoped
        :class:`~repro.mec.service.ServiceIdAllocator`.
        """
        allocator = ServiceIdAllocator()
        owners: list[int] = []
        is_real: list[bool] = []
        ids: list[int] = []
        for user, budget in enumerate(budgets):
            for index in range(1 + budget):
                owners.append(user)
                is_real.append(index == 0)
                ids.append(allocator.allocate())
        return (
            np.asarray(owners, dtype=np.int64),
            np.asarray(is_real, dtype=bool),
            np.asarray(ids, dtype=np.int64),
        )

    def _sample_user(
        self, user: int, rng: np.random.Generator
    ) -> tuple[int, np.ndarray]:
        """One user's trajectory randomness in the canonical draw order."""
        horizon = self.config.horizon
        if self.config.start_cells is not None:
            initial = int(self.config.start_cells[user])
            uniforms = (
                rng.random(horizon - 1) if horizon > 1 else np.empty(0, dtype=float)
            )
            return initial, uniforms
        return self.chain.sample_trajectory_randomness(horizon, rng)

    def _sample_block(
        self,
        run_rngs: "list[list[np.random.Generator]]",
        start: int,
        stop: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample users ``[start, stop)`` of a stack of runs, with plans.

        ``run_rngs`` holds each run's per-user generators.  Returns
        ``(users, plans)``, both run-major: the ``(S * count, T)`` user
        trajectories and the block's service plans in service-id order
        (each user's real row holds the user's own trajectory as a
        placeholder; real targets are policy-driven per slot).  All
        trajectories evolve in one vectorised shot, and each (strategy,
        budget) group's chaffs come from one ``generate_batch`` call
        across the stack.  Every user's draws come only from that user's
        generator — trajectory randomness first, then chaffs — so any
        blocking or stacking of the fleet is bit-identical to sampling
        each run whole (:meth:`_sample_bounded` walks bounded blocks).
        """
        horizon = self.config.horizon
        budgets = self.config.chaffs_per_user()[start:stop]
        count = stop - start
        stack_size = len(run_rngs)
        initial = np.empty(stack_size * count, dtype=np.int64)
        uniforms = np.empty((stack_size * count, max(horizon - 1, 0)), dtype=float)
        for run, rngs in enumerate(run_rngs):
            for position in range(count):
                initial[run * count + position], uniforms[run * count + position] = (
                    self._sample_user(start + position, rngs[start + position])
                )
        users = self.chain.evolve_from_uniforms(
            initial, uniforms, transition_stack=self._stack
        )
        per_user = 1 + np.asarray(budgets, dtype=np.int64)
        first_row = np.concatenate([[0], np.cumsum(per_user[:-1])]).astype(np.int64)
        rows_per_run = int(per_user.sum())
        run_base = np.arange(stack_size, dtype=np.int64)[:, None] * rows_per_run
        plans = np.empty((stack_size * rows_per_run, horizon), dtype=np.int64)
        plans[(run_base + first_row).ravel()] = users
        groups: dict[tuple[int, int], list[int]] = {}
        for position, budget in enumerate(budgets):
            if budget > 0:
                groups.setdefault(
                    (id(self.strategies[start + position]), budget), []
                ).append(position)
        for (_, budget), members in groups.items():
            strategy = self.strategies[start + members[0]]
            assert strategy is not None  # groups only hold budget > 0 users
            positions = np.asarray(members, dtype=np.int64)
            chaffs = strategy.generate_batch(
                self.chain,
                users[(np.arange(stack_size)[:, None] * count + positions).ravel()],
                budget,
                [rngs[start + position] for rngs in run_rngs for position in members],
            )
            first_chaff = (run_base + first_row[positions]).ravel() + 1
            rows = (first_chaff[:, None] + np.arange(budget)).ravel()
            plans[rows] = chaffs.reshape(-1, horizon)
        return users, plans

    def _sample_bounded(
        self,
        rngs: "list[np.random.Generator]",
        users_out: np.ndarray,
        plans_out: np.ndarray,
    ) -> None:
        """Sample the whole fleet into ``users_out`` / ``plans_out`` in
        user blocks of at most ``_BLOCK_TARGET_ELEMS`` plan elements, so
        the sampler's working set stays bounded whatever ``M`` is."""
        horizon = self.config.horizon
        n_users = self.config.n_users
        widest = 1 + max(self.config.chaffs_per_user())
        block = max(1, _BLOCK_TARGET_ELEMS // max(horizon * widest, 1))
        row = 0
        for start in range(0, n_users, block):
            stop = min(start + block, n_users)
            users_block, plans_block = self._sample_block([rngs], start, stop)
            users_out[start:stop] = users_block
            plans_out[row : row + plans_block.shape[0]] = plans_block
            row += plans_block.shape[0]

    def _decide_real_targets(
        self, service_cells: np.ndarray, user_cells: np.ndarray
    ) -> np.ndarray:
        """Vectorised migration-policy decisions for all real services.

        The four shipped policies are pure functions of the (service,
        user) hop distance, so they reduce to array lookups on the hop
        matrix; unknown policy classes fall back to per-user
        ``policy.decide`` calls.
        """
        policy = self.policy
        if isinstance(policy, AlwaysFollowPolicy):
            return user_cells.copy()
        if isinstance(policy, NeverMigratePolicy):
            return service_cells.copy()
        hops = self._hops[service_cells, user_cells]
        if isinstance(policy, DistanceThresholdPolicy):
            return np.where(hops > policy.threshold, user_cells, service_cells)
        if isinstance(policy, MDPMigrationPolicy):
            profile = policy.migrate_threshold_profile
            clamped = np.minimum(hops, profile.size - 1)
            return np.where(profile[clamped], user_cells, service_cells)
        return np.array(
            [
                policy.decide(self.topology, int(cell), int(user_cell))
                for cell, user_cell in zip(service_cells, user_cells, strict=True)
            ],
            dtype=np.int64,
        )

    def _build_report(
        self,
        users: np.ndarray,
        histories: np.ndarray,
        owners: np.ndarray,
        is_real: np.ndarray,
        service_ids: np.ndarray,
        service_migrations: np.ndarray,
        ledgers: list[CostLedger],
        placement: PlacementStats,
        evaluation_seed: np.random.SeedSequence,
        svc_windows: np.ndarray | None,
        order: np.ndarray,
    ) -> FleetReport:
        # A churned service's final cell is the last one it occupied (its
        # history keeps -1 on the slots where it did not exist).
        if svc_windows is None:
            last_slot = np.full(histories.shape[0], histories.shape[1] - 1)
            created = np.zeros(histories.shape[0], dtype=np.int64)
        else:
            last_slot = svc_windows[:, 1] - 1
            created = svc_windows[:, 0]
        services = [
            ServiceInstance(
                service_id=int(service_ids[row]),
                owner_id=int(owners[row]),
                kind=ServiceKind.REAL if is_real[row] else ServiceKind.CHAFF,
                cell=int(histories[row, last_slot[row]]),
                created_at=int(created[row]),
                location_history=histories[row].tolist(),
                migration_count=int(service_migrations[row]),
            )
            for row in range(histories.shape[0])
        ]
        row_of_service = np.empty_like(order)
        row_of_service[order] = np.arange(order.size)
        real_rows = row_of_service[np.flatnonzero(is_real)]
        plane = FleetObservationPlane(
            trajectories=histories[order],
            service_ids=service_ids[order],
            owner_ids=owners[order],
            real_rows=real_rows,
        )
        return FleetReport(
            user_trajectories=users,
            observations=plane,
            ledgers=ledgers,
            services=services,
            placement=placement,
            evaluation_seed=evaluation_seed,
            windows=None if svc_windows is None else svc_windows[order],
            transition_stack=self._stack,
        )

    # ------------------------------------------------------------------
    # Loop engine: naive per-service reference path
    # ------------------------------------------------------------------
    def _run_loop(
        self,
        user_rngs: list[np.random.Generator],
        shuffle_rng: np.random.Generator,
        evaluation_seed: np.random.SeedSequence,
        recorder=NULL_RECORDER,
    ) -> FleetReport:
        config = self.config
        n_users, horizon = config.n_users, config.horizon
        budgets = config.chaffs_per_user()
        owners, is_real, service_ids = self._service_layout(budgets)
        n_services = owners.size
        model = self.cost_model

        users = np.empty((n_users, horizon), dtype=np.int64)
        plans = np.empty((n_services, horizon), dtype=np.int64)
        real_row_of_user = np.flatnonzero(is_real)
        sample_span = recorder.span("kernel/sample", engine="loop", users=n_users)
        with sample_span:
            for user, rng in enumerate(user_rngs):
                if config.start_cells is not None:
                    users[user] = self.chain.sample_trajectory(
                        horizon,
                        rng,
                        initial_state=int(config.start_cells[user]),
                        transition_stack=self._stack,
                    )
                else:
                    users[user] = self.chain.sample_trajectory(
                        horizon, rng, transition_stack=self._stack
                    )
                budget = budgets[user]
                if budget > 0:
                    first = real_row_of_user[user] + 1
                    plans[first : first + budget] = self.strategies[user].generate(
                        self.chain, users[user], budget, rng
                    )
            plans[real_row_of_user] = users

        schedule = self._schedule
        placement = PlacementEngine(self.topology)
        service_migrations = np.zeros(n_services, dtype=np.int64)
        ledgers = [CostLedger() for _ in range(n_users)]
        svc_windows: np.ndarray | None = None
        placement_token = recorder.begin(
            "kernel/placement", engine="loop", slots=horizon
        )
        if schedule is None:
            cells = np.empty(n_services, dtype=np.int64)
            for row in range(n_services):
                cells[row] = placement.place_initial(plans[row : row + 1, 0])[0]
            histories = np.empty((n_services, horizon), dtype=np.int64)
        else:
            caps = schedule.capacities
            active_u = schedule.active_users()
            active_svc = active_u[owners]
            svc_windows = schedule.user_windows[owners]
            placement.set_capacities(caps[0])
            cells = np.full(n_services, -1, dtype=np.int64)
            for row in range(n_services):
                if active_svc[row, 0]:
                    cells[row] = placement.place_initial(plans[row : row + 1, 0])[0]
            histories = np.full((n_services, horizon), -1, dtype=np.int64)
        for slot in range(horizon):
            if schedule is not None and slot > 0:
                # World transitions, one naive walk per phase: departures
                # free slots, then the new capacity view evicts, then
                # arrivals are admitted — same order as the batch kernel.
                for row in range(n_services):
                    if active_svc[row, slot - 1] and not active_svc[row, slot]:
                        placement.release(cells[row : row + 1])
                        cells[row] = -1
                if not np.array_equal(caps[slot], caps[slot - 1]):
                    placement.set_capacities(caps[slot])
                    new_cells, moved = placement.evict_overloaded(
                        cells, active_svc[:, slot - 1] & active_svc[:, slot]
                    )
                    for row in moved:
                        row = int(row)
                        ledger = ledgers[int(owners[row])]
                        ledger.count_migration()
                        ledger.charge_migration(
                            model.migration_cost(
                                self.topology, int(cells[row]), int(new_cells[row])
                            )
                        )
                        service_migrations[row] += 1
                    cells = new_cells
                for row in range(n_services):
                    if active_svc[row, slot] and not active_svc[row, slot - 1]:
                        cells[row] = placement.admit_arrivals(
                            plans[row : row + 1, slot]
                        )[0]
            for row in range(n_services):
                if schedule is not None and not active_svc[row, slot]:
                    continue
                owner = int(owners[row])
                ledger = ledgers[owner]
                user_cell = int(users[owner, slot])
                if is_real[row]:
                    target = self.policy.decide(
                        self.topology, int(cells[row]), user_cell
                    )
                else:
                    target = int(plans[row, slot])
                placed = placement.resolve_moves(
                    cells[row : row + 1], np.array([target], dtype=np.int64)
                )[0]
                if placed != cells[row]:
                    ledger.count_migration()
                    ledger.charge_migration(
                        model.migration_cost(
                            self.topology, int(cells[row]), int(placed)
                        )
                    )
                    service_migrations[row] += 1
                    cells[row] = placed
                if is_real[row]:
                    ledger.charge_communication(
                        model.communication_cost(
                            self.topology, user_cell, int(cells[row])
                        )
                    )
                else:
                    ledger.charge_chaff(model.chaff_running_cost)
                histories[row, slot] = cells[row]
            for ledger in ledgers:
                ledger.close_slot()
        recorder.end(placement_token)
        recorder.record_stats("placement", placement.stats.as_dict())
        return self._build_report(
            users,
            histories,
            owners,
            is_real,
            service_ids,
            service_migrations,
            ledgers,
            placement.stats,
            evaluation_seed,
            svc_windows,
            self._presentation_order(shuffle_rng, n_services),
        )


# ----------------------------------------------------------------------
# Fleet Monte-Carlo: run sharding through the parallel layer
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FleetStatistics:
    """Aggregated outcomes of ``R`` independent fleet runs.

    The per-run matrices are kept (runs in seed order) so equivalence
    tests can assert bit-identity between serial and sharded execution.
    """

    tracking_runs: np.ndarray
    detection_runs: np.ndarray
    cost_runs: np.ndarray
    migrations_runs: np.ndarray
    rejected_runs: np.ndarray
    spilled_runs: np.ndarray
    evicted_runs: np.ndarray
    stranded_runs: np.ndarray

    @classmethod
    def from_runs(cls, runs: "Sequence[tuple]") -> "FleetStatistics":
        """Stack per-run metric tuples (:func:`_episode_metrics`'s layout)
        in run order."""
        tracking, detection, cost, *counts = zip(*runs, strict=True)
        return cls(
            np.stack(tracking, axis=0),
            np.stack(detection, axis=0),
            np.stack(cost, axis=0),
            *(np.array(count, dtype=np.int64) for count in counts),
        )

    @property
    def n_runs(self) -> int:
        """Number of Monte-Carlo fleet runs ``R``."""
        return int(self.tracking_runs.shape[0])

    @property
    def n_users(self) -> int:
        """Number of users ``M`` per run."""
        return int(self.tracking_runs.shape[1])

    @property
    def tracking_per_user(self) -> np.ndarray:
        """Mean tracking accuracy per user across runs."""
        return self.tracking_runs.mean(axis=0)

    @property
    def detection_per_user(self) -> np.ndarray:
        """Mean detection accuracy per user across runs."""
        return self.detection_runs.mean(axis=0)

    @property
    def cost_per_user(self) -> np.ndarray:
        """Mean total cost per user across runs."""
        return self.cost_runs.mean(axis=0)

    @property
    def mean_tracking(self) -> float:
        """Fleet-wide mean tracking accuracy."""
        return float(self.tracking_runs.mean())

    @property
    def mean_detection(self) -> float:
        """Fleet-wide mean detection accuracy."""
        return float(self.detection_runs.mean())

    @property
    def mean_cost_per_user(self) -> float:
        """Fleet-wide mean per-user cost."""
        return float(self.cost_runs.mean())

    @property
    def mean_migrations(self) -> float:
        """Mean fleet-wide migration count per run."""
        return float(self.migrations_runs.mean())

    @property
    def mean_rejected(self) -> float:
        """Mean rejected placement requests per run (capacity pressure)."""
        return float(self.rejected_runs.mean())

    @property
    def mean_spilled(self) -> float:
        """Mean spilled placement requests per run."""
        return float(self.spilled_runs.mean())

    @property
    def mean_evicted(self) -> float:
        """Mean forced evictions per run (failures / capacity shocks)."""
        return float(self.evicted_runs.mean())

    @property
    def mean_stranded(self) -> float:
        """Mean stranded placements per run (nowhere to evict/admit to)."""
        return float(self.stranded_runs.mean())


def _episode_metrics(
    simulation: FleetSimulation,
    report: FleetReport,
    detector: TrajectoryDetector,
    recorder=NULL_RECORDER,
) -> tuple:
    """The per-run metric tuple of one evaluated episode."""
    with recorder.span("kernel/detect"):
        evaluation = report.evaluate(simulation.chain, detector)
    return (
        evaluation.tracking_per_user,
        evaluation.detected_per_user,
        report.per_user_cost,
        report.total_migrations,
        report.placement.rejected,
        report.placement.spilled,
        report.placement.evicted,
        report.placement.stranded,
    )


def validate_execution_options(
    engine: str, chunk_slots: int, regions: int, run_stack: int
) -> None:
    """Reject bad Monte-Carlo execution options before any pool starts."""
    if engine not in FLEET_ENGINES:
        raise ValueError(f"engine must be one of {FLEET_ENGINES}, got {engine!r}")
    for name, value in (
        ("chunk_slots", chunk_slots),
        ("regions", regions),
        ("run_stack", run_stack),
    ):
        if value < 1:
            raise ValueError(f"{name} must be positive, got {value}")


def _fleet_shard_worker(task) -> "tuple[list[tuple], dict | None]":
    """Replay one contiguous shard of the fleet runs (module-level for pools).

    The simulation itself travels through the parallel layer's shared
    channel (shipped once per worker), not inside every task tuple.
    When the parent recorded telemetry it ships a picklable
    ``RecorderSpec`` in the task; the worker rebuilds a local recorder
    from it and returns the recorded state alongside the metric tuples
    so the parent can merge it with worker attribution.
    """
    from .runstack import supports_fast_metrics

    (
        detector,
        seed,
        start,
        stop,
        engine,
        chunk_slots,
        regions,
        run_stack,
        spec,
    ) = task
    recorder = NULL_RECORDER if spec is None else spec.build()
    simulation: FleetSimulation = get_shared()
    metrics = []
    children = spawn_sequences_range(seed, start, stop)
    shard_token = recorder.begin("shard", start=start, stop=stop, engine=engine)
    if engine == "loop":
        # The per-service reference has no stacked form; run_stack is
        # execution-only, so playing it episode by episode changes nothing.
        for child in children:
            report = simulation.run(child, engine="loop", recorder=recorder)
            metrics.append(_episode_metrics(simulation, report, detector, recorder))
    else:
        # Vectorised scoring reads the kernel's running cost totals, so
        # the per-(user, slot) ledger plane is dead weight there — skip it.
        collect = not supports_fast_metrics(detector)
        for base in range(0, len(children), run_stack):
            outcome = simulation.run_stacked(
                children[base : base + run_stack],
                engine=engine,
                chunk_slots=chunk_slots,
                regions=regions,
                collect_per_slot=collect,
                recorder=recorder,
            )
            metrics.extend(outcome.to_metrics(detector, recorder=recorder))
    recorder.end(shard_token)
    recorder.counter("montecarlo/episodes", stop - start)
    return metrics, (recorder.to_state() if spec is not None else None)


def run_fleet_monte_carlo(
    simulation: FleetSimulation,
    *,
    n_runs: int,
    seed: "int | np.random.SeedSequence",
    detector: TrajectoryDetector | None = None,
    workers: int = 1,
    engine: str = "batch",
    chunk_slots: int = 64,
    regions: int = 1,
    run_stack: int = 1,
    recorder=NULL_RECORDER,
) -> FleetStatistics:
    """Monte-Carlo a fleet simulation, optionally sharded over workers.

    Every run derives from child ``k`` of ``seed`` regardless of the
    worker count (workers respawn their shard's children by index, as in
    :mod:`repro.sim.parallel`), so ``workers=N`` is bit-identical to
    serial execution for any ``N`` (``0`` = all cores).  ``chunk_slots``
    and ``regions`` only apply to ``engine="stream"``; ``run_stack``
    folds that many episodes of a shard into one pass of the slot
    kernel (:meth:`FleetSimulation.run_stacked`).  Like the engine and
    worker count, none of these execution knobs ever change the numbers;
    all of them are validated here, before any worker starts.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be positive")
    validate_execution_options(engine, chunk_slots, regions, run_stack)
    detector = detector or MaximumLikelihoodDetector()
    workers = min(resolve_workers(workers), n_runs)
    knowledge = getattr(detector, "knowledge", None)
    if workers > 1 and getattr(knowledge, "stateful", False):
        # Each pool worker would learn only from its own shard, so the
        # numbers would depend on the worker count — the one thing this
        # function promises they never do.
        raise ValueError(
            "a learning (stateful) detector cannot be sharded over "
            "workers; use repro.adversary.run_adversary_monte_carlo, "
            "which parallelises the simulation but replays the episodes "
            "serially in run order"
        )
    spec = recorder.spawn_spec() if recorder.enabled else None
    tasks = [
        (
            detector,
            seed,
            shard.start,
            shard.stop,
            engine,
            chunk_slots,
            regions,
            run_stack,
            spec,
        )
        for shard in shard_slices(n_runs, workers)
    ]
    mc_token = recorder.begin(
        "montecarlo/fleet", runs=n_runs, workers=workers, engine=engine
    )
    shards = parallel_map(
        _fleet_shard_worker,
        tasks,
        workers=len(tasks),
        shared=simulation,
        recorder=recorder,
    )
    recorder.end(mc_token)
    for index, (_, state) in enumerate(shards):
        if state is not None:
            recorder.merge(state, worker=index + 1)
    return FleetStatistics.from_runs([run for shard, _ in shards for run in shard])
