"""Multi-user, capacity-aware MEC fleet simulation: the one MEC simulator.

The paper's system view (Section II) is one user, their real service, its
chaffs and an eavesdropper watching migrations between MECs.  Its threat
model, however, lives in a *shared* deployment: many users' services
co-hosted on the same edge sites, competing for site capacity, and all
visible on one observation plane.  This module simulates that regime, and
the single-user setting is its ``M = 1`` case:

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

The two engines, ``"batch"`` (default) and ``"stream"``, produce
bit-identical results for the same seed.  Both are a stack of one run of
:func:`repro.mec.runstack.run_stacked`, the one in-memory driver: it
samples through the batched APIs
(:meth:`MarkovChain.sample_trajectories_batch`,
:meth:`ChaffStrategy.generate_batch`) in packed blocks of whole runs,
written in place into the stacked planes
(:meth:`FleetSimulation._sample_runs`), and advances
:class:`_FleetSlotKernel` through its single slot loop,
:meth:`_FleetSlotKernel.advance`.  Evaluation breaks Eq. (1) ties with
per-user generators of the run's evaluation seed, spawned only when a
plane has a tie
(:class:`~repro.core.eavesdropper.scoring.TieBreakGenerators`).  The
naive per-user/per-service Python walk that the equivalence tests and
the speedup benchmarks compare against lives with the tests, in
``tests/reference/``.

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

from dataclasses import astuple, dataclass, field
from typing import Sequence

import numpy as np

from ..core.eavesdropper.detector import MaximumLikelihoodDetector, TrajectoryDetector
from ..core.eavesdropper.scoring import TieBreakGenerators
from ..core.strategies.base import ChaffStrategy
from ..mobility.markov import MarkovChain
from ..sim.cache import EpisodeStore
from ..sim.parallel import get_shared, parallel_map, resolve_workers, shard_slices
from ..sim.seeding import as_seed_sequence, spawn_sequences_range
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
from .service import ServiceInstance, ServiceKind
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
FLEET_ENGINES = ("batch", "stream")

#: Target element budget of one sampling block (runs x services x horizon):
#: whole runs are packed up to it, a larger run is split into user ranges,
#: so the sampler's heap stays roughly constant in ``S``, ``M`` and ``T``.
_BLOCK_TARGET_ELEMS = 1 << 20

#: Elements above which :func:`materialise_full_plane` refuses to allocate.
#: Sized so every plane the small-``M`` test and experiment configurations
#: materialise fits comfortably, while a city-scale ``(M, N, T)`` crowd
#: plane (the thing the store-backed driver exists to avoid) trips it.
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
    Store-backed consumers iterate chunk planes instead and never hit this.
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
        plane = self.observations
        traj = plane.trajectories
        chosen = detector.detect_crowd(
            chain,
            traj,
            TieBreakGenerators(seed, self.n_users),
            transition_stack=self.transition_stack,
        )
        masked = windows_censor(self.windows, self.horizon)
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


class _FleetSlotKernel:
    """One-slot advancement of the fleet's placement and cost state.

    :meth:`advance` is the one slot loop: the fleet driver
    (:func:`repro.mec.runstack.run_stacked`) calls it window by window,
    in memory or spilling each window to an episode store, so every
    window size is bit-identical by construction.  The kernel owns
    everything that crosses a window boundary — current cells, cost
    totals, migration counters, the placement engine, and (dynamic
    worlds) the previous slot's live mask and capacity view — and
    :meth:`carry` / :meth:`restore` snapshot and reinstate exactly that.
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

    def carry(self) -> dict[str, np.ndarray]:
        """Everything that crosses a window boundary, as named arrays."""
        placement = self.placement
        arrays = {
            "cells": self.cells,
            "mig_total": self.mig_total,
            "comm_total": self.comm_total,
            "chaff_total": self.chaff_total,
            "migrations": self.migrations,
            "service_migrations": self.service_migrations,
            "load": placement.load,
            "capacities": placement.capacities,
            "placement_stats": np.asarray(astuple(placement.stats), dtype=np.int64),
        }
        if self.prev_live is not None:
            arrays["prev_live"] = self.prev_live.astype(np.uint8)
            arrays["prev_caps"] = self.prev_caps
        return arrays

    def restore(self, carry: "dict[str, np.ndarray]") -> None:
        """Reinstate a :meth:`carry` snapshot."""
        self.cells = carry["cells"].astype(np.int64)
        self.mig_total = carry["mig_total"].astype(float)
        self.comm_total = carry["comm_total"].astype(float)
        self.chaff_total = carry["chaff_total"].astype(float)
        self.migrations = carry["migrations"].astype(np.int64)
        self.service_migrations = carry["service_migrations"].astype(np.int64)
        if "prev_live" in carry:
            self.prev_live = carry["prev_live"].astype(bool)
            self.prev_caps = carry["prev_caps"].astype(np.int64)
        placement = self.placement
        placement.load = carry["load"].astype(np.int64)
        placement.capacities = carry["capacities"].astype(np.int64)
        counters = carry["placement_stats"].astype(np.int64)
        placement.stats = PlacementStats(*(int(value) for value in counters))

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
        recorder=NULL_RECORDER,
    ) -> FleetReport:
        """Execute one fleet run.

        ``engine="batch"`` (default) and ``engine="stream"`` run a stack of
        one through :meth:`run_stacked`: batch advances the whole horizon
        as one window, stream advances ``chunk_slots``-sized windows.
        Both are bit-identical for the same ``seed`` — the window size
        changes execution, never results.
        """
        return self.run_stacked(
            [seed], engine=engine, chunk_slots=chunk_slots, recorder=recorder
        ).to_reports()[0]

    def run_stacked(
        self,
        seeds: "Sequence[int | np.random.SeedSequence]",
        *,
        engine: str = "batch",
        chunk_slots: int = 64,
        collect_per_slot: bool = True,
        store: EpisodeStore | None = None,
        recorder=NULL_RECORDER,
    ):
        """Execute a stack of fleet runs as one pass of the slot kernel.

        The per-slot state machine advances ``(S * N)``-wide tensors
        instead of ``N``-wide ones — every run's RNG draws still come
        from that run's own SeedSequence children in the canonical
        order, so the resulting :class:`StackedRunOutcome` is
        bit-identical to running each seed through :meth:`run`.
        ``engine`` accepts ``"batch"`` and ``"stream"``; a ``store``
        (one seed only) spills the episode to disk and returns a
        :class:`~repro.mec.streaming.StreamingFleetReport`, see
        :func:`repro.mec.runstack.run_stacked`.
        """
        # Deferred import: the run-stacked engine builds on this module.
        from .runstack import run_stacked as _run_stacked

        return _run_stacked(
            self,
            list(seeds),
            engine=engine,
            chunk_slots=chunk_slots,
            collect_per_slot=collect_per_slot,
            store=store,
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

        Services are laid out user by user — real first, then that
        user's chaffs — and numbered ``0 … n − 1`` in that order.
        """
        per_user = 1 + np.asarray(budgets, dtype=np.int64)
        owners = np.repeat(np.arange(per_user.size, dtype=np.int64), per_user)
        is_real = np.zeros(owners.size, dtype=bool)
        is_real[np.cumsum(per_user) - per_user] = True
        return owners, is_real, np.arange(owners.size, dtype=np.int64)

    def _sample_runs(
        self,
        run_rngs: "list[list[np.random.Generator]]",
        users_out: np.ndarray,
        plans_out: np.ndarray,
    ) -> None:
        """Phase A: sample a stack of runs straight into its planes.

        ``run_rngs`` holds each run's per-user generators; ``users_out`` is
        the run-major ``(S * M, T)`` user plane and ``plans_out`` the
        ``(S * N, T)`` service plans in service-id order (a user's real row
        holds the user's trajectory as a placeholder), both written in
        place (memmaps too).  Whole runs are packed into one block while
        ``runs * N * T <= _BLOCK_TARGET_ELEMS``; a larger run is split into
        user ranges of at most that many plan elements.  Every user draws
        only from their own generator — trajectory first, then chaffs —
        so any blocking is bit-identical to sampling each run whole.
        """
        horizon = self.config.horizon
        n_users = self.config.n_users
        per_user = 1 + np.asarray(self.config.chaffs_per_user(), dtype=np.int64)
        first_row = np.concatenate([[0], np.cumsum(per_user)])
        n_services = int(first_row[-1])
        runs_per_block = _BLOCK_TARGET_ELEMS // (n_services * horizon)
        users_per_block = n_users
        if runs_per_block == 0:
            runs_per_block = 1
            users_per_block = max(
                1, _BLOCK_TARGET_ELEMS // (horizon * int(per_user.max()))
            )
        for first in range(0, len(run_rngs), runs_per_block):
            last = min(first + runs_per_block, len(run_rngs)) - 1
            for start in range(0, n_users, users_per_block):
                stop = min(start + users_per_block, n_users)
                # Rows of users [start, stop) of runs first..last: contiguous
                # whether the block holds whole runs or one run's range.
                plan_start = first * n_services + first_row[start]
                plan_stop = last * n_services + first_row[stop]
                self._sample_block(
                    run_rngs[first : last + 1],
                    start,
                    stop,
                    users_out[first * n_users + start : last * n_users + stop],
                    plans_out[plan_start:plan_stop],
                )

    def _sample_block(
        self,
        run_rngs: "list[list[np.random.Generator]]",
        start: int,
        stop: int,
        users: np.ndarray,
        plans: np.ndarray,
    ) -> None:
        """Sample users ``[start, stop)`` of a stack of runs into ``users`` / ``plans``.

        Every trajectory comes from one
        :meth:`~repro.mobility.markov.MarkovChain.sample_trajectories_batch`
        call, and each (strategy, budget) group's chaffs from one
        ``generate_batch`` call across the stack.
        """
        horizon = self.config.horizon
        budgets = self.config.chaffs_per_user()[start:stop]
        count = stop - start
        stack_size = len(run_rngs)
        start_cells = self.config.start_cells
        self.chain.sample_trajectories_batch(
            horizon,
            [rngs[user] for rngs in run_rngs for user in range(start, stop)],
            start_cells=(
                None
                if start_cells is None
                else np.tile(np.asarray(start_cells[start:stop]), stack_size)
            ),
            transition_stack=self._stack,
            out=users,
        )
        per_user = 1 + np.asarray(budgets, dtype=np.int64)
        first_row = np.concatenate([[0], np.cumsum(per_user[:-1])]).astype(np.int64)
        rows_per_run = int(per_user.sum())
        run_base = np.arange(stack_size, dtype=np.int64)[:, None] * rows_per_run
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


def validate_execution_options(engine: str, chunk_slots: int, run_stack: int) -> None:
    """Reject bad execution options (before any pool starts, for Monte-Carlo)."""
    if engine not in FLEET_ENGINES:
        raise ValueError(f"engine must be one of {FLEET_ENGINES}, got {engine!r}")
    for name, value in (("chunk_slots", chunk_slots), ("run_stack", run_stack)):
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
    (
        detector,
        seed,
        start,
        stop,
        engine,
        chunk_slots,
        run_stack,
        spec,
    ) = task
    recorder = NULL_RECORDER if spec is None else spec.build()
    simulation: FleetSimulation = get_shared()
    metrics = []
    children = spawn_sequences_range(seed, start, stop)
    shard_token = recorder.begin("shard", start=start, stop=stop, engine=engine)
    # Metrics read the kernel's running cost totals, so the per-(user,
    # slot) ledger plane is dead weight here — skip it.
    for base in range(0, len(children), run_stack):
        outcome = simulation.run_stacked(
            children[base : base + run_stack],
            engine=engine,
            chunk_slots=chunk_slots,
            collect_per_slot=False,
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
    run_stack: int = 1,
    recorder=NULL_RECORDER,
) -> FleetStatistics:
    """Monte-Carlo a fleet simulation, optionally sharded over workers.

    Every run derives from child ``k`` of ``seed`` regardless of the
    worker count (workers respawn their shard's children by index, as in
    :mod:`repro.sim.parallel`), so ``workers=N`` is bit-identical to
    serial execution for any ``N`` (``0`` = all cores).  ``chunk_slots``
    only applies to ``engine="stream"``; ``run_stack``
    folds that many episodes of a shard into one pass of the slot
    kernel (:meth:`FleetSimulation.run_stacked`).  Like the engine
    (``"batch"`` or ``"stream"``) and the worker count, none of these
    execution knobs ever change the numbers; all of them are validated
    here, before any worker starts.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be positive")
    validate_execution_options(engine, chunk_slots, run_stack)
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
