"""Run-stacked fleet driver: a stack of episodes in one slot-kernel pass.

:func:`run_stacked` is the one in-memory fleet driver.
:meth:`~repro.mec.fleet.FleetSimulation.run` with ``engine="batch"`` or
``"stream"`` is a stack of one, and
:func:`~repro.mec.fleet.run_fleet_monte_carlo` and
:func:`~repro.adversary.monte_carlo.simulate_fleet_reports` send every
group of ``S = run_stack`` episodes through it.  For ``S > 1`` the
per-slot state machine advances ``(S * N)``-wide tensors instead of
``N``-wide ones, so the Python-level slot overhead is paid once per slot
instead of once per slot per episode.

Stacking is an execution knob, never a modelling change:

* **Sampling** draws every run's randomness from that run's own
  SeedSequence children in the canonical order (each user consumes only
  its own generator), so the stacked trajectories and chaff plans equal
  the per-episode ones bit for bit.  Both engines sample through
  :meth:`~repro.mec.fleet.FleetSimulation._sample_runs`: whole runs
  packed into blocks of at most ``_BLOCK_TARGET_ELEMS`` plan elements,
  written in place into the stacked planes.
* **Placement** keeps one serial :class:`PlacementEngine` per run, but
  rebinds each engine's load vector to a view into one ``(S * L,)``
  stacked load array.  Each slot first tries to settle *all* runs with
  O(1) numpy calls: offsetting run ``r``'s cells by ``r * L`` makes one
  ``bincount`` the arrival count of the whole stack, and a run whose
  requested sites all verifiably have room is exactly a run whose own
  engine would have taken its vectorised fast path.  Only the runs that
  actually contend fall back to their engine's greedy id-order walk —
  the same walk, on the same view of the same load state, in the same
  order, as the per-episode path.  A stack of one skips this layer and
  drives the plain kernel with its own engine.
* **Evaluation** scores the whole ``(S, N, T)`` stack with one
  :meth:`~repro.core.eavesdropper.detector.TrajectoryDetector.row_scores`
  call of whichever detector is evaluated, then makes each run's
  decisions with :func:`~repro.core.eavesdropper.scoring.eq1_decide`
  from that run's own evaluation seed, reproducing
  :meth:`FleetReport.evaluate` decision by decision.

Batch runs the slot loop (:meth:`~repro.mec.fleet._FleetSlotKernel.advance`)
as one ``[0, T)`` window.  ``engine="stream"`` advances
``chunk_slots``-sized windows; a
dynamic world's windows are slices of the schedule the simulation
compiled once.

**The store case.**  Given an :class:`~repro.sim.cache.EpisodeStore`
(one seed only), the same three phases run out of core: phase A samples
into the store's disk-backed memmap planes, every window's ``(N, w)``
observation and ``(M, w)`` cost buffers are committed as chunk shards
followed by the kernel's carry snapshot, and the result is a
:class:`~repro.mec.streaming.StreamingFleetReport` whose planes stay on
disk.  The heap then holds one window plus O(N) carry state, whatever
``T``.  A rerun on the same store checks that it holds this episode,
skips sampling once it is done and resumes after the last chunk whose
carry snapshot is committed — the snapshot is a chunk's last write, so
a crash at any of its three commits resumes bit-identically.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Sequence

import numpy as np

from ..core.eavesdropper.detector import TrajectoryDetector
from ..core.eavesdropper.scoring import TieBreakGenerators, eq1_decide
from ..sim.cache import EpisodeStore
from ..sim.seeding import as_seed_sequence
from ..telemetry import NULL_RECORDER
from .costs import CostLedger
from .fleet import (
    FleetReport,
    FleetSimulation,
    _FleetSlotKernel,
    tracked_slots,
    validate_execution_options,
    windows_censor,
)
from .placement import PlacementEngine, PlacementStats
from .streaming import StreamingFleetReport, _simulation_fingerprint

__all__ = ["StackedRunOutcome", "run_stacked"]


class _StackedPlacement:
    """``S`` per-run placement engines over one stacked load array.

    Every run keeps its own serial engine (its stats, its capacity view,
    its greedy fallback), but the engines' load vectors are rebound to
    disjoint views of one ``(S * L,)`` array so the uncontended common
    case settles the entire stack with a handful of numpy calls.  All of
    the serial engine's load mutations are in-place (``+=``,
    ``np.subtract.at``, slice assignment), so delegating a contended run
    to its own engine operates on exactly the state the fast path left
    behind.
    """

    def __init__(
        self,
        simulation: FleetSimulation,
        n_services: int,
        run_stack: int,
    ) -> None:
        topology = simulation.topology
        self.n_cells = int(topology.n_cells)
        self.n_services = int(n_services)
        self.run_stack = int(run_stack)
        self.engines: list[PlacementEngine] = [
            PlacementEngine(topology) for _ in range(self.run_stack)
        ]
        # One hop matrix and one lazily built hop order serve every run
        # (hop_distance_matrix returns a fresh copy per engine otherwise).
        shared_hops = self.engines[0]._hops
        shared_order = self.engines[0]._order
        self.load_st = np.zeros(
            self.run_stack * self.n_cells, dtype=self.engines[0].load.dtype
        )
        for index, engine in enumerate(self.engines):
            engine._hops = shared_hops
            engine._order = shared_order
            engine.load = self.load_st[
                index * self.n_cells : (index + 1) * self.n_cells
            ]
        self.caps_st = np.tile(self.engines[0].capacities, self.run_stack)
        self._row_run = np.repeat(
            np.arange(self.run_stack, dtype=np.int64), self.n_services
        )

    # ------------------------------------------------------------------
    def _runs_of(self, rows: "np.ndarray | None") -> np.ndarray:
        return self._row_run if rows is None else self._row_run[rows]

    def _fits_by_run(self, arrivals: np.ndarray) -> np.ndarray:
        """Per-run: would this run's own engine take its fast path?"""
        stacked = (self.load_st + arrivals).reshape(self.run_stack, self.n_cells)
        return np.all(
            stacked <= self.caps_st.reshape(self.run_stack, self.n_cells), axis=1
        )

    def _credit_admitted(self, run_counts: np.ndarray) -> None:
        for run in np.flatnonzero(run_counts):
            self.engines[int(run)].stats.admitted += int(run_counts[run])

    # ------------------------------------------------------------------
    def place_initial_rows(
        self, rows: "np.ndarray | None", desired_sub: np.ndarray
    ) -> np.ndarray:
        """Instantiate a row subset across the stack (id order per run)."""
        return self._settle_walk(rows, desired_sub, arrivals_walk=False)

    def admit_rows(
        self, rows: "np.ndarray | None", desired_sub: np.ndarray
    ) -> np.ndarray:
        """Admit mid-episode arrivals across the stack."""
        return self._settle_walk(rows, desired_sub, arrivals_walk=True)

    def _settle_walk(
        self,
        rows: "np.ndarray | None",
        desired_sub: np.ndarray,
        *,
        arrivals_walk: bool,
    ) -> np.ndarray:
        """Shared fast path of the two admit-or-spill walks.

        When every requested site of a run verifiably has room for all
        of that run's newcomers, the serial walk admits each of them at
        its requested cell (at every step the walk sees strictly fewer
        arrivals than the final count it was checked against), so the
        whole run settles with one bincount; only runs that would
        actually spill replay their serial walk.
        """
        desired = np.asarray(desired_sub, dtype=np.int64)
        if desired.size == 0:
            return desired.copy()
        runs = self._runs_of(rows)
        cells = self.n_cells
        arrivals = np.bincount(
            desired + runs * cells, minlength=self.load_st.size
        )
        fits = self._fits_by_run(arrivals)
        result = np.empty(desired.size, dtype=np.int64)
        fast = np.flatnonzero(fits[runs])
        if fast.size:
            fast_runs = runs[fast]
            self.load_st += np.bincount(
                desired[fast] + fast_runs * cells, minlength=self.load_st.size
            )
            self._credit_admitted(
                np.bincount(fast_runs, minlength=self.run_stack)
            )
            result[fast] = desired[fast]
        contended = np.bincount(runs, minlength=self.run_stack) > 0
        for run in np.flatnonzero(contended & ~fits):
            indices = np.flatnonzero(runs == run)
            engine = self.engines[int(run)]
            if arrivals_walk:
                result[indices] = engine.admit_arrivals(desired[indices])
            else:
                result[indices] = engine.place_initial(desired[indices])
        return result

    def resolve_rows(
        self,
        rows: "np.ndarray | None",
        current_sub: np.ndarray,
        desired_sub: np.ndarray,
    ) -> np.ndarray:
        """Resolve one slot's moves for the whole stack."""
        current = np.asarray(current_sub, dtype=np.int64)
        desired = np.asarray(desired_sub, dtype=np.int64)
        result = current.copy()
        movers = np.flatnonzero(desired != current)
        if movers.size == 0:
            return result
        runs = self._runs_of(rows)
        cells = self.n_cells
        mover_runs = runs[movers]
        arrivals = np.bincount(
            desired[movers] + mover_runs * cells, minlength=self.load_st.size
        )
        fits = self._fits_by_run(arrivals)
        fast_movers = movers[fits[mover_runs]]
        if fast_movers.size:
            fast_runs = runs[fast_movers]
            self.load_st += np.bincount(
                desired[fast_movers] + fast_runs * cells,
                minlength=self.load_st.size,
            )
            self.load_st -= np.bincount(
                current[fast_movers] + fast_runs * cells,
                minlength=self.load_st.size,
            )
            self._credit_admitted(
                np.bincount(fast_runs, minlength=self.run_stack)
            )
            fast_rows = fits[runs]
            result[fast_rows] = desired[fast_rows]
        moving = np.bincount(mover_runs, minlength=self.run_stack) > 0
        for run in np.flatnonzero(moving & ~fits):
            indices = np.flatnonzero(runs == run)
            result[indices] = self.engines[int(run)].resolve_moves(
                current[indices], desired[indices]
            )
        return result

    def release_rows(self, rows: np.ndarray, cells_at_rows: np.ndarray) -> None:
        """Free the slots of departing services across the stack."""
        cells = np.asarray(cells_at_rows, dtype=np.int64)
        if cells.size == 0:
            return
        np.subtract.at(
            self.load_st, cells + self._row_run[rows] * self.n_cells, 1
        )
        if self.load_st.min() < 0:
            raise ValueError("released more services than were placed")

    def evict_rows(
        self, cells: np.ndarray, placed: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Force excess services off shrunk sites, run by run."""
        overloaded = np.flatnonzero(self.load_st > self.caps_st)
        if overloaded.size == 0:
            return cells.copy(), np.empty(0, dtype=np.int64)
        new_cells = cells.copy()
        moved_parts: list[np.ndarray] = []
        span = self.n_services
        for run in np.unique(overloaded // self.n_cells):
            run = int(run)
            rows = slice(run * span, (run + 1) * span)
            sub_new, sub_moved = self.engines[run].evict_overloaded(
                cells[rows], placed[rows]
            )
            new_cells[rows] = sub_new
            if sub_moved.size:
                moved_parts.append(sub_moved + run * span)
        if not moved_parts:
            return new_cells, np.empty(0, dtype=np.int64)
        return new_cells, np.concatenate(moved_parts)

    def set_capacities(self, caps_col: np.ndarray) -> None:
        """Install one slot's capacity view on every run's engine."""
        for engine in self.engines:
            engine.set_capacities(caps_col)
        self.caps_st = np.tile(self.engines[0].capacities, self.run_stack)


class _StackedFleetView:
    """Duck-typed stand-in the slot kernel sees: an ``S``-times-wider fleet.

    The kernel only reads ``config.n_users`` (to size its per-user
    totals), the compiled world schedule, the cost model, the hop matrix
    and the vectorised policy decision — all row-independent, so the
    real simulation's bound methods serve the stacked arrays unchanged.
    """

    def __init__(self, simulation: FleetSimulation, run_stack: int) -> None:
        self.config = SimpleNamespace(
            n_users=simulation.config.n_users * run_stack
        )
        self._schedule = simulation._schedule
        self.cost_model = simulation.cost_model
        self._hops = simulation._hops
        self._decide_real_targets = simulation._decide_real_targets


class _StackedSlotKernel(_FleetSlotKernel):
    """The slot kernel with its placement hooks rerouted to the stack."""

    def __init__(
        self,
        view: _StackedFleetView,
        owners_st: np.ndarray,
        is_real_st: np.ndarray,
        stacked: _StackedPlacement,
    ) -> None:
        super().__init__(view, owners_st, is_real_st, stacked.engines[0])  # type: ignore[arg-type]
        self.stack_placement = stacked

    def _place_initial_rows(
        self, rows: "np.ndarray | None", desired_sub: np.ndarray
    ) -> np.ndarray:
        return self.stack_placement.place_initial_rows(rows, desired_sub)

    def _admit_rows(
        self, rows: "np.ndarray | None", desired_sub: np.ndarray
    ) -> np.ndarray:
        return self.stack_placement.admit_rows(rows, desired_sub)

    def _release_rows(self, rows: np.ndarray) -> None:
        self.stack_placement.release_rows(rows, self.cells[rows])

    def _resolve_rows(
        self,
        rows: "np.ndarray | None",
        current_sub: np.ndarray,
        desired_sub: np.ndarray,
    ) -> np.ndarray:
        return self.stack_placement.resolve_rows(rows, current_sub, desired_sub)

    def _evict_overloaded(
        self, placed: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        return self.stack_placement.evict_rows(self.cells, placed)

    def _set_capacities(self, caps_col: np.ndarray) -> None:
        self.stack_placement.set_capacities(caps_col)


class StackedRunOutcome:
    """Everything produced by one stacked pass over ``S`` episodes.

    Holds the stacked tensors plus each run's presentation order,
    evaluation seed and placement stats.  :meth:`to_reports` slices the
    stack back into ordinary per-run :class:`FleetReport`\\ s
    (bit-identical to :meth:`FleetSimulation.run`);
    :meth:`to_metrics` evaluates a detector against every run without
    materialising the reports, reproducing
    :meth:`FleetReport.evaluate`'s decisions draw for draw.
    """

    def __init__(
        self,
        simulation: FleetSimulation,
        *,
        owners: np.ndarray,
        is_real: np.ndarray,
        service_ids: np.ndarray,
        users_st: np.ndarray,
        histories_st: np.ndarray,
        per_slot_st: np.ndarray | None,
        mig_total: np.ndarray,
        comm_total: np.ndarray,
        chaff_total: np.ndarray,
        migrations: np.ndarray,
        service_migrations_st: np.ndarray,
        placement_stats: list[PlacementStats],
        orders: list[np.ndarray],
        evaluation_seeds: list[np.random.SeedSequence],
        svc_windows: np.ndarray | None,
    ) -> None:
        self.simulation = simulation
        self.owners = owners
        self.is_real = is_real
        self.service_ids = service_ids
        self.users_st = users_st
        self.histories_st = histories_st
        self.per_slot_st = per_slot_st
        self.mig_total = mig_total
        self.comm_total = comm_total
        self.chaff_total = chaff_total
        self.migrations = migrations
        self.service_migrations_st = service_migrations_st
        self.placement_stats = placement_stats
        self.orders = orders
        self.evaluation_seeds = evaluation_seeds
        self.svc_windows = svc_windows

    @property
    def run_stack(self) -> int:
        """Number of stacked episodes ``S``."""
        return len(self.orders)

    # ------------------------------------------------------------------
    def to_reports(self) -> list[FleetReport]:
        """Slice the stack into per-run reports, in seed order."""
        if self.per_slot_st is None:
            raise ValueError(
                "per-slot cost series were not collected"
                " (run_stacked(..., collect_per_slot=False));"
                " reports need the full ledger"
            )
        sim = self.simulation
        n_users = sim.config.n_users
        horizon = sim.config.horizon
        n_services = self.owners.size
        reports = []
        for run in range(self.run_stack):
            base = run * n_users
            per_slot = self.per_slot_st[base : base + n_users]
            ledgers = [
                CostLedger(
                    migration_total=float(self.mig_total[base + user]),
                    communication_total=float(self.comm_total[base + user]),
                    chaff_total=float(self.chaff_total[base + user]),
                    migrations=int(self.migrations[base + user]),
                    slots=horizon,
                    _per_slot=per_slot[user].tolist(),
                )
                for user in range(n_users)
            ]
            rows = slice(run * n_services, (run + 1) * n_services)
            reports.append(
                sim._build_report(
                    self.users_st[base : base + n_users],
                    self.histories_st[rows],
                    self.owners,
                    self.is_real,
                    self.service_ids,
                    self.service_migrations_st[rows],
                    ledgers,
                    self.placement_stats[run],
                    self.evaluation_seeds[run],
                    self.svc_windows,
                    self.orders[run],
                )
            )
        return reports

    def to_metrics(
        self, detector: TrajectoryDetector, recorder=NULL_RECORDER
    ) -> list[tuple]:
        """Per-run Monte-Carlo metric tuples, without report materialisation.

        The stacked plane is scored in one
        :meth:`~repro.core.eavesdropper.detector.TrajectoryDetector.row_scores`
        call in service-id order (a detector scores rows, not their
        order, so permuting afterwards equals scoring the permuted
        plane; a learning detector observes the runs in seed order),
        then each run replays its tie-break draws from its own
        evaluation seed.
        """
        sim = self.simulation
        with recorder.span("kernel/detect", runs=self.run_stack):
            stack_size = self.run_stack
            n_users = sim.config.n_users
            horizon = sim.config.horizon
            n_services = self.owners.size
            histories = self.histories_st.reshape(stack_size, n_services, horizon)
            scores_all = detector.row_scores(
                sim.chain, [histories], transition_stack=sim._stack
            )
            real_id = np.flatnonzero(self.is_real)
            masked = windows_censor(self.svc_windows, horizon)
            user_windows = self.svc_windows[real_id] if masked else None
            per_user_cost_st = self.mig_total + self.comm_total + self.chaff_total
            metrics = []
            for run in range(stack_size):
                order = self.orders[run]
                chosen = eq1_decide(
                    scores_all[run][order],
                    TieBreakGenerators(self.evaluation_seeds[run], n_users),
                    detector.tolerance,
                )[0]
                base = run * n_users
                tracked, observed = tracked_slots(
                    histories[run][order[chosen]],
                    self.users_st[base : base + n_users],
                    user_windows,
                )
                stats = self.placement_stats[run]
                metrics.append(
                    (
                        tracked / observed,
                        (chosen == np.argsort(order)[real_id]).astype(float),
                        per_user_cost_st[base : base + n_users].copy(),
                        int(self.migrations[base : base + n_users].sum()),
                        stats.rejected,
                        stats.spilled,
                        stats.evicted,
                        stats.stranded,
                    )
                )
            return metrics


# ----------------------------------------------------------------------
# The stacked runner
# ----------------------------------------------------------------------


def _open_store(
    store: EpisodeStore,
    simulation: FleetSimulation,
    seed: "int | np.random.SeedSequence",
    chunk_slots: int,
) -> int:
    """Claim ``store`` for one episode; returns the first chunk to advance.

    A store that already holds a different episode (another seed, shape,
    chunk size or simulation fingerprint) is refused.  The first chunk
    to advance is the one after the last contiguous carry snapshot: the
    snapshot is a chunk's last commit, so any shard written after it is
    rewritten on resume.
    """
    config = simulation.config
    root = as_seed_sequence(seed)
    identity = {
        "entropy": str(root.entropy),
        "spawn_key": [int(part) for part in root.spawn_key],
        "n_users": config.n_users,
        "horizon": config.horizon,
        "chunk_slots": chunk_slots,
        "simulation": _simulation_fingerprint(simulation),
    }
    meta = store.meta
    for key, value in identity.items():
        if key in meta and meta[key] != value:
            raise ValueError(
                f"episode store holds a different episode: {key} is "
                f"{meta[key]!r}, this run needs {value!r}"
            )
    store.update_meta(**identity)
    snapshots = set(store.completed("carry"))
    resume_from = 0
    while resume_from in snapshots:
        resume_from += 1
    return resume_from


def _spill_windows(
    kernel: _FleetSlotKernel,
    store: EpisodeStore,
    users: np.ndarray,
    plans: np.ndarray,
    width: int,
    resume_from: int,
    recorder,
) -> None:
    """Advance the store's remaining chunks, committing each one.

    Each chunk commits its observation shard, its cost shard and then
    the kernel's carry snapshot.  A store with chunks already committed
    restarts from the snapshot of the last one.
    """
    horizon = users.shape[1]
    if resume_from:
        kernel.restore(store.load_state(resume_from - 1))
    for index in range(resume_from, -(-horizon // width)):
        start = index * width
        stop = min(start + width, horizon)
        histories = np.empty((plans.shape[0], stop - start), dtype=np.int64)
        per_slot = np.empty((users.shape[0], stop - start), dtype=float)
        kernel.advance(
            start,
            np.asarray(users[:, start:stop]),
            np.asarray(plans[:, start:stop]),
            histories,
            per_slot,
        )
        with recorder.span("kernel/spill", chunk=index):
            store.append_chunk("histories", index, histories)
            store.append_chunk("per_slot", index, per_slot)
            store.save_state(index, **kernel.carry())


def run_stacked(
    simulation: FleetSimulation,
    seeds: "Sequence[int | np.random.SeedSequence]",
    *,
    engine: str = "batch",
    chunk_slots: int = 64,
    collect_per_slot: bool = True,
    store: EpisodeStore | None = None,
    recorder=NULL_RECORDER,
) -> "StackedRunOutcome | StreamingFleetReport":
    """Play ``len(seeds)`` episodes as one pass of the slot kernel.

    Bit-identical to running each seed through
    :meth:`FleetSimulation.run` with the same engine.  ``chunk_slots``
    sets the window of ``engine="stream"``, exactly as in
    :meth:`FleetSimulation.run`.  ``collect_per_slot=False`` skips the
    per-(user, slot) cost series that only :meth:`StackedRunOutcome.to_reports`
    consumes — the Monte-Carlo metrics path reads the running totals
    instead, so callers headed straight for
    :meth:`StackedRunOutcome.to_metrics` can drop the ``(S·M, T)``
    ledger plane entirely (a store always keeps it, one shard per chunk).

    With a ``store`` (one seed only) the episode runs out of core and
    resumably, one committed chunk per window, and the result is a
    :class:`~repro.mec.streaming.StreamingFleetReport` over the store
    (see the module docstring).  The caller owns the store: pass the
    same one again to resume, and ``store.destroy()`` it when done.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed to stack")
    validate_execution_options(engine, chunk_slots, len(seeds))
    if store is not None and len(seeds) != 1:
        raise ValueError("an episode store holds one episode; pass one seed")

    sim = simulation
    config = sim.config
    stack_size = len(seeds)
    n_users, horizon = config.n_users, config.horizon
    budgets = config.chaffs_per_user()
    owners, is_real, service_ids = sim._service_layout(budgets)
    n_services = owners.size
    streams = [sim._episode_streams(seed) for seed in seeds]
    run_rngs = [user_rngs for user_rngs, _, _ in streams]
    width = chunk_slots if engine == "stream" else horizon
    users_shape = (stack_size * n_users, horizon)
    plans_shape = (stack_size * n_services, horizon)

    # Phase A: sample every run from its own SeedSequence children, in
    # the canonical order — every user draws only from their own
    # generator (trajectory randomness first, then that user's chaffs),
    # so packing runs into blocks is bit-identical to sampling the runs
    # one at a time.  A store keeps the planes on disk and samples once.
    sample_span = dict(engine=engine, runs=stack_size, users=n_users)
    if store is None:
        users_st = np.empty(users_shape, dtype=np.int64)
        plans_st = np.empty(plans_shape, dtype=np.int64)
        with recorder.span("kernel/sample", **sample_span):
            sim._sample_runs(run_rngs, users_st, plans_st)
    else:
        resume_from = _open_store(store, sim, seeds[0], width)
        if not store.meta.get("sampled"):
            users_plane = store.create_plane("users", users_shape)
            plans_plane = store.create_plane("plans", plans_shape)
            with recorder.span("kernel/sample", **sample_span):
                sim._sample_runs(run_rngs, users_plane, plans_plane)
            users_plane.flush()
            plans_plane.flush()
            del users_plane, plans_plane
            store.update_meta(sampled=True)
        users_st = store.open_plane("users")
        plans_st = store.open_plane("plans")

    # Phase B: one window loop for the whole stack.  A stack of one
    # drives the plain kernel with its own engine; the stacked placement
    # only pays off from S = 2.
    if stack_size == 1:
        engines = [PlacementEngine(sim.topology)]
        kernel = _FleetSlotKernel(sim, owners, is_real, engines[0])
    else:
        stacked = _StackedPlacement(sim, n_services, stack_size)
        engines = stacked.engines
        kernel = _StackedSlotKernel(
            _StackedFleetView(sim, stack_size),
            np.concatenate([owners + run * n_users for run in range(stack_size)]),
            np.tile(is_real, stack_size),
            stacked,
        )
    placement_token = recorder.begin(
        "kernel/placement", engine=engine, runs=stack_size, slots=horizon
    )
    if store is None:
        histories_st = np.empty(plans_shape, dtype=np.int64)
        per_slot_st = (
            np.empty(users_shape, dtype=float) if collect_per_slot else None
        )
        for start in range(0, horizon, width):
            window = slice(start, min(start + width, horizon))
            kernel.advance(
                start,
                users_st[:, window],
                plans_st[:, window],
                histories_st[:, window],
                None if per_slot_st is None else per_slot_st[:, window],
            )
    else:
        _spill_windows(
            kernel, store, users_st, plans_st, width, resume_from, recorder
        )
        del users_st, plans_st
    recorder.end(placement_token)
    for engine_ in engines:
        recorder.record_stats("placement", engine_.stats.as_dict())

    # Phase C: each run's presentation permutation — the same single
    # draw from the same shuffle child as every other engine.
    orders = [
        sim._presentation_order(shuffle_rng, n_services)
        for _, shuffle_rng, _ in streams
    ]
    svc_windows = (
        None if sim._schedule is None else sim._schedule.user_windows[owners]
    )
    if store is not None:
        return StreamingFleetReport(
            sim,
            store,
            chunk_slots=width,
            owners=owners,
            is_real=is_real,
            service_ids=service_ids,
            order=orders[0],
            mig_total=kernel.mig_total,
            comm_total=kernel.comm_total,
            chaff_total=kernel.chaff_total,
            migrations=kernel.migrations,
            service_migrations=kernel.service_migrations,
            placement=kernel.placement.stats,
            evaluation_seed=streams[0][2],
            svc_windows=svc_windows,
            recorder=recorder,
        )
    return StackedRunOutcome(
        sim,
        owners=owners,
        is_real=is_real,
        service_ids=service_ids,
        users_st=users_st,
        histories_st=histories_st,
        per_slot_st=per_slot_st,
        mig_total=kernel.mig_total,
        comm_total=kernel.comm_total,
        chaff_total=kernel.chaff_total,
        migrations=kernel.migrations,
        service_migrations_st=kernel.service_migrations,
        placement_stats=[engine_.stats for engine_ in engines],
        orders=orders,
        evaluation_seeds=[evaluation_seed for _, _, evaluation_seed in streams],
        svc_windows=svc_windows,
    )
