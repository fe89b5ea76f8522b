"""Streaming fleet engine: bounded-memory, resumable horizon chunks.

The in-memory fleet driver (:func:`repro.mec.runstack.run_stacked`)
holds the full ``(N, T)`` observation plane (and per-user ``(M, T)`` cost
curves) before anything is scored, which caps it at M≈10² users.  The
paper's privacy guarantees are population effects — detection falls like
~1/N as chaffs and crowd blend — so the interesting regime is exactly
the one a full plane cannot reach.  :class:`StreamingFleetEngine` runs
the *same* simulation as a disk-backed pipeline:

* **Sampling** writes straight into disk-backed memmap planes of an
  :class:`~repro.sim.cache.EpisodeStore` through the shared
  :meth:`~repro.mec.fleet.FleetSimulation._sample_runs` sampler, which
  splits a fleet too large for one block into user ranges (every user
  draws only from their own generator, so block sampling is
  bit-identical to whole-fleet sampling).
* **The slot loop** advances the horizon in fixed-size chunks of
  ``chunk_slots`` slots through
  :meth:`~repro.mec.fleet._FleetSlotKernel.advance`, the slot loop the
  in-memory driver runs too — bit-identity by construction — while
  holding only ``(N, chunk)`` planes.  Completed chunk planes and
  carry-over state snapshots are committed to the store, so an
  interrupted episode resumes from its last complete chunk.  Dynamic
  worlds read each chunk as slices of the schedule the simulation
  compiled once.
* **Placement** optionally shards by topology region
  (:class:`~repro.mec.placement.ShardedPlacementEngine`): independent
  regions settle concurrently, cross-region spills fall back to the
  serial walk, and the outcome stays bit-identical to the serial engine.

:meth:`StreamingFleetReport.materialise` folds the chunks back into an
ordinary :class:`~repro.mec.fleet.FleetReport` (bit-identical to the
batch engine's, including evaluations) for the small-``M`` contract;
:meth:`StreamingFleetReport.evaluate` scores any detector from the
stored chunks: it feeds them one by one to the detector's
:meth:`~repro.core.eavesdropper.detector.TrajectoryDetector.row_scores`
as consecutive slot windows.  The maximum-likelihood scorer accumulates
them without ever materialising the plane (same choices, with scores
equal to the whole-plane ones to within float summation order); a
detector that needs whole rows joins the windows first.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from typing import Iterator

import numpy as np

from ..core.eavesdropper.detector import TrajectoryDetector
from ..core.eavesdropper.scoring import TieBreakGenerators, eq1_decide
from ..mobility.markov import MarkovChain
from ..sim.cache import EpisodeStore
from ..sim.seeding import as_seed_sequence
from ..telemetry import NULL_RECORDER
from .costs import CostLedger
from .fleet import (
    FleetEvaluation,
    FleetReport,
    FleetSimulation,
    _FleetSlotKernel,
    materialise_full_plane,
    tracked_slots,
    windows_censor,
)
from .placement import PlacementStats, placement_engine

__all__ = ["StreamingFleetEngine", "StreamingFleetReport", "DEFAULT_CHUNK_SLOTS"]

#: Default number of slots advanced per chunk.
DEFAULT_CHUNK_SLOTS = 64


def _simulation_fingerprint(simulation: FleetSimulation) -> str:
    """Digest of everything besides the seed that shapes an episode.

    Part of an episode store's identity, so a store can only be resumed
    by the simulation that wrote it.
    """
    # Deferred import: the adversary package imports the fleet modules.
    from ..adversary.score_cache import chain_digest

    config = simulation.config
    timeline = simulation.timeline
    payload = {
        "chain": chain_digest(simulation.chain),
        "budgets": list(config.chaffs_per_user()),
        "start_cells": (
            None
            if config.start_cells is None
            else [int(cell) for cell in config.start_cells]
        ),
        "strategies": [
            None if strategy is None else strategy.name
            for strategy in simulation.strategies
        ],
        "policy": repr(simulation.policy),
        "cost_model": repr(simulation.cost_model),
        "capacities": simulation.topology.base_capacities().tolist(),
        "events": [repr(event) for event in timeline.events],
        "regime_chains": [chain_digest(chain) for chain in timeline.regime_chains],
        "shuffle_observations": config.shuffle_observations,
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class StreamingFleetReport:
    """Handle onto one streamed episode: totals in memory, planes on disk.

    Everything O(M) or O(N) — cost totals, migration counters, placement
    stats, the presentation permutation, service windows — lives on the
    report; everything O(N x T) stays in the :class:`EpisodeStore` and is
    reached through :meth:`iter_plane_chunks`, :meth:`evaluate` (chunked
    scoring) or :meth:`materialise` (guarded full-plane reconstruction).
    """

    def __init__(
        self,
        simulation: FleetSimulation,
        store: EpisodeStore,
        *,
        owns_store: bool,
        chunk_slots: int,
        owners: np.ndarray,
        is_real: np.ndarray,
        service_ids: np.ndarray,
        order: np.ndarray,
        mig_total: np.ndarray,
        comm_total: np.ndarray,
        chaff_total: np.ndarray,
        migrations: np.ndarray,
        service_migrations: np.ndarray,
        placement: PlacementStats,
        evaluation_seed: np.random.SeedSequence,
        svc_windows: np.ndarray | None,
        recorder=NULL_RECORDER,
    ) -> None:
        self.recorder = recorder
        self.simulation = simulation
        self.store = store
        self.owns_store = owns_store
        self.chunk_slots = int(chunk_slots)
        self.owners = owners
        self.is_real = is_real
        self.service_ids = service_ids
        self.order = order
        self.mig_total = mig_total
        self.comm_total = comm_total
        self.chaff_total = chaff_total
        self.migrations = migrations
        self.service_migrations = service_migrations
        self.placement = placement
        self.evaluation_seed = evaluation_seed
        self.svc_windows = svc_windows

    # ------------------------------------------------------------------
    @property
    def n_users(self) -> int:
        """Number of simulated users ``M``."""
        return int(self.mig_total.size)

    @property
    def n_services(self) -> int:
        """Number of services ``N`` on the observation plane."""
        return int(self.owners.size)

    @property
    def horizon(self) -> int:
        """Number of simulated slots ``T``."""
        return int(self.store.meta["horizon"])

    @property
    def per_user_cost(self) -> np.ndarray:
        """Length-``M`` array of per-user total costs."""
        return self.mig_total + self.comm_total + self.chaff_total

    @property
    def total_cost(self) -> float:
        """Fleet-wide cost."""
        return float(self.per_user_cost.sum())

    @property
    def total_migrations(self) -> int:
        """Fleet-wide migration count."""
        return int(self.migrations.sum())

    def iter_plane_chunks(self) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield ``(start, stop, chunk)`` observation-plane chunks.

        Chunks are ``(N, stop - start)`` arrays in *presentation order*
        (the shuffled order an eavesdropper would see), ascending in
        time; churned rows hold ``-1`` on dead slots.
        """
        for index, chunk in self.store.iter_chunks("histories"):
            start = index * self.chunk_slots
            yield start, start + chunk.shape[1], chunk[self.order]

    def close(self) -> None:
        """Release the episode store (deleted when owned by this run)."""
        if self.owns_store:
            self.store.destroy()

    # ------------------------------------------------------------------
    def materialise(self) -> FleetReport:
        """Fold the spilled chunks back into an ordinary full report.

        The result is bit-identical to the batch engine's report for the
        same seed — planes, ledgers, placement stats and (since the
        standard :meth:`FleetReport.evaluate` runs on it) evaluations.
        Allocation goes through the guarded
        :func:`~repro.mec.fleet.materialise_full_plane` helper, so a
        city-scale episode refuses to materialise instead of thrashing.
        """
        sim = self.simulation
        n_users, n_services = self.n_users, self.n_services
        horizon = self.horizon
        histories = materialise_full_plane((n_services, horizon), dtype=np.int64)
        for index, chunk in self.store.iter_chunks("histories"):
            start = index * self.chunk_slots
            histories[:, start : start + chunk.shape[1]] = chunk
        per_slot = materialise_full_plane((n_users, horizon), dtype=float)
        for index, chunk in self.store.iter_chunks("per_slot"):
            start = index * self.chunk_slots
            per_slot[:, start : start + chunk.shape[1]] = chunk
        users = materialise_full_plane((n_users, horizon), dtype=np.int64)
        users[:] = self.store.open_plane("users")
        ledgers = [
            CostLedger(
                migration_total=float(self.mig_total[user]),
                communication_total=float(self.comm_total[user]),
                chaff_total=float(self.chaff_total[user]),
                migrations=int(self.migrations[user]),
                slots=horizon,
                _per_slot=per_slot[user].tolist(),
            )
            for user in range(n_users)
        ]
        return sim._build_report(
            users,
            histories,
            self.owners,
            self.is_real,
            self.service_ids,
            self.service_migrations,
            ledgers,
            self.placement,
            self.evaluation_seed,
            self.svc_windows,
            self.order,
        )

    # ------------------------------------------------------------------
    def evaluate(
        self,
        chain: MarkovChain,
        detector: TrajectoryDetector,
        seed: "int | np.random.SeedSequence | None" = None,
    ) -> FleetEvaluation:
        """Score a detector per user without materialising the plane.

        The chunked counterpart of :meth:`FleetReport.evaluate`: the
        detector scores the plane from the stored chunks, tie-breaks
        consume one draw per user generator in the same order, and
        tracking is an exact integer count.
        """
        if seed is None:
            seed = self.evaluation_seed
        with self.recorder.span("kernel/detect", engine="stream"):
            scores = detector.row_scores(
                chain,
                (chunk for _, _, chunk in self.iter_plane_chunks()),
                transition_stack=self.simulation._stack,
            )
            chosen = eq1_decide(
                scores, TieBreakGenerators(seed, self.n_users), detector.tolerance
            )[0]
            masked = windows_censor(self.svc_windows, self.horizon)
            real_rows_id = np.flatnonzero(self.is_real)
            user_windows = self.svc_windows[real_rows_id] if masked else None
            tracked = observed = 0
            users_plane = self.store.open_plane("users")
            for start, stop, chunk in self.iter_plane_chunks():
                chunk_tracked, chunk_observed = tracked_slots(
                    chunk[chosen],
                    np.asarray(users_plane[:, start:stop]),
                    user_windows,
                    start,
                )
                tracked = tracked + chunk_tracked
                observed = observed + chunk_observed
            del users_plane
        real_rows = np.argsort(self.order)[real_rows_id]
        return FleetEvaluation(
            chosen_rows=chosen,
            tracking_per_user=tracked / observed,
            detected_per_user=(chosen == real_rows).astype(float),
        )


class StreamingFleetEngine:
    """Advances a :class:`FleetSimulation` in bounded-memory slot chunks.

    Parameters
    ----------
    simulation:
        The fleet to run; results are bit-identical to
        ``simulation.run(seed, engine="batch")`` for any chunk size,
        region count and worker count.
    chunk_slots:
        Slots advanced (and spilled) per chunk.
    regions:
        Topology regions for sharded placement (1 = the serial engine).
    region_workers:
        Threads settling independent regions concurrently.
    store:
        Episode store to spill into; ``None`` creates an ephemeral
        temporary store owned (and deleted) by the resulting report.
        Pass a persistent store to make the episode resumable: a rerun
        with the same seed continues from the last committed chunk.
    """

    def __init__(
        self,
        simulation: FleetSimulation,
        *,
        chunk_slots: int = DEFAULT_CHUNK_SLOTS,
        regions: int = 1,
        region_workers: int = 1,
        store: EpisodeStore | None = None,
        recorder=NULL_RECORDER,
    ) -> None:
        if chunk_slots < 1:
            raise ValueError("chunk_slots must be positive")
        if regions < 1:
            raise ValueError("regions must be positive")
        if region_workers < 1:
            raise ValueError("region_workers must be positive")
        self.simulation = simulation
        self.chunk_slots = int(chunk_slots)
        self.regions = int(regions)
        self.region_workers = int(region_workers)
        self._store = store
        self.recorder = recorder

    # ------------------------------------------------------------------
    def _sample(
        self,
        store: EpisodeStore,
        user_rngs: "list[np.random.Generator]",
    ) -> None:
        """Phase A: sample trajectories and plans into the memmap planes."""
        config = self.simulation.config
        users_plane = store.create_plane("users", (config.n_users, config.horizon))
        plans_plane = store.create_plane(
            "plans", (config.n_services, config.horizon)
        )
        with self.recorder.span(
            "kernel/sample", engine="stream", users=config.n_users
        ):
            self.simulation._sample_runs([user_rngs], users_plane, plans_plane)
            users_plane.flush()
            plans_plane.flush()
        del users_plane, plans_plane
        store.update_meta(sampled=True)

    def _restore_kernel(
        self, kernel: _FleetSlotKernel, carry: dict[str, np.ndarray]
    ) -> None:
        kernel.cells = carry["cells"].astype(np.int64)
        kernel.mig_total = carry["mig_total"].astype(float)
        kernel.comm_total = carry["comm_total"].astype(float)
        kernel.chaff_total = carry["chaff_total"].astype(float)
        kernel.migrations = carry["migrations"].astype(np.int64)
        kernel.service_migrations = carry["service_migrations"].astype(np.int64)
        if "prev_live" in carry:
            kernel.prev_live = carry["prev_live"].astype(bool)
            kernel.prev_caps = carry["prev_caps"].astype(np.int64)
        placement = kernel.placement
        placement.load = carry["load"].astype(np.int64)
        placement.capacities = carry["capacities"].astype(np.int64)
        counters = carry["placement_stats"].astype(np.int64)
        placement.stats = PlacementStats(*(int(value) for value in counters))

    def _save_kernel(
        self, store: EpisodeStore, index: int, kernel: _FleetSlotKernel
    ) -> None:
        arrays: dict[str, np.ndarray] = {
            "cells": kernel.cells,
            "mig_total": kernel.mig_total,
            "comm_total": kernel.comm_total,
            "chaff_total": kernel.chaff_total,
            "migrations": kernel.migrations,
            "service_migrations": kernel.service_migrations,
            "load": kernel.placement.load,
            "capacities": kernel.placement.capacities,
            "placement_stats": np.asarray(
                [
                    kernel.placement.stats.admitted,
                    kernel.placement.stats.spilled,
                    kernel.placement.stats.rejected,
                    kernel.placement.stats.evicted,
                    kernel.placement.stats.stranded,
                ],
                dtype=np.int64,
            ),
        }
        if kernel.prev_live is not None:
            arrays["prev_live"] = kernel.prev_live.astype(np.uint8)
            arrays["prev_caps"] = kernel.prev_caps
        store.save_state(index, **arrays)

    # ------------------------------------------------------------------
    def run(
        self,
        seed: "int | np.random.SeedSequence",
        *,
        stop_after_chunks: int | None = None,
    ) -> StreamingFleetReport | None:
        """Stream one episode; returns ``None`` if stopped before the end.

        ``stop_after_chunks`` bounds how many *new* chunks this call
        advances (for tests and cooperative scheduling); a later call
        with the same seed and store resumes from the last committed
        chunk and finishes the episode.
        """
        sim = self.simulation
        config = sim.config
        n_users, horizon = config.n_users, config.horizon
        root = as_seed_sequence(seed)
        user_rngs, shuffle_rng, evaluation_seed = sim._episode_streams(root)

        owns_store = self._store is None
        store = self._store or EpisodeStore(
            tempfile.mkdtemp(prefix="repro-episode-")
        )
        identity = {
            "entropy": str(root.entropy),
            "spawn_key": [int(part) for part in root.spawn_key],
            "n_users": n_users,
            "horizon": horizon,
            "chunk_slots": self.chunk_slots,
            "simulation": _simulation_fingerprint(sim),
        }
        meta = store.meta
        for key, value in identity.items():
            if key in meta and meta[key] != value:
                raise ValueError(
                    f"episode store holds a different episode: {key} is "
                    f"{meta[key]!r}, this run needs {value!r}"
                )
        store.update_meta(**identity)

        owners, is_real, service_ids = sim._service_layout(config.chaffs_per_user())
        n_services = owners.size
        if not store.meta.get("sampled"):
            self._sample(store, user_rngs)

        svc_windows = (
            None if sim._schedule is None else sim._schedule.user_windows[owners]
        )
        kernel = _FleetSlotKernel(
            sim,
            owners,
            is_real,
            placement_engine(
                sim.topology, regions=self.regions, workers=self.region_workers
            ),
        )
        n_chunks = -(-horizon // self.chunk_slots)
        committed = set(store.completed("histories"))
        resume_from = 0
        while resume_from in committed:
            resume_from += 1
        if resume_from > 0:
            self._restore_kernel(kernel, store.load_state(resume_from - 1))

        users_plane = store.open_plane("users")
        plans_plane = store.open_plane("plans")
        advanced = 0
        recorder = self.recorder
        placement_token = recorder.begin(
            "kernel/placement", engine="stream", chunks=n_chunks - resume_from
        )
        for chunk in range(resume_from, n_chunks):
            start = chunk * self.chunk_slots
            stop = min(start + self.chunk_slots, horizon)
            hist_chunk = np.empty((n_services, stop - start), dtype=np.int64)
            per_slot_chunk = np.empty((n_users, stop - start), dtype=float)
            kernel.advance(
                start,
                np.asarray(users_plane[:, start:stop]),
                np.asarray(plans_plane[:, start:stop]),
                hist_chunk,
                per_slot_chunk,
            )
            with recorder.span("kernel/spill", chunk=chunk):
                store.append_chunk("histories", chunk, hist_chunk)
                store.append_chunk("per_slot", chunk, per_slot_chunk)
                self._save_kernel(store, chunk, kernel)
            advanced += 1
            if (
                stop_after_chunks is not None
                and advanced >= stop_after_chunks
                and chunk + 1 < n_chunks
            ):
                del users_plane, plans_plane
                recorder.end(placement_token)
                return None
        del users_plane, plans_plane
        recorder.end(placement_token)

        if resume_from >= n_chunks:
            # Fully resumed episode: the totals live in the last carry.
            self._restore_kernel(kernel, store.load_state(n_chunks - 1))
        recorder.record_stats("placement", kernel.placement.stats.as_dict())
        return StreamingFleetReport(
            sim,
            store,
            owns_store=owns_store,
            chunk_slots=self.chunk_slots,
            owners=owners,
            is_real=is_real,
            service_ids=service_ids,
            order=sim._presentation_order(shuffle_rng, n_services),
            mig_total=kernel.mig_total,
            comm_total=kernel.comm_total,
            chaff_total=kernel.chaff_total,
            migrations=kernel.migrations,
            service_migrations=kernel.service_migrations,
            placement=kernel.placement.stats,
            evaluation_seed=evaluation_seed,
            svc_windows=svc_windows,
            recorder=recorder,
        )
