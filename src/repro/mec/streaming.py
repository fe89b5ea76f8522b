"""The store-backed fleet episode: its report and its fingerprint.

:func:`repro.mec.runstack.run_stacked` with an
:class:`~repro.sim.cache.EpisodeStore` runs one episode out of core:
trajectories and chaff plans live in the store's disk-backed memmap
planes, every slot window is committed as chunk shards plus a carry
snapshot of the slot kernel, and an interrupted episode resumes from its
last complete chunk.  This module holds what that episode leaves behind:

* :func:`_simulation_fingerprint`, the digest of everything besides the
  seed that shapes an episode — part of the store's identity, so a store
  can only be resumed by the simulation that wrote it;
* :class:`StreamingFleetReport`, the handle onto the stored episode.

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
from typing import Iterator

import numpy as np

from ..core.eavesdropper.detector import TrajectoryDetector
from ..core.eavesdropper.scoring import TieBreakGenerators, eq1_decide
from ..mobility.markov import MarkovChain
from ..sim.cache import EpisodeStore
from ..telemetry import NULL_RECORDER
from .costs import CostLedger
from .fleet import (
    FleetEvaluation,
    FleetReport,
    FleetSimulation,
    materialise_full_plane,
    tracked_slots,
    windows_censor,
)
from .placement import PlacementStats

__all__ = ["StreamingFleetReport"]


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
    """Handle onto one store-backed episode: totals in memory, planes on disk.

    Everything O(M) or O(N) — cost totals, migration counters, placement
    stats, the presentation permutation, service windows — lives on the
    report; everything O(N x T) stays in the :class:`EpisodeStore` and is
    reached through :meth:`iter_plane_chunks`, :meth:`evaluate` (chunked
    scoring) or :meth:`materialise` (guarded full-plane reconstruction).
    The store belongs to the caller, who destroys it when done.
    """

    def __init__(
        self,
        simulation: FleetSimulation,
        store: EpisodeStore,
        *,
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
