"""Monte-Carlo harness for the privacy game.

The paper averages its synthetic results over 1000 Monte-Carlo runs.  The
harness here owns seeding (each run gets an independent child generator
spawned from a single :class:`numpy.random.SeedSequence`) so experiments
are reproducible run-for-run regardless of execution order.

All runs of a configuration are played as ``(R, T)`` / ``(R, N, T)``
arrays through :meth:`~repro.core.game.PrivacyGame.run_batch`.  Because
every run keeps its own child generator and the batched stages consume
each generator in the scalar order, the results are bit-identical to
playing the episodes one at a time (:meth:`MonteCarloRunner.run_episodes`)
for the same master seed — just several times faster at paper scale.
The looped path is also what :meth:`MonteCarloRunner.run` falls back to
when provider outputs are ragged and cannot be stacked into one batch.

``workers=N`` shards the runs over a process pool (see
:mod:`repro.sim.parallel`): every worker respawns the per-run child
generators by index from the master seed and replays its contiguous
slice, so the concatenated result is independent of the worker count —
and therefore bit-identical to the serial path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..analysis.metrics import TrackingStatistics, aggregate_episodes
from ..core.game import BatchEpisodeResult, EpisodeResult, PrivacyGame
from .seeding import spawn_generators

__all__ = ["MonteCarloRunner", "run_game_monte_carlo"]

UserProvider = Callable[[int, np.random.Generator], np.ndarray]
BackgroundProvider = Callable[[int, np.random.Generator], "np.ndarray | None"]


@dataclass
class MonteCarloRunner:
    """Runs a privacy game many times and aggregates the outcomes.

    Parameters
    ----------
    n_runs:
        Number of independent episodes.
    seed:
        Master seed (an integer or a :class:`~numpy.random.SeedSequence`
        child spawned by a higher layer); per-run generators are spawned
        from it.
    workers:
        Number of worker processes the runs are sharded over.  ``1``
        (default) keeps the current serial path, ``0`` uses all CPU
        cores.  Any value produces bit-identical results.
    """

    n_runs: int
    seed: "int | np.random.SeedSequence" = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.n_runs < 1:
            raise ValueError("n_runs must be positive")
        if self.workers < 0:
            raise ValueError("workers must be non-negative (0 = all cores)")

    # ------------------------------------------------------------------
    def spawn_generators(self) -> list[np.random.Generator]:
        """The per-run child generators derived from the master seed."""
        return spawn_generators(self.seed, self.n_runs)

    def _effective_workers(self) -> int:
        """The resolved worker count, clamped to the number of runs."""
        from .parallel import resolve_workers

        return min(resolve_workers(self.workers), self.n_runs)

    def run(
        self,
        game: PrivacyGame,
        *,
        horizon: int | None = None,
        user_trajectory_provider: UserProvider | None = None,
        background_provider: BackgroundProvider | None = None,
    ) -> TrackingStatistics:
        """Run ``n_runs`` episodes and aggregate them.

        Exactly one of ``horizon`` (sample the user from the mobility model)
        or ``user_trajectory_provider`` (callable mapping run index and RNG
        to a fixed user trajectory, e.g. a taxi trace) must be supplied.
        """
        workers = self._effective_workers()
        _validate_sources(horizon, user_trajectory_provider)
        providers_used = (
            user_trajectory_provider is not None or background_provider is not None
        )
        if not providers_used:
            return self._dispatch_batch(
                game, workers, None, horizon=horizon
            ).aggregate()
        rngs = self.spawn_generators()
        users, backgrounds = self._gather_provider_outputs(
            rngs, user_trajectory_provider, background_provider
        )
        stacked_users = _try_stack(users)
        stacked_backgrounds = _try_stack(backgrounds)
        batchable = (users is None or stacked_users is not None) and (
            backgrounds is None or stacked_backgrounds is not None
        )
        if batchable:
            return self._dispatch_batch(
                game,
                workers,
                rngs,
                horizon=horizon if stacked_users is None else None,
                user_trajectories=stacked_users,
                background_trajectories=stacked_backgrounds,
            ).aggregate()
        # Provider outputs cannot be stacked into one batch (ragged shapes
        # or a mix of arrays and None): finish with the looped game path,
        # reusing the generators and outputs already drawn so providers are
        # invoked exactly once and the random streams match a pure loop.
        from .parallel import run_episodes_sharded

        episodes = run_episodes_sharded(
            game,
            self.seed,
            self.n_runs,
            workers,
            rngs=rngs,
            horizon=horizon if users is None else None,
            user_trajectories=users,
            background_trajectories=backgrounds,
        )
        return aggregate_episodes(episodes)

    def run_batch(
        self,
        game: PrivacyGame,
        *,
        horizon: int | None = None,
        user_trajectory_provider: UserProvider | None = None,
        background_provider: BackgroundProvider | None = None,
    ) -> BatchEpisodeResult:
        """Run all episodes as one array batch and return the raw result.

        Provider callables are invoked once per run with that run's
        generator (preserving the looped path's random streams) and
        their outputs stacked into the batch tensors; outputs that cannot
        be stacked (ragged shapes) raise ``ValueError`` — use :meth:`run`,
        which falls back to the looped game path for that case.
        """
        _validate_sources(horizon, user_trajectory_provider)
        providers_used = (
            user_trajectory_provider is not None or background_provider is not None
        )
        workers = self._effective_workers()
        if not providers_used:
            return self._dispatch_batch(game, workers, None, horizon=horizon)
        rngs = self.spawn_generators()
        users, backgrounds = self._gather_provider_outputs(
            rngs, user_trajectory_provider, background_provider
        )
        stacked_users = _try_stack(users)
        stacked_backgrounds = _try_stack(backgrounds)
        if users is not None and stacked_users is None:
            raise ValueError("user trajectories have inconsistent shapes")
        if backgrounds is not None and stacked_backgrounds is None:
            raise ValueError(
                "background trajectories have inconsistent shapes or mix "
                "arrays with None"
            )
        return self._dispatch_batch(
            game,
            workers,
            rngs,
            horizon=horizon if stacked_users is None else None,
            user_trajectories=stacked_users,
            background_trajectories=stacked_backgrounds,
        )

    def _dispatch_batch(
        self,
        game: PrivacyGame,
        workers: int,
        rngs: "list[np.random.Generator] | None",
        *,
        horizon: int | None,
        user_trajectories: np.ndarray | None = None,
        background_trajectories: np.ndarray | None = None,
    ) -> BatchEpisodeResult:
        """The single dispatch point for batch execution, sharded or not.

        ``rngs`` is ``None`` when no provider touched the generators:
        workers then derive their shard's children by index from the
        master seed (the serial path spawns them here); otherwise the
        provider-consumed generator states are shipped as-is.
        """
        if workers > 1:
            from .parallel import run_batch_sharded

            return run_batch_sharded(
                game,
                self.seed,
                self.n_runs,
                workers,
                rngs=rngs,
                horizon=horizon,
                user_trajectories=user_trajectories,
                background_trajectories=background_trajectories,
            )
        if rngs is None:
            rngs = self.spawn_generators()
        return game.run_batch(
            rngs,
            horizon=horizon,
            user_trajectories=user_trajectories,
            background_trajectories=background_trajectories,
        )

    def run_episodes(
        self,
        game: PrivacyGame,
        *,
        horizon: int | None = None,
        user_trajectory_provider: UserProvider | None = None,
        background_provider: BackgroundProvider | None = None,
    ) -> list[EpisodeResult]:
        """Run the episodes one at a time and return them without aggregation."""
        _validate_sources(horizon, user_trajectory_provider)
        episodes: list[EpisodeResult] = []
        for run_index, rng in enumerate(self.spawn_generators()):
            user_trajectory = None
            if user_trajectory_provider is not None:
                user_trajectory = user_trajectory_provider(run_index, rng)
            background = None
            if background_provider is not None:
                background = background_provider(run_index, rng)
            episodes.append(
                game.run_episode(
                    rng,
                    horizon=horizon if user_trajectory is None else None,
                    user_trajectory=user_trajectory,
                    background_trajectories=background,
                )
            )
        return episodes

    def _gather_provider_outputs(
        self,
        rngs: Sequence[np.random.Generator],
        user_trajectory_provider: UserProvider | None,
        background_provider: BackgroundProvider | None,
    ) -> tuple[list[np.ndarray] | None, list[np.ndarray | None] | None]:
        """Invoke the providers once per run, in the looped path's order.

        Each run's generator sees its user draw before its background
        draw, exactly as in :meth:`run_episodes`, so the collected outputs
        are valid for either execution path.
        """
        users = None
        if user_trajectory_provider is not None:
            users = [
                np.asarray(user_trajectory_provider(run, rngs[run]), dtype=np.int64)
                for run in range(self.n_runs)
            ]
        backgrounds = None
        if background_provider is not None:
            backgrounds = [
                background_provider(run, rngs[run]) for run in range(self.n_runs)
            ]
            if all(item is None for item in backgrounds):
                backgrounds = None
        return users, backgrounds


def _validate_sources(horizon, user_trajectory_provider) -> None:
    if (horizon is None) == (user_trajectory_provider is None):
        raise ValueError("provide exactly one of horizon or user_trajectory_provider")


def _try_stack(arrays: Sequence[np.ndarray | None] | None) -> np.ndarray | None:
    """Stack per-run provider outputs, or ``None`` if they cannot batch."""
    if arrays is None:
        return None
    if any(item is None for item in arrays):
        return None
    coerced = [np.asarray(item, dtype=np.int64) for item in arrays]
    if len({item.shape for item in coerced}) != 1:
        return None
    return np.stack(coerced, axis=0)


def run_game_monte_carlo(
    game: PrivacyGame,
    *,
    n_runs: int,
    horizon: int,
    seed: int = 0,
    workers: int = 1,
) -> TrackingStatistics:
    """Convenience wrapper: sample-user episodes with default providers."""
    runner = MonteCarloRunner(n_runs=n_runs, seed=seed, workers=workers)
    return runner.run(game, horizon=horizon)
