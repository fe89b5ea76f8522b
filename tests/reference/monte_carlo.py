"""The single-user Monte-Carlo played one episode at a time.

:class:`~repro.sim.monte_carlo.MonteCarloRunner` plays every run of a
configuration as one array batch; these oracles replay the same runs
through :meth:`~repro.core.game.PrivacyGame.run_episode`, one child
generator per run, and aggregate the episodes.  The batch engine must
match them bit for bit.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.analysis.metrics import TrackingStatistics, aggregate_episodes
from repro.core.eavesdropper.detector import TrajectoryDetector
from repro.core.game import PrivacyGame
from repro.core.strategies.base import ChaffStrategy, get_strategy
from repro.sim.monte_carlo import MonteCarloRunner
from repro.sim.runner import StrategySweep
from repro.sim.seeding import spawn_sequences

__all__ = ["run_game_loop", "sweep_strategies_loop"]


def run_game_loop(
    game: PrivacyGame,
    *,
    n_runs: int,
    seed: "int | np.random.SeedSequence",
    horizon: int | None = None,
    user_trajectory_provider=None,
    background_provider=None,
) -> TrackingStatistics:
    """``MonteCarloRunner(n_runs, seed).run(game, ...)``, episode by episode."""
    episodes = MonteCarloRunner(n_runs=n_runs, seed=seed).run_episodes(
        game,
        horizon=horizon,
        user_trajectory_provider=user_trajectory_provider,
        background_provider=background_provider,
    )
    return aggregate_episodes(episodes)


def sweep_strategies_loop(
    chain,
    detector: TrajectoryDetector,
    strategy_specs: Mapping[str, "tuple[ChaffStrategy | str, int]"],
    *,
    horizon: int,
    n_runs: int,
    seed: "int | np.random.SeedSequence",
    model_label: str = "model",
) -> StrategySweep:
    """:func:`~repro.sim.runner.sweep_strategies` through :func:`run_game_loop`.

    Series ``k`` runs on child ``k`` of ``seed``, as in the sweep.
    """
    children = spawn_sequences(seed, len(strategy_specs))
    statistics = {}
    for child, (label, (strategy, n_services)) in zip(
        children, strategy_specs.items(), strict=True
    ):
        if isinstance(strategy, str):
            strategy = get_strategy(strategy)
        game = PrivacyGame(chain, strategy, detector, n_services=n_services)
        statistics[label] = run_game_loop(
            game, n_runs=n_runs, seed=child, horizon=horizon
        )
    return StrategySweep(model_label=model_label, statistics=statistics)
