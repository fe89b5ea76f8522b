"""High-level sweep runner: evaluate many strategies against one model.

The experiment modules (one per paper figure) compose this runner with the
appropriate mobility models, detectors and chaff budgets; it factors out
the common "for each strategy, Monte-Carlo the game and collect the
per-slot accuracy curve" loop of Figs. 5 and 7.

Each series gets its own child :class:`~numpy.random.SeedSequence`
spawned from the sweep's master seed (never ``seed + offset`` arithmetic,
which would overlap streams across sweeps), and the independent series
points can be mapped over a process pool with ``workers``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..analysis.metrics import TrackingStatistics
from ..core.eavesdropper.detector import TrajectoryDetector
from ..core.game import PrivacyGame
from ..core.strategies.base import ChaffStrategy, get_strategy
from .monte_carlo import MonteCarloRunner
from .parallel import parallel_map
from .results import SeriesResult
from .seeding import spawn_sequences

__all__ = ["StrategySweep", "sweep_strategies"]


@dataclass(frozen=True)
class StrategySweep:
    """Result of sweeping several strategies against one mobility model."""

    model_label: str
    statistics: dict[str, TrackingStatistics]

    def series(self) -> list[SeriesResult]:
        """Per-slot accuracy curves as :class:`SeriesResult` objects."""
        out = []
        for label, stats in self.statistics.items():
            out.append(
                SeriesResult.from_array(
                    label,
                    stats.per_slot_accuracy,
                    index=list(range(1, stats.horizon + 1)),
                    tracking_accuracy=stats.tracking_accuracy,
                    detection_accuracy=stats.detection_accuracy,
                    n_episodes=stats.n_episodes,
                )
            )
        return out


def _sweep_point(task) -> TrackingStatistics:
    """Evaluate one (strategy, N) series; module-level so pools can pickle it."""
    chain, detector, strategy, n_services, horizon, n_runs, child, workers = task
    game = PrivacyGame(chain, strategy, detector, n_services=n_services)
    runner = MonteCarloRunner(n_runs=n_runs, seed=child, workers=workers)
    return runner.run(game, horizon=horizon)


def sweep_strategies(
    chain,
    detector: TrajectoryDetector,
    strategy_specs: Mapping[str, tuple[ChaffStrategy | str, int]],
    *,
    horizon: int,
    n_runs: int,
    seed: int | np.random.SeedSequence,
    model_label: str = "model",
    workers: int = 1,
) -> StrategySweep:
    """Evaluate several (strategy, N) combinations against one model.

    Parameters
    ----------
    chain:
        The user mobility model.
    detector:
        The eavesdropper's detector.
    strategy_specs:
        Mapping from series label to ``(strategy, n_services)``; the
        strategy may be given by name (resolved through the registry) or
        as an instance.
    horizon, n_runs, seed:
        Monte-Carlo parameters.  Each series runs on its own child
        sequence spawned from ``seed``, so series streams never overlap —
        within this sweep or with any other experiment.
    workers:
        Worker processes (``0`` = all cores).  With several series the
        independent points are mapped over the pool; a single series is
        instead sharded run-wise inside its Monte-Carlo runner.  Results
        are bit-identical for any value.
    """
    labels = list(strategy_specs)
    children = spawn_sequences(seed, len(labels))
    # One series cannot use grid parallelism, so hand the workers to the
    # run-sharding layer instead; with several series the grid pool owns
    # the processes and every point stays serial inside.
    point_workers = workers if len(labels) == 1 else 1
    tasks = []
    for child, (label, (strategy_spec, n_services)) in zip(
        children, strategy_specs.items(), strict=True
    ):
        strategy = (
            get_strategy(strategy_spec)
            if isinstance(strategy_spec, str)
            else strategy_spec
        )
        tasks.append(
            (
                chain,
                detector,
                strategy,
                n_services,
                horizon,
                n_runs,
                child,
                point_workers,
            )
        )
    results = parallel_map(
        _sweep_point, tasks, workers=1 if len(labels) == 1 else workers
    )
    statistics = dict(zip(labels, results, strict=True))
    return StrategySweep(model_label=model_label, statistics=statistics)
