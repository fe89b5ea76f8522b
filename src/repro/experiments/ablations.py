"""Ablation and extension experiments beyond the paper's figures.

These experiments exercise the design choices DESIGN.md calls out and the
extensions the paper defers to future work:

* **chaff-budget sweep** — IM tracking accuracy versus the number of
  chaffs, compared against the closed form of Eq. (11) (the limit
  ``sum pi^2`` shows why more IM chaffs eventually stop helping);
* **cost-privacy trade-off** — tracking accuracy versus total MEC cost as
  the number of chaffs grows, using one-user (``M = 1``) runs of the MEC
  fleet simulator and its per-user cost ledger (Section VIII's deferred
  study);
* **migration-policy comparison** — cost and user/service co-location of
  the always-follow policy against lazy and MDP-based cost-optimal
  baselines from the related service-migration literature, on the same
  one-user fleet runs.

All randomness derives from children spawned off the config's master
:class:`~numpy.random.SeedSequence` (no ``seed + offset`` arithmetic, so
streams never overlap across points or across experiments), and the
independent (strategy, model, budget) points are mapped over a process
pool when ``config.workers`` asks for one.
"""

from __future__ import annotations

import numpy as np

from ..analysis.bounds import im_tracking_accuracy, im_tracking_accuracy_limit
from ..core.eavesdropper.detector import MaximumLikelihoodDetector
from ..core.eavesdropper.online import BayesianPosteriorTracker, PrefixMLTracker
from ..core.game import PrivacyGame
from ..core.strategies.base import get_strategy
from ..core.strategies.rollout import RolloutOnlineStrategy
from ..mec.costs import CostModel
from ..mec.fleet import FleetSimulation, FleetSimulationConfig, run_fleet_monte_carlo
from ..mec.policies import (
    AlwaysFollowPolicy,
    DistanceThresholdPolicy,
    MDPMigrationPolicy,
    NeverMigratePolicy,
)
from ..mec.topology import MECTopology
from ..mobility.models import paper_synthetic_models
from ..sim.config import SyntheticExperimentConfig
from ..sim.monte_carlo import MonteCarloRunner
from ..sim.parallel import parallel_map
from ..sim.results import ExperimentResult, SeriesResult
from ..sim.seeding import spawn_generators, spawn_sequences

__all__ = [
    "run_chaff_budget_sweep",
    "run_cost_privacy_tradeoff",
    "run_migration_policy_comparison",
    "run_rollout_vs_myopic",
    "run_online_eavesdropper_comparison",
]


def _monte_carlo_point(task):
    """One (chain, strategy, N) Monte-Carlo point; module-level for pools."""
    chain, strategy, n_services, n_runs, horizon, child = task
    game = PrivacyGame(
        chain, strategy, MaximumLikelihoodDetector(), n_services=n_services
    )
    runner = MonteCarloRunner(n_runs=n_runs, seed=child)
    stats = runner.run(game, horizon=horizon)
    return stats


def run_chaff_budget_sweep(
    config: SyntheticExperimentConfig | None = None,
    *,
    budgets: tuple[int, ...] = (2, 3, 4, 5, 6, 8, 10),
) -> ExperimentResult:
    """IM tracking accuracy versus ``N``, simulated and closed form (Eq. 11)."""
    config = config or SyntheticExperimentConfig()
    models = paper_synthetic_models(
        config.n_cells, seed=config.seed, backend=config.backend
    )
    strategy = get_strategy("IM")
    labels = list(config.mobility_models)
    children = spawn_sequences(
        config.seed, len(labels) * len(budgets), key="ablation-chaff-budget"
    )
    tasks = []
    for model_index, label in enumerate(labels):
        chain = models[label]
        for budget_index, n_services in enumerate(budgets):
            child = children[model_index * len(budgets) + budget_index]
            tasks.append(
                (
                    chain,
                    strategy,
                    n_services,
                    config.n_runs,
                    config.horizon,
                    child,
                )
            )
    all_stats = parallel_map(_monte_carlo_point, tasks, workers=config.workers)
    groups: dict[str, list[SeriesResult]] = {}
    scalars: dict[str, float] = {}
    for model_index, label in enumerate(labels):
        chain = models[label]
        point_stats = all_stats[
            model_index * len(budgets) : (model_index + 1) * len(budgets)
        ]
        simulated = [stats.tracking_accuracy for stats in point_stats]
        analytic = [
            im_tracking_accuracy(chain, n_services) for n_services in budgets
        ]
        groups[label] = [
            SeriesResult.from_array("simulated", simulated, index=list(budgets)),
            SeriesResult.from_array("eq11", analytic, index=list(budgets)),
        ]
        scalars[f"{label}/limit"] = im_tracking_accuracy_limit(chain)
    return ExperimentResult(
        experiment_id="ablation-chaff-budget",
        description="IM tracking accuracy vs number of chaffs, simulated vs Eq. (11)",
        groups=groups,
        scalars=scalars,
        config=config.to_dict(),
    )


def _require_runs(n_runs: int) -> None:
    if n_runs < 1:
        raise ValueError(f"n_runs must be positive, got {n_runs}")


def _cost_privacy_point(task) -> tuple[float, float]:
    """Mean (tracking accuracy, total cost) for one chaff budget."""
    simulation, n_runs, child = task
    # One stack: all runs advance through a single pass of the slot kernel.
    stats = run_fleet_monte_carlo(
        simulation,
        n_runs=n_runs,
        seed=child,
        detector=MaximumLikelihoodDetector(),
        run_stack=n_runs,
    )
    return stats.mean_tracking, stats.mean_cost_per_user


def run_cost_privacy_tradeoff(
    config: SyntheticExperimentConfig | None = None,
    *,
    chaff_counts: tuple[int, ...] = (0, 1, 2, 4),
    strategy_name: str = "IM",
    n_runs: int = 20,
) -> ExperimentResult:
    """Tracking accuracy versus total MEC cost as chaffs are added.

    Each chaff budget plays ``min(config.n_runs, n_runs)`` episodes.
    """
    _require_runs(n_runs)
    if not chaff_counts:
        raise ValueError("chaff_counts must list at least one chaff budget")
    config = config or SyntheticExperimentConfig()
    models = paper_synthetic_models(
        config.n_cells, seed=config.seed, backend=config.backend
    )
    label = config.mobility_models[0]
    chain = models[label]
    topology = MECTopology.ring(config.n_cells)
    runs = min(config.n_runs, n_runs)
    children = spawn_sequences(
        config.seed, len(chaff_counts), key="ablation-cost-privacy"
    )
    strategy = get_strategy(strategy_name)
    tasks = [
        (
            FleetSimulation(
                topology,
                chain,
                strategy=strategy,
                config=FleetSimulationConfig(
                    n_users=1, horizon=config.horizon, n_chaffs=n_chaffs
                ),
            ),
            runs,
            child,
        )
        for child, n_chaffs in zip(children, chaff_counts, strict=True)
    ]
    points = parallel_map(_cost_privacy_point, tasks, workers=config.workers)
    accuracy_series = [accuracy for accuracy, _ in points]
    cost_series = [cost for _, cost in points]
    groups = {
        label: [
            SeriesResult.from_array(
                "tracking-accuracy", accuracy_series, index=list(chaff_counts)
            ),
            SeriesResult.from_array("total-cost", cost_series, index=list(chaff_counts)),
        ]
    }
    scalars = {
        "privacy_gain_per_cost": float(
            (accuracy_series[0] - accuracy_series[-1])
            / max(cost_series[-1] - cost_series[0], 1e-9)
        )
    }
    return ExperimentResult(
        experiment_id="ablation-cost-privacy",
        description="Tracking accuracy vs total MEC cost as the chaff budget grows",
        groups=groups,
        scalars=scalars,
        config=config.to_dict(),
    )


def _migration_policy_point(task) -> tuple[float, float]:
    """Mean (total cost, co-location fraction) of one migration policy."""
    simulation, children = task
    # Every policy replays the same per-run children (paired comparison).
    reports = simulation.run_stacked(children).to_reports()
    colocations = [
        np.mean(report.observations.user_trajectory(0) == report.user_trajectories[0])
        for report in reports
    ]
    costs = [report.total_cost for report in reports]
    return float(np.mean(costs)), float(np.mean(colocations))


def run_migration_policy_comparison(
    config: SyntheticExperimentConfig | None = None, *, n_runs: int = 20
) -> ExperimentResult:
    """Compare migration policies on cost and user/service co-location.

    Every policy replays the same ``min(config.n_runs, n_runs)`` episodes.
    """
    _require_runs(n_runs)
    config = config or SyntheticExperimentConfig()
    models = paper_synthetic_models(
        config.n_cells, seed=config.seed, backend=config.backend
    )
    label = config.mobility_models[0]
    chain = models[label]
    topology = MECTopology.ring(config.n_cells)
    cost_model = CostModel()
    policies = {
        "always-follow": AlwaysFollowPolicy(),
        "never-migrate": NeverMigratePolicy(),
        "threshold-1": DistanceThresholdPolicy(threshold=1),
        "mdp": MDPMigrationPolicy(topology, chain, cost_model),
    }
    policy_names = list(policies)
    run_children = spawn_sequences(
        config.seed,
        min(config.n_runs, n_runs),
        key="ablation-migration-policies",
    )
    one_user = FleetSimulationConfig(n_users=1, horizon=config.horizon, n_chaffs=0)
    tasks = [
        (
            FleetSimulation(
                topology,
                chain,
                policy=policies[policy_name],
                cost_model=cost_model,
                config=one_user,
            ),
            run_children,
        )
        for policy_name in policy_names
    ]
    points = parallel_map(_migration_policy_point, tasks, workers=config.workers)
    cost_values = [cost for cost, _ in points]
    colocation_values = [colocation for _, colocation in points]
    groups = {
        label: [
            SeriesResult.from_array(
                "total-cost", cost_values, policy_names=policy_names
            ),
            SeriesResult.from_array(
                "co-location-fraction", colocation_values, policy_names=policy_names
            ),
        ]
    }
    scalars = {
        f"{name}/cost": cost for name, cost in zip(policy_names, cost_values, strict=True)
    }
    scalars.update(
        {
            f"{name}/colocation": value
            for name, value in zip(policy_names, colocation_values, strict=True)
        }
    )
    return ExperimentResult(
        experiment_id="ablation-migration-policies",
        description="Cost and co-location of always-follow vs lazy/MDP migration policies",
        groups=groups,
        scalars=scalars,
        config=config.to_dict(),
    )


def run_rollout_vs_myopic(
    config: SyntheticExperimentConfig | None = None,
    *,
    n_runs: int = 50,
    lookahead: int = 5,
    n_rollouts: int = 4,
) -> ExperimentResult:
    """Future-work comparison: rollout MDP solver vs the myopic MO policy.

    The paper's Section IV-D notes that the myopic policy is only one
    possible solver for the online chaff-control MDP; this experiment runs
    the rollout solver side by side with MO (and OO as the offline optimum)
    against the basic ML eavesdropper.
    """
    config = config or SyntheticExperimentConfig()
    models = paper_synthetic_models(
        config.n_cells, seed=config.seed, backend=config.backend
    )
    strategies = {
        "MO": get_strategy("MO"),
        "ROLLOUT": RolloutOnlineStrategy(
            lookahead=lookahead, n_rollouts=n_rollouts
        ),
        "OO": get_strategy("OO"),
    }
    runs = min(config.n_runs, n_runs)
    labels = list(config.mobility_models)
    strategy_items = list(strategies.items())
    children = spawn_sequences(
        config.seed, len(labels) * len(strategy_items), key="ablation-rollout"
    )
    tasks = []
    for model_index, label in enumerate(labels):
        chain = models[label]
        for strategy_index, (_, strategy) in enumerate(strategy_items):
            child = children[model_index * len(strategy_items) + strategy_index]
            tasks.append(
                (chain, strategy, 2, runs, config.horizon, child)
            )
    all_stats = parallel_map(_monte_carlo_point, tasks, workers=config.workers)
    groups: dict[str, list[SeriesResult]] = {}
    scalars: dict[str, float] = {}
    for model_index, label in enumerate(labels):
        series_list = []
        for strategy_index, (name, _) in enumerate(strategy_items):
            stats = all_stats[model_index * len(strategy_items) + strategy_index]
            series_list.append(
                SeriesResult.from_array(
                    name,
                    stats.per_slot_accuracy,
                    index=list(range(1, stats.horizon + 1)),
                    tracking_accuracy=stats.tracking_accuracy,
                )
            )
            scalars[f"{label}/{name}"] = stats.tracking_accuracy
        groups[label] = series_list
    return ExperimentResult(
        experiment_id="ablation-rollout",
        description="Rollout MDP solver vs myopic online (MO) vs offline optimum (OO)",
        groups=groups,
        scalars=scalars,
        config=config.to_dict(),
    )


def _online_eavesdropper_point(task) -> dict[str, float]:
    """Offline-ML vs online-tracker scores for one mobility model."""
    chain, strategy, horizon, runs, child = task
    offline_detector = MaximumLikelihoodDetector()
    trackers = {"prefix-ml": PrefixMLTracker(), "bayesian": BayesianPosteriorTracker()}
    offline_scores = []
    tracker_scores: dict[str, list[float]] = {name: [] for name in trackers}
    for rng in spawn_generators(child, runs):
        user = chain.sample_trajectory(horizon, rng)
        chaffs = strategy.generate(chain, user, 1, rng)
        observed = np.concatenate([user[None, :], chaffs], axis=0)
        outcome = offline_detector.detect(chain, observed, rng)
        offline_scores.append(
            float(np.mean(observed[outcome.chosen_index] == user))
        )
        for name, tracker in trackers.items():
            result = tracker.track(chain, observed, user, rng)
            tracker_scores[name].append(result.tracking_accuracy)
    return {
        "offline-ml": float(np.mean(offline_scores)),
        **{name: float(np.mean(scores)) for name, scores in tracker_scores.items()},
    }


def run_online_eavesdropper_comparison(
    config: SyntheticExperimentConfig | None = None,
    *,
    strategy_name: str = "MO",
    n_runs: int = 50,
) -> ExperimentResult:
    """Extension: how much stronger is an online (per-slot) eavesdropper?

    Compares the paper's offline ML detector with the prefix-ML and
    Bayesian-posterior online trackers, all against the same chaff strategy.
    """
    _require_runs(n_runs)
    config = config or SyntheticExperimentConfig()
    models = paper_synthetic_models(
        config.n_cells, seed=config.seed, backend=config.backend
    )
    strategy = get_strategy(strategy_name)
    runs = min(config.n_runs, n_runs)
    labels = list(config.mobility_models)
    children = spawn_sequences(
        config.seed, len(labels), key="ablation-online-eavesdropper"
    )
    tasks = [
        (models[label], strategy, config.horizon, runs, child)
        for label, child in zip(labels, children, strict=True)
    ]
    points = parallel_map(_online_eavesdropper_point, tasks, workers=config.workers)
    groups: dict[str, list[SeriesResult]] = {}
    scalars: dict[str, float] = {}
    for label, values in zip(labels, points, strict=True):
        groups[label] = [
            SeriesResult.from_array(name, [value]) for name, value in values.items()
        ]
        for name, value in values.items():
            scalars[f"{label}/{name}"] = value
    return ExperimentResult(
        experiment_id="ablation-online-eavesdropper",
        description="Offline ML detector vs per-slot online trackers (extension)",
        groups=groups,
        scalars=scalars,
        config=config.to_dict(),
    )
