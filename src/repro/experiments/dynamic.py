"""The dynamic-world fleet experiment: privacy and cost on a live MEC.

Every other experiment freezes the world for the whole episode.  This one
runs the multi-user fleet against a :class:`~repro.world.timeline.Timeline`
— periodic mobility-regime switches, Poisson site failures with geometric
downtimes, and user churn — and reports how non-stationarity moves the
privacy/cost operating point:

* **failure sweep** — detection/tracking accuracy, per-user cost and
  forced evictions versus the site failure rate (churn held at the
  config's rate);
* **churn sweep** — the same metrics versus the fraction of transient
  users (failures held at the config's rate).

Each sweep point compiles one timeline from its own spawned child of the
config seed (mixed with the experiment id), so the whole result is a pure
function of the config and caches like every other experiment; the fleet
Monte-Carlo inside a point shards bit-identically over workers.
"""

from __future__ import annotations

from ..core.eavesdropper.detector import MaximumLikelihoodDetector
from ..core.strategies.base import get_strategy
from ..mec.fleet import FleetSimulation, FleetSimulationConfig, run_fleet_monte_carlo
from ..mec.topology import MECTopology
from ..mobility.grid import GridTopology
from ..mobility.models import paper_synthetic_models
from ..sim.config import DynamicExperimentConfig
from ..sim.parallel import parallel_map
from ..sim.results import ExperimentResult, SeriesResult
from ..sim.seeding import spawn_sequences
from ..world.generators import dynamic_timeline
from .fleet import grid_dimensions

__all__ = ["run_dynamic_experiment"]


def _dynamic_point(task) -> dict[str, float]:
    """One (failure rate, churn rate) fleet point; module-level for pools."""
    config, failure_rate, churn_rate, child, workers = task
    chains = paper_synthetic_models(config.n_cells, seed=config.seed)
    chain = chains[config.mobility_model]
    regime_chains = ()
    if config.regime_model is not None and config.regime_period is not None:
        regime_chains = (chains[config.regime_model],)
    rows, cols = grid_dimensions(config.n_cells)
    topology = MECTopology.from_grid(
        GridTopology(rows, cols), capacity=config.site_capacity
    )
    timeline = dynamic_timeline(
        horizon=config.horizon,
        n_cells=config.n_cells,
        n_users=config.n_users,
        seed=child,
        regime_chains=regime_chains,
        regime_period=config.regime_period,
        failure_rate=failure_rate,
        churn_rate=churn_rate,
        mean_downtime=config.mean_downtime,
    )
    simulation = FleetSimulation(
        topology,
        chain,
        strategy=get_strategy(config.strategy) if config.n_chaffs > 0 else None,
        config=FleetSimulationConfig(
            n_users=config.n_users,
            horizon=config.horizon,
            n_chaffs=config.n_chaffs,
        ),
        timeline=timeline,
    )
    statistics = run_fleet_monte_carlo(
        simulation,
        n_runs=config.n_runs,
        seed=child,
        detector=MaximumLikelihoodDetector(),
        workers=workers,
    )
    return {
        "detection": statistics.mean_detection,
        "tracking": statistics.mean_tracking,
        "per_user_cost": statistics.mean_cost_per_user,
        "migrations": statistics.mean_migrations,
        "rejected": statistics.mean_rejected,
        "evicted": statistics.mean_evicted,
        "stranded": statistics.mean_stranded,
    }


def _sweep_series(
    points: list[dict[str, float]], index: list[float]
) -> list[SeriesResult]:
    """The reported series of one sweep."""
    return [
        SeriesResult.from_array(
            "detection-accuracy", [p["detection"] for p in points], index=index
        ),
        SeriesResult.from_array(
            "tracking-accuracy", [p["tracking"] for p in points], index=index
        ),
        SeriesResult.from_array(
            "per-user-cost", [p["per_user_cost"] for p in points], index=index
        ),
        SeriesResult.from_array(
            "forced-evictions", [p["evicted"] for p in points], index=index
        ),
        SeriesResult.from_array(
            "rejected-migrations", [p["rejected"] for p in points], index=index
        ),
    ]


def run_dynamic_experiment(
    config: DynamicExperimentConfig | None = None,
) -> ExperimentResult:
    """Privacy and per-user cost vs site failure rate and user churn rate."""
    config = config or DynamicExperimentConfig()
    failure_rates = list(config.failure_rates())
    churn_rates = list(config.churn_rates())
    children = spawn_sequences(
        config.seed, len(failure_rates) + len(churn_rates), key="dynamic"
    )
    n_points = len(failure_rates) + len(churn_rates)
    point_workers = config.workers if n_points == 1 else 1
    tasks = []
    for index, failure_rate in enumerate(failure_rates):
        tasks.append(
            (config, failure_rate, config.churn_rate, children[index], point_workers)
        )
    for index, churn_rate in enumerate(churn_rates):
        tasks.append(
            (
                config,
                config.failure_rate,
                churn_rate,
                children[len(failure_rates) + index],
                point_workers,
            )
        )
    points = parallel_map(
        _dynamic_point, tasks, workers=1 if n_points == 1 else config.workers
    )
    failure_points = points[: len(failure_rates)]
    churn_points = points[len(failure_rates) :]
    groups = {
        f"failure-rate (churn = {config.churn_rate})": _sweep_series(
            failure_points, failure_rates
        ),
        f"churn-rate (failures = {config.failure_rate})": _sweep_series(
            churn_points, churn_rates
        ),
    }
    # Sweeps may be listed in any order: "max"/"min" scalars go by the
    # rates themselves, not the listing position.
    hottest = failure_points[failure_rates.index(max(failure_rates))]
    calmest = failure_points[failure_rates.index(min(failure_rates))]
    churniest = churn_points[churn_rates.index(max(churn_rates))]
    scalars = {
        "detection_at_max_failure_rate": hottest["detection"],
        "evictions_at_max_failure_rate": hottest["evicted"],
        "failure_privacy_shift": hottest["detection"] - calmest["detection"],
        "detection_at_max_churn": churniest["detection"],
        "cost_at_max_churn": churniest["per_user_cost"],
    }
    return ExperimentResult(
        experiment_id="dynamic",
        description=(
            "Dynamic-world fleet: per-user detection/tracking accuracy, "
            "cost and forced evictions vs site failure rate and user churn "
            "rate on a live MEC (regime switches included)"
        ),
        groups=groups,
        scalars=scalars,
        config=config.to_dict(),
    )
