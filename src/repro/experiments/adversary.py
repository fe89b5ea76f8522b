"""The adversary-ladder experiment: knowledge x coverage vs privacy.

The paper scores privacy against one fixed adversary — an oracle that
knows the true mobility model and watches every site.  This experiment
asks the operational question instead: *how much does an attacker need
to know and see before privacy collapses?*  One fleet Monte-Carlo is
simulated (on a regime-switching world, so regime-blind knowledge is
meaningfully handicapped) and the **same** report sequence is replayed
against a grid of adversaries:

* **coverage sweep** — for every knowledge level, detection/tracking
  versus the fraction of compromised sites (a single seeded view,
  nested across fractions);
* **coalition sweep** — for every knowledge level, detection versus the
  number of colluding partial views (each member compromising its own
  seeded fraction of the sites).

Because the defender's world never depends on the adversary, the
reports are simulated once — sharded over ``config.workers``
bit-identically — and every grid point is a deterministic, serial
replay (learning adversaries accumulate their model episode over
episode in run order).  The whole result is a pure function of the
config: cacheable, and invariant to the worker count and run stack.
"""

from __future__ import annotations

import numpy as np

from ..adversary import (
    AdversaryDetector,
    FullCoverage,
    ScoreComponentCache,
    SiteCoverage,
    coalition_coverage,
    make_knowledge,
)
from ..adversary.monte_carlo import run_adversary_monte_carlo, simulate_fleet_reports
from ..core.strategies.base import get_strategy
from ..mec.fleet import FleetSimulation, FleetSimulationConfig
from ..mec.topology import MECTopology
from ..mobility.grid import GridTopology
from ..mobility.models import paper_synthetic_models
from ..sim.config import AdversaryExperimentConfig
from ..sim.results import ExperimentResult, SeriesResult
from ..sim.seeding import spawn_sequences
from ..world.generators import dynamic_timeline
from ..world.timeline import Timeline
from .fleet import grid_dimensions

__all__ = ["run_adversary_experiment"]


def _build_simulation(
    config: AdversaryExperimentConfig, world_seed: np.random.SeedSequence
) -> FleetSimulation:
    """The shared fleet simulation every adversary point replays."""
    chains = paper_synthetic_models(config.n_cells, seed=config.seed)
    chain = chains[config.mobility_model]
    rows, cols = grid_dimensions(config.n_cells)
    topology = MECTopology.from_grid(
        GridTopology(rows, cols), capacity=config.site_capacity
    )
    timeline = Timeline()
    if config.regime_model is not None and config.regime_period is not None:
        timeline = dynamic_timeline(
            horizon=config.horizon,
            n_cells=config.n_cells,
            n_users=config.n_users,
            seed=world_seed,
            regime_chains=(chains[config.regime_model],),
            regime_period=config.regime_period,
        )
    return FleetSimulation(
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


def _evaluate_point(config, simulation, reports, level, coverage, score_cache):
    """Detection/tracking of one fresh (knowledge, coverage) adversary.

    The adversary itself is fresh per point (knowledge must not leak
    across the grid); the score cache is shared, so the gather tables of
    each plane are built once and reused across every coverage mask and
    every stateless knowledge level — bit-identically.
    """
    adversary = AdversaryDetector(
        make_knowledge(
            level, smoothing=config.smoothing, warm_start=config.warm_start
        ),
        coverage,
        score_cache=score_cache,
    )
    statistics = run_adversary_monte_carlo(
        simulation,
        adversary,
        n_runs=len(reports),
        seed=config.seed,  # unused: reports are precomputed
        reports=reports,
    )
    return {
        "detection": statistics.mean_detection,
        "tracking": statistics.mean_tracking,
    }


def run_adversary_experiment(
    config: AdversaryExperimentConfig | None = None,
) -> ExperimentResult:
    """Detection and tracking across the knowledge/coverage ladder."""
    config = config or AdversaryExperimentConfig()
    world_seed, run_seed, coverage_seed = spawn_sequences(
        config.seed, 3, key="adversary"
    )
    simulation = _build_simulation(config, world_seed)
    reports = simulate_fleet_reports(
        simulation,
        n_runs=config.n_runs,
        seed=run_seed,
        workers=config.workers,
        run_stack=config.run_stack,
    )
    score_cache = ScoreComponentCache()

    fractions = [float(f) for f in config.coverage_fractions]
    sizes = [int(s) for s in config.coalition_sizes]
    levels = list(config.knowledge_levels)

    def single_view(fraction: float):
        # fraction 1.0 is exact full coverage (no rounding ambiguity).
        if fraction >= 1.0:
            return FullCoverage()
        return SiteCoverage(fraction, coverage_seed)

    coverage_points: dict[str, list[dict[str, float]]] = {}
    coalition_points: dict[str, list[dict[str, float]]] = {}
    for level in levels:
        coverage_points[level] = [
            _evaluate_point(
                config, simulation, reports, level, single_view(f), score_cache
            )
            for f in fractions
        ]
        coalition_points[level] = [
            _evaluate_point(
                config,
                simulation,
                reports,
                level,
                coalition_coverage(s, config.coalition_fraction, coverage_seed),
                score_cache,
            )
            for s in sizes
        ]

    coverage_series = []
    for level in levels:
        points = coverage_points[level]
        coverage_series.append(
            SeriesResult.from_array(
                f"detection [{level}]",
                [p["detection"] for p in points],
                index=fractions,
            )
        )
        coverage_series.append(
            SeriesResult.from_array(
                f"tracking [{level}]",
                [p["tracking"] for p in points],
                index=fractions,
            )
        )
    coalition_series = [
        SeriesResult.from_array(
            f"detection [{level}]",
            [p["detection"] for p in coalition_points[level]],
            index=sizes,
        )
        for level in levels
    ]
    groups = {
        "coverage-fraction (single view)": coverage_series,
        f"coalition-size (fraction = {config.coalition_fraction} per member)": (
            coalition_series
        ),
    }

    costs = np.array([report.per_user_cost.mean() for report in reports])
    widest = fractions.index(max(fractions))
    narrowest = fractions.index(min(fractions))
    scalars: dict[str, float] = {
        "defender_cost_per_user": float(costs.mean()),
        # Deterministic for a given config: same planes, same grid walk.
        "score_cache_hit_ratio": float(score_cache.stats()["hit_ratio"]),
    }
    for level in levels:
        points = coverage_points[level]
        scalars[f"detection_{level}_at_max_coverage"] = points[widest]["detection"]
        scalars[f"coverage_gain_{level}"] = (
            points[widest]["detection"] - points[narrowest]["detection"]
        )
    if "oracle" in levels:
        oracle_best = coverage_points["oracle"][widest]["detection"]
        for level in levels:
            if level != "oracle":
                scalars[f"knowledge_gap_{level}"] = (
                    oracle_best - coverage_points[level][widest]["detection"]
                )
    return ExperimentResult(
        experiment_id="adversary",
        description=(
            "Adversary knowledge/coverage ladder: per-user detection and "
            "tracking vs knowledge level (oracle / learned / stale), "
            "compromised-site fraction and coalition size, on one shared "
            "fleet Monte-Carlo"
        ),
        groups=groups,
        scalars=scalars,
        config=config.to_dict(),
    )
