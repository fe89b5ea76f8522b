"""The multi-user fleet experiment: crowd privacy and per-user cost.

The paper's figures evaluate one user against an eavesdropper who sees
only that user's services.  The fleet experiment runs the shared-MEC
regime instead: ``M`` users co-hosted on one capacity-constrained grid
deployment, every placement resolved by the capacity engine, and the
eavesdropper scored per user against the union of all service
trajectories.  Two sweeps are reported:

* **population sweep** — detection/tracking accuracy and mean per-user
  cost versus the number of users ``M`` at a fixed site capacity
  (crowd-blending: per-user detection shrinks as the crowd grows);
* **capacity sweep** — the same metrics versus the per-site capacity at a
  fixed population (capacity pressure: tight sites reject migrations,
  which lowers migration cost but decouples services from their users).

Every sweep point gets its own child of the config seed (mixed with the
experiment id), points are independent and mapped over a process pool
when ``config.workers`` asks for one, and the fleet Monte-Carlo inside a
point is itself sharded bit-identically — so the whole experiment result
is a pure function of the config, cacheable like every other experiment.
"""

from __future__ import annotations

from ..core.eavesdropper.detector import MaximumLikelihoodDetector
from ..core.strategies.base import get_strategy
from ..mec.fleet import FleetSimulation, FleetSimulationConfig, run_fleet_monte_carlo
from ..mec.topology import MECTopology
from ..mobility.grid import GridTopology
from ..mobility.models import paper_synthetic_models
from ..sim.config import FleetExperimentConfig
from ..sim.parallel import parallel_map
from ..sim.results import ExperimentResult, SeriesResult
from ..sim.seeding import spawn_sequences
from ..telemetry import NULL_RECORDER

__all__ = ["run_fleet_experiment", "grid_dimensions"]


def grid_dimensions(n_cells: int) -> tuple[int, int]:
    """The densest (rows, cols) grid factorisation of ``n_cells``."""
    if n_cells < 1:
        raise ValueError("n_cells must be positive")
    rows = int(n_cells**0.5)
    while n_cells % rows:
        rows -= 1
    return rows, n_cells // rows


def _fleet_point(task) -> "tuple[dict[str, float], dict | None]":
    """One (population, capacity) fleet point; module-level for pools.

    Returns the point's numbers plus the point-local telemetry state
    (``None`` when telemetry is off) so the sweep driver can merge the
    per-point recorders back with worker attribution.
    """
    (
        chain,
        n_cells,
        capacity,
        n_users,
        n_chaffs,
        horizon,
        strategy_name,
        n_runs,
        child,
        engine,
        workers,
        chunk_slots,
        run_stack,
        spec,
    ) = task
    recorder = NULL_RECORDER if spec is None else spec.build()
    rows, cols = grid_dimensions(n_cells)
    topology = MECTopology.from_grid(GridTopology(rows, cols), capacity=capacity)
    simulation = FleetSimulation(
        topology,
        chain,
        strategy=get_strategy(strategy_name) if n_chaffs > 0 else None,
        config=FleetSimulationConfig(
            n_users=n_users, horizon=horizon, n_chaffs=n_chaffs
        ),
    )
    with recorder.span("point", users=n_users, capacity=capacity):
        statistics = run_fleet_monte_carlo(
            simulation,
            n_runs=n_runs,
            seed=child,
            detector=MaximumLikelihoodDetector(),
            workers=workers,
            engine=engine,
            chunk_slots=chunk_slots,
            run_stack=run_stack,
            recorder=recorder,
        )
    point = {
        "detection": statistics.mean_detection,
        "tracking": statistics.mean_tracking,
        "per_user_cost": statistics.mean_cost_per_user,
        "migrations": statistics.mean_migrations,
        "rejected": statistics.mean_rejected,
        "spilled": statistics.mean_spilled,
    }
    return point, (recorder.to_state() if spec is not None else None)


def _sweep_series(
    points: list[dict[str, float]], index: list[int]
) -> list[SeriesResult]:
    """The four reported series of one sweep."""
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
            "rejected-migrations", [p["rejected"] for p in points], index=index
        ),
    ]


def run_fleet_experiment(
    config: FleetExperimentConfig | None = None,
    recorder=NULL_RECORDER,
) -> ExperimentResult:
    """Crowd privacy and per-user cost vs population size and site capacity."""
    config = config or FleetExperimentConfig()
    chain = paper_synthetic_models(
        config.n_cells, seed=config.seed, backend=config.backend
    )[config.mobility_model]
    populations = list(config.populations())
    capacities = list(config.capacities())
    children = spawn_sequences(
        config.seed, len(populations) + len(capacities), key="fleet"
    )
    # One sweep point cannot use grid parallelism, so hand the workers to
    # the fleet's run-sharding layer instead (mirrors sweep_strategies).
    n_points = len(populations) + len(capacities)
    point_workers = config.workers if n_points == 1 else 1
    spec = recorder.spawn_spec() if recorder.enabled else None
    tasks = []
    for index, n_users in enumerate(populations):
        tasks.append(
            (
                chain,
                config.n_cells,
                config.site_capacity,
                n_users,
                config.n_chaffs,
                config.horizon,
                config.strategy,
                config.n_runs,
                children[index],
                "stream" if config.stream else "batch",
                point_workers,
                config.chunk_slots,
                config.run_stack,
                spec,
            )
        )
    for index, capacity in enumerate(capacities):
        tasks.append(
            (
                chain,
                config.n_cells,
                capacity,
                config.n_users,
                config.n_chaffs,
                config.horizon,
                config.strategy,
                config.n_runs,
                children[len(populations) + index],
                "stream" if config.stream else "batch",
                point_workers,
                config.chunk_slots,
                config.run_stack,
                spec,
            )
        )
    outcomes = parallel_map(
        _fleet_point,
        tasks,
        workers=1 if n_points == 1 else config.workers,
        recorder=recorder,
    )
    for index, (_, state) in enumerate(outcomes):
        if state is not None:
            recorder.merge(state, worker=index + 1)
    points = [point for point, _ in outcomes]
    population_points = points[: len(populations)]
    capacity_points = points[len(populations) :]
    groups = {
        f"population (capacity = {config.site_capacity})": _sweep_series(
            population_points, populations
        ),
        f"capacity (users = {config.n_users})": _sweep_series(
            capacity_points, capacities
        ),
    }
    largest = population_points[-1]
    tightest = capacity_points[0]
    scalars = {
        "detection_at_max_population": largest["detection"],
        "per_user_cost_at_max_population": largest["per_user_cost"],
        "rejected_at_min_capacity": tightest["rejected"],
        "crowd_blending_gain": population_points[0]["detection"]
        - largest["detection"],
    }
    return ExperimentResult(
        experiment_id="fleet",
        description=(
            "Multi-user capacity-aware fleet: per-user detection/tracking "
            "accuracy and cost vs population size and site capacity"
        ),
        groups=groups,
        scalars=scalars,
        config=config.to_dict(),
    )
