"""Monte-Carlo harness for adversaries whose state evolves across runs.

The fleet's own Monte-Carlo (:func:`repro.mec.fleet.run_fleet_monte_carlo`)
evaluates the detector inside the worker that simulated each run — fine
for stateless detectors, wrong for a *learning* adversary, whose model
after run ``r`` depends on every plane it has seen before.  This module
splits the two phases:

1. :func:`simulate_fleet_reports` — produce the ``R`` fleet reports,
   sharded over workers exactly like the fleet Monte-Carlo (children
   respawned by index), so the report sequence is bit-identical for any
   worker count;
2. :func:`run_adversary_monte_carlo` — walk the reports *in run order*
   through one adversary, letting stateful knowledge accumulate episode
   over episode, and aggregate the same statistics the fleet reports.

Because the defender's world never depends on the adversary, one
simulated report sequence can be replayed against many adversaries
(pass ``reports=``) — which is how the ``adversary`` experiment sweeps
the whole knowledge/coverage grid while paying for the simulation once.
"""

from __future__ import annotations

import numpy as np

from ..mec.fleet import (
    FleetReport,
    FleetSimulation,
    FleetStatistics,
    _episode_metrics,
    validate_execution_options,
)
from ..sim.parallel import get_shared, parallel_map, resolve_workers, shard_slices
from ..sim.seeding import spawn_sequences_range
from .detector import AdversaryDetector

__all__ = ["simulate_fleet_reports", "run_adversary_monte_carlo"]


def _report_shard_worker(task) -> list[FleetReport]:
    """Simulate one contiguous shard of runs (module-level for pools).

    The simulation travels through the parallel layer's shared channel
    (shipped once per worker, not pickled into every task).
    """
    seed, start, stop, engine, chunk_slots, run_stack = task
    simulation: FleetSimulation = get_shared()
    children = spawn_sequences_range(seed, start, stop)
    reports: list[FleetReport] = []
    for base in range(0, len(children), run_stack):
        reports.extend(
            simulation.run_stacked(
                children[base : base + run_stack],
                engine=engine,
                chunk_slots=chunk_slots,
            ).to_reports()
        )
    return reports


def simulate_fleet_reports(
    simulation: FleetSimulation,
    *,
    n_runs: int,
    seed: "int | np.random.SeedSequence",
    workers: int = 1,
    engine: str = "batch",
    chunk_slots: int = 64,
    run_stack: int = 1,
) -> list[FleetReport]:
    """The ``R`` fleet reports of a Monte-Carlo, in run order.

    Run ``k`` derives from child ``k`` of ``seed`` regardless of the
    worker count, so the list is bit-identical for any ``workers``
    (``0`` = all cores).  ``engine`` (``"batch"`` or ``"stream"``) and
    ``chunk_slots`` reach the slot kernel exactly as in
    :meth:`FleetSimulation.run`; ``run_stack`` folds that many runs of
    each shard into one pass of it
    (:func:`repro.mec.runstack.run_stacked`).  All of them are
    execution-only: the report list is bit-identical for every setting.
    They are validated here, before any worker starts.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be positive")
    validate_execution_options(engine, chunk_slots, run_stack)
    workers = min(resolve_workers(workers), n_runs)
    tasks = [
        (seed, shard.start, shard.stop, engine, chunk_slots, run_stack)
        for shard in shard_slices(n_runs, workers)
    ]
    shards = parallel_map(
        _report_shard_worker, tasks, workers=len(tasks), shared=simulation
    )
    return [report for shard in shards for report in shard]


def run_adversary_monte_carlo(
    simulation: FleetSimulation,
    adversary: AdversaryDetector,
    *,
    n_runs: int,
    seed: "int | np.random.SeedSequence",
    workers: int = 1,
    engine: str = "batch",
    chunk_slots: int = 64,
    run_stack: int = 1,
    reports: "list[FleetReport] | None" = None,
) -> FleetStatistics:
    """Score one adversary over a fleet Monte-Carlo, run by run.

    The reports are simulated first (sharded over ``workers``,
    bit-identical for any count) and then evaluated *serially in run
    order*: a learning adversary observes plane ``k`` while scoring run
    ``k`` and carries its model into run ``k + 1``, so warm-started
    knowledge genuinely improves episode over episode — and the result
    is still worker-count invariant, because only the simulation phase
    is parallel.  Pass a precomputed ``reports`` list to replay the same
    world against several adversaries.

    The adversary's knowledge state is *not* reset here; start from a
    fresh adversary (or call ``adversary.knowledge.reset()``) when runs
    must not inherit earlier episodes.
    """
    if reports is None:
        reports = simulate_fleet_reports(
            simulation,
            n_runs=n_runs,
            seed=seed,
            workers=workers,
            engine=engine,
            chunk_slots=chunk_slots,
            run_stack=run_stack,
        )
    if len(reports) != n_runs:
        raise ValueError(f"expected {n_runs} reports, got {len(reports)}")
    return FleetStatistics.from_runs(
        [_episode_metrics(simulation, report, adversary) for report in reports]
    )
