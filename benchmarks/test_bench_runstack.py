"""Benchmarks of the run-stacked fleet Monte-Carlo and the score cache.

The headline measurement runs the paper-scale fleet Monte-Carlo
(R = 100 episodes, M = 10 users, T = 200 slots on a 5x5 grid with ample
capacity) twice — once per episode, once with every episode of the
shard folded into a single pass of the slot kernel — and asserts the
stacked path is at least 5x faster *and* bit-identical, per run, to the
per-episode path.  Ample capacity matters: under contention the stacked
placement falls back to the serial greedy walk for the contending runs,
which is still correct but erodes the amortisation the benchmark pins.

Around the headline: a stack/engine/worker identity sweep at reduced
scale, the adversary coverage sweep with the score-component cache (hit
ratio asserted and recorded), and the IPC payload of a Monte-Carlo
shard task now that ``parallel_map`` ships the simulation through the
shared channel instead of pickling it into every task.

Every measured number lands in ``BENCH_runstack.json`` (written by
``conftest.pytest_sessionfinish``) so CI can archive and diff it.
"""

from __future__ import annotations

import pickle
import time
import tracemalloc

import numpy as np
import pytest

from repro.adversary import (
    AdversaryDetector,
    FullCoverage,
    ScoreComponentCache,
    SiteCoverage,
    make_knowledge,
)
from repro.adversary.monte_carlo import (
    run_adversary_monte_carlo,
    simulate_fleet_reports,
)
from repro.core.eavesdropper.detector import MaximumLikelihoodDetector
from repro.core.strategies import get_strategy
from repro.mec.fleet import (
    FleetSimulation,
    FleetSimulationConfig,
    run_fleet_monte_carlo,
)
from repro.mec.topology import MECTopology
from repro.mobility.grid import GridTopology
from repro.mobility.models import paper_synthetic_models

#: The locked headline shape: paper-scale R, ample capacity (see module
#: docstring), a horizon long enough for the slot kernel to dominate.
N_RUNS = 100
N_USERS = 10
HORIZON = 200
CAPACITY = 30


@pytest.fixture(scope="module")
def chain25():
    return paper_synthetic_models(25, seed=2017)["non-skewed"]


def _simulation(
    chain, n_users: int = N_USERS, horizon: int = HORIZON
) -> FleetSimulation:
    topology = MECTopology.from_grid(GridTopology(5, 5), capacity=CAPACITY)
    return FleetSimulation(
        topology,
        chain,
        strategy=get_strategy("IM"),
        config=FleetSimulationConfig(
            n_users=n_users, horizon=horizon, n_chaffs=1
        ),
    )


def _best_of(fn, trials: int = 3):
    """(best wall-clock seconds, last result) over ``trials`` calls."""
    best = float("inf")
    result = None
    for _ in range(trials):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _assert_statistics_identical(expected, got) -> None:
    for name in (
        "tracking_runs",
        "detection_runs",
        "cost_runs",
        "migrations_runs",
        "rejected_runs",
        "spilled_runs",
        "evicted_runs",
        "stranded_runs",
    ):
        assert np.array_equal(getattr(expected, name), getattr(got, name)), name


def test_bench_runstack_speedup(benchmark, chain25, runstack_record):
    """Stacked Monte-Carlo is >= 5x the per-episode path, bit-identically.

    Both paths run the same R = 100 episodes from the same seed; the
    stacked one advances one (S*N)-wide slot kernel and scores one
    (S*M, N, T) detector batch instead of R of each.  Best-of-3 timing
    keeps scheduling noise out of the ratio.
    """
    detector = MaximumLikelihoodDetector()

    def per_episode():
        return run_fleet_monte_carlo(
            _simulation(chain25),
            n_runs=N_RUNS,
            seed=2017,
            detector=detector,
            run_stack=1,
        )

    def stacked():
        return run_fleet_monte_carlo(
            _simulation(chain25),
            n_runs=N_RUNS,
            seed=2017,
            detector=detector,
            run_stack=N_RUNS,
        )

    stacked()  # warm-up: first call pays the allocator and import costs
    stacked_seconds, stacked_stats = _best_of(stacked)
    episode_seconds, episode_stats = _best_of(per_episode)
    _assert_statistics_identical(episode_stats, stacked_stats)

    speedup = episode_seconds / stacked_seconds
    assert speedup >= 5.0, (
        f"stacked path is only {speedup:.2f}x the per-episode path "
        f"({stacked_seconds:.2f}s vs {episode_seconds:.2f}s)"
    )

    tracemalloc.start()
    try:
        benchmark.pedantic(stacked, rounds=1, iterations=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    numbers = {
        "runs": N_RUNS,
        "users": N_USERS,
        "horizon": HORIZON,
        "per_episode_seconds": round(episode_seconds, 3),
        "stacked_seconds": round(stacked_seconds, 3),
        "speedup": round(speedup, 2),
        "stacked_peak_heap_mb": round(peak / 1e6, 1),
    }
    benchmark.extra_info["runstack"] = numbers
    runstack_record["speedup"] = numbers
    print(
        f"\nrun-stacked: {episode_seconds:.2f}s per-episode vs "
        f"{stacked_seconds:.2f}s stacked = {speedup:.2f}x "
        f"(peak heap {peak / 1e6:.1f} MB)"
    )


@pytest.mark.parametrize("run_stack", [1, 3, 25])
@pytest.mark.parametrize("engine", ["batch", "stream"])
@pytest.mark.parametrize("workers", [1, 2])
def test_bench_runstack_identity_sweep(chain25, run_stack, engine, workers):
    """Every stack/engine/worker combo reproduces run_stack=1 bit-for-bit.

    Reduced scale (R = 25, T = 60) so the full grid stays fast; the
    contract is the same one the headline benchmark and the tier-1 suite
    pin at their own scales.
    """
    reference = run_fleet_monte_carlo(
        _simulation(chain25, horizon=60),
        n_runs=25,
        seed=7,
        detector=MaximumLikelihoodDetector(),
        workers=1,
        run_stack=1,
    )
    combo = run_fleet_monte_carlo(
        _simulation(chain25, horizon=60),
        n_runs=25,
        seed=7,
        detector=MaximumLikelihoodDetector(),
        workers=workers,
        engine=engine,
        chunk_slots=17,
        run_stack=run_stack,
    )
    _assert_statistics_identical(reference, combo)


def test_bench_score_cache_coverage_sweep(benchmark, chain25, runstack_record):
    """The coverage sweep reuses cached score components, bit-identically.

    One report set, two knowledge levels x four coverage views: every
    point after the first re-gathers from the cached stationary and
    step tables instead of rebuilding them, so the sweep's hit ratio
    must be substantial — and the scores must not move by a bit.
    """
    simulation = _simulation(chain25, horizon=100)
    reports = simulate_fleet_reports(simulation, n_runs=10, seed=5)
    coverage_seed = np.random.SeedSequence(11)
    grid = [
        FullCoverage(),
        SiteCoverage(0.8, coverage_seed),
        SiteCoverage(0.5, coverage_seed),
        SiteCoverage(0.2, coverage_seed),
    ]

    def sweep(cache):
        points = []
        for level in ("oracle", "stale"):
            for coverage in grid:
                adversary = AdversaryDetector(
                    make_knowledge(level), coverage, score_cache=cache
                )
                statistics = run_adversary_monte_carlo(
                    simulation,
                    adversary,
                    n_runs=len(reports),
                    seed=0,
                    reports=reports,
                )
                points.append(
                    (statistics.detection_runs, statistics.tracking_runs)
                )
        return points

    plain = sweep(None)
    cache = ScoreComponentCache()
    start = time.perf_counter()
    cached = benchmark.pedantic(sweep, args=(cache,), rounds=1, iterations=1)
    cached_seconds = time.perf_counter() - start
    for (d_a, t_a), (d_b, t_b) in zip(plain, cached, strict=True):
        assert np.array_equal(d_a, d_b)
        assert np.array_equal(t_a, t_b)
    stats = cache.stats()
    assert stats["hits"] > 0
    assert stats["hit_ratio"] >= 0.5, stats
    numbers = {
        "hit_ratio": round(stats["hit_ratio"], 3),
        "hits": stats["hits"],
        "misses": stats["misses"],
        "sweep_seconds": round(cached_seconds, 3),
    }
    benchmark.extra_info["score_cache"] = numbers
    runstack_record["score_cache"] = numbers
    print(f"\nscore cache: {stats}")


def test_bench_shard_task_payload(chain25, runstack_record):
    """Shard tasks no longer pickle the simulation; the shared channel does.

    The old task tuples carried the full FleetSimulation (chain, hop
    matrix, strategy, cost model) into every worker task; the new ones
    carry only the detector, seed and execution knobs, and the
    simulation ships once per worker.  Pin the payload reduction.
    """
    simulation = _simulation(chain25)
    detector = MaximumLikelihoodDetector()
    seed = np.random.SeedSequence(2017)
    slim_task = (detector, seed, 0, 25, "batch", 64, 1, 25)
    old_task = (simulation,) + slim_task
    slim_bytes = len(pickle.dumps(slim_task))
    old_bytes = len(pickle.dumps(old_task))
    assert slim_bytes * 10 <= old_bytes, (slim_bytes, old_bytes)
    numbers = {
        "task_bytes": slim_bytes,
        "task_bytes_with_simulation": old_bytes,
        "reduction": round(old_bytes / slim_bytes, 1),
    }
    runstack_record["ipc_payload"] = numbers
    print(f"\nshard task payload: {numbers}")
