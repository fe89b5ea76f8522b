"""Micro-benchmarks of the core algorithms.

These measure the algorithmic building blocks the paper analyses:
the ML-trajectory Viterbi solve (O(T L^2)), the OO dynamic program
(O(i* T L^2), one user and a stacked batch against the per-trajectory
oracle), the myopic online controller and the ML detector.  They are
regular pytest-benchmark timings (multiple rounds) rather than one-shot
experiment regenerations.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.eavesdropper.detector import MaximumLikelihoodDetector
from repro.core.game import PrivacyGame
from repro.core.strategies import get_strategy, solve_optimal_offline
from repro.core.trellis import most_likely_trajectory
from repro.mobility.models import paper_synthetic_models, random_mobility_model
from repro.sim.monte_carlo import MonteCarloRunner

from reference import run_game_loop, solve_optimal_offline_loop


@pytest.fixture(scope="module")
def chain_small():
    return paper_synthetic_models(10)["non-skewed"]


@pytest.fixture(scope="module")
def chain_large():
    return random_mobility_model(100, rng=np.random.default_rng(0))


def _mean_seconds(benchmark) -> float | None:
    """Mean wall-clock seconds of a completed benchmark, if it timed."""
    stats = getattr(benchmark, "stats", None)
    return float(stats.stats.mean) if stats is not None else None


def test_bench_viterbi_small(benchmark, chain_small, bench_record):
    """Most likely trajectory, L = 10, T = 100."""
    trajectory = benchmark(most_likely_trajectory, chain_small, 100)
    assert trajectory.shape == (100,)
    mean = _mean_seconds(benchmark)
    if mean is not None:
        bench_record("core")["viterbi_small"] = {"mean_s": mean}


def test_bench_viterbi_large(benchmark, chain_large, bench_record):
    """Most likely trajectory, L = 100, T = 100."""
    trajectory = benchmark(most_likely_trajectory, chain_large, 100)
    assert trajectory.shape == (100,)
    mean = _mean_seconds(benchmark)
    if mean is not None:
        bench_record("core")["viterbi_large"] = {"mean_s": mean}


def test_bench_optimal_offline_small(benchmark, chain_small):
    """OO dynamic program, L = 10, T = 100."""
    rng = np.random.default_rng(1)
    user = chain_small.sample_trajectory(100, rng)
    result = benchmark(solve_optimal_offline, chain_small, user)
    assert result.chaff_cost <= result.user_cost + 1e-6


def test_bench_optimal_offline_large(benchmark, chain_large):
    """OO dynamic program, L = 100, T = 100 (trace-driven scale)."""
    rng = np.random.default_rng(2)
    user = chain_large.sample_trajectory(100, rng)
    result = benchmark(solve_optimal_offline, chain_large, user)
    assert result.chaff_cost <= result.user_cost + 1e-6


def _best_seconds(fn, repeats: int = 3) -> float:
    """Fastest of a few wall-clock timings of ``fn()``."""
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return min(timings)


def test_batched_optimal_offline_beats_per_trajectory_loop(chain_small, bench_record):
    """The acceptance bar: one stacked Algorithm 1 solve >= 3x the loop.

    B = 40 users, L = 10, T = 50 (one fig7 detector plane stack), solved
    as one layered DP versus one per-trajectory oracle call per user from
    ``tests/reference/``.  Both paths are bit-identical (pinned by
    ``tests/test_optimal_offline_batch.py``), so the ratio is pure
    execution speed.
    """
    users = chain_small.sample_trajectories(40, 50, np.random.default_rng(6))
    batch = solve_optimal_offline(chain_small, users)
    looped = [solve_optimal_offline_loop(chain_small, user) for user in users]
    assert np.array_equal(
        batch.trajectories, np.stack([result.trajectory for result in looped])
    )
    batch_seconds = _best_seconds(lambda: solve_optimal_offline(chain_small, users))
    loop_seconds = _best_seconds(
        lambda: [solve_optimal_offline_loop(chain_small, user) for user in users]
    )
    speedup = loop_seconds / batch_seconds
    print(
        f"\nOO B=40 L=10 T=50: batch {batch_seconds * 1e3:.2f} ms, "
        f"loop {loop_seconds * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    bench_record("core")["optimal_offline_batch"] = {
        "batch_s": batch_seconds,
        "loop_s": loop_seconds,
        "speedup": round(speedup, 1),
    }
    assert speedup >= 3.0


def test_bench_myopic_online(benchmark, chain_small):
    """Myopic online controller over T = 100 slots."""
    rng = np.random.default_rng(3)
    user = chain_small.sample_trajectory(100, rng)
    strategy = get_strategy("MO")

    def run():
        return strategy.generate(chain_small, user, 1, np.random.default_rng(0))

    chaffs = benchmark(run)
    assert chaffs.shape == (1, 100)


def test_bench_ml_detector_many_trajectories(benchmark, chain_large):
    """ML detection over 200 trajectories of length 100 (fleet scale)."""
    rng = np.random.default_rng(4)
    trajectories = chain_large.sample_trajectories(200, 100, rng)
    detector = MaximumLikelihoodDetector()

    def run():
        return detector.detect(chain_large, trajectories, np.random.default_rng(0))

    outcome = benchmark(run)
    assert 0 <= outcome.chosen_index < 200


def test_bench_trajectory_sampling(benchmark, chain_small):
    """Sampling a 1000-slot trajectory from the mobility model."""
    rng = np.random.default_rng(5)
    trajectory = benchmark(chain_small.sample_trajectory, 1000, rng)
    assert trajectory.shape == (1000,)


def _paper_scale_monte_carlo(chain, engine: str, workers: int = 1):
    """One full paper-scale point: IM (N = 2), 1000 runs, T = 100.

    ``engine="loop"`` plays it through the looped oracle of
    ``tests/reference/`` instead of the batch engine.
    """
    game = PrivacyGame(
        chain, get_strategy("IM"), MaximumLikelihoodDetector(), n_services=2
    )
    if engine == "loop":
        return run_game_loop(game, n_runs=1000, seed=0, horizon=100)
    runner = MonteCarloRunner(n_runs=1000, seed=0, workers=workers)
    return runner.run(game, horizon=100)


@pytest.mark.parametrize("engine", ["batch", "loop"])
def test_bench_monte_carlo_paper_scale(benchmark, chain_small, engine, bench_record):
    """Full Monte-Carlo point at paper scale (R = 1000, T = 100, L = 10).

    Run with the batch engine and the looped oracle so the batch-vs-loop
    speedup is visible in one benchmark table; a single round each keeps
    the suite fast (the looped oracle takes on the order of a second per
    round).
    """
    stats = benchmark.pedantic(
        _paper_scale_monte_carlo, args=(chain_small, engine), rounds=1, iterations=1
    )
    assert stats.n_episodes == 1000
    assert stats.horizon == 100
    mean = _mean_seconds(benchmark)
    if mean is not None:
        bench_record("core")[f"monte_carlo_{engine}"] = {"mean_s": mean}


def _paper_scale_sweep(chain, workers: int):
    """One full model group of Fig. 5 (all six series) at paper scale."""
    from repro.sim.runner import sweep_strategies

    specs = {
        "IM (N = 2)": ("IM", 2),
        "ML (N = 2)": ("ML", 2),
        "OO (N = 2)": ("OO", 2),
        "MO (N = 2)": ("MO", 2),
        "CML (N = 2)": ("CML", 2),
        "IM (N = 10)": ("IM", 10),
    }
    return sweep_strategies(
        chain,
        MaximumLikelihoodDetector(),
        specs,
        horizon=100,
        n_runs=1000,
        seed=0,
        workers=workers,
    )


@pytest.mark.parametrize("workers", [1, 4])
def test_bench_sweep_serial_vs_parallel(benchmark, chain_small, workers):
    """Serial vs process-pool execution of a paper-scale figure sweep.

    The parallel layer is bit-identical to serial (pinned by
    ``tests/test_parallel_engine.py``), so this benchmark isolates the
    wall-clock effect of mapping the six independent series over a pool.
    The speedup tracks the machine's core count; on a single-core runner
    the pooled timing only shows the (small) process overhead.
    """
    sweep = benchmark.pedantic(
        _paper_scale_sweep, args=(chain_small, workers), rounds=1, iterations=1
    )
    assert all(stats.n_episodes == 1000 for stats in sweep.statistics.values())


def test_bench_experiment_cache_hit(benchmark, chain_small, tmp_path):
    """A cache hit must return an ExperimentResult in milliseconds."""
    from repro.experiments.registry import run_experiment
    from repro.sim.cache import ResultCache
    from repro.sim.config import SyntheticExperimentConfig

    config = SyntheticExperimentConfig(n_runs=60, horizon=60)
    cache = ResultCache(tmp_path)
    run_experiment("fig5", config, cache=cache)  # warm the cache

    def hit():
        return run_experiment("fig5", config, cache=cache)

    result = benchmark(hit)
    assert result.experiment_id == "fig5"
    assert cache.hits >= 1
