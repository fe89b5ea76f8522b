"""Benchmarks of the dynamic-world fleet layer.

The acceptance bar: the masked batch kernel must keep its >= 5x edge over
the naive loop reference (the oracle in ``tests/reference/``) at paper
scale (M = 50, T = 100) *with an active
timeline* — regime switches, failures and churn all biting.  The suite
also tracks the cache-hit latency of the registered ``dynamic``
experiment.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.strategies import get_strategy
from repro.mec.fleet import FleetSimulation, FleetSimulationConfig
from repro.mec.topology import MECTopology
from repro.mobility.grid import GridTopology
from repro.mobility.models import paper_synthetic_models
from repro.world import dynamic_timeline

from reference import run_fleet, run_fleet_loop


@pytest.fixture(scope="module")
def dynamic_simulation():
    chains = paper_synthetic_models(25, seed=2017)
    timeline = dynamic_timeline(
        horizon=100,
        n_cells=25,
        n_users=50,
        seed=2017,
        regime_chains=(chains["temporally-skewed"],),
        regime_period=25,
        failure_rate=0.05,
        churn_rate=0.2,
    )
    topology = MECTopology.from_grid(GridTopology(5, 5), capacity=8)
    return FleetSimulation(
        topology,
        chains["non-skewed"],
        strategy=get_strategy("IM"),
        config=FleetSimulationConfig(n_users=50, horizon=100, n_chaffs=1),
        timeline=timeline,
    )


@pytest.mark.parametrize("engine", ["batch", "loop"])
def test_bench_dynamic_fleet_paper_scale(benchmark, dynamic_simulation, engine):
    """One dynamic-world fleet run at paper scale, batch and oracle."""
    report = benchmark.pedantic(
        run_fleet,
        args=(dynamic_simulation, 0, engine),
        rounds=1,
        iterations=1,
    )
    assert report.n_users == 50
    assert report.windows is not None  # churn really happened


def test_dynamic_masked_batch_beats_naive_loop(dynamic_simulation):
    """The acceptance bar: masked batch >= 5x the loop with a live world.

    Batch and the oracle stay bit-identical under any timeline (pinned by
    ``tests/test_dynamic_world.py``), so the ratio is pure execution
    speed of the masked kernels.
    """
    simulation = dynamic_simulation
    simulation.run(0)  # warm-up: imports, hop matrices, schedule caches

    start = time.perf_counter()
    batch = simulation.run(0, engine="batch")
    batch_seconds = time.perf_counter() - start

    start = time.perf_counter()
    loop = run_fleet_loop(simulation, 0)
    loop_seconds = time.perf_counter() - start

    assert np.array_equal(
        batch.observations.trajectories, loop.observations.trajectories
    )
    speedup = loop_seconds / batch_seconds
    print(
        f"\ndynamic fleet M=50 T=100 (regimes+failures+churn): "
        f"batch {batch_seconds * 1e3:.1f} ms, loop {loop_seconds * 1e3:.1f} ms, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= 5.0


def test_bench_dynamic_experiment_cache_hit(benchmark, tmp_path):
    """A dynamic cache hit must return the stored result in milliseconds."""
    from repro.experiments.registry import run_experiment
    from repro.sim.cache import ResultCache
    from repro.sim.config import DynamicExperimentConfig

    config = DynamicExperimentConfig(
        n_users=6,
        n_cells=9,
        site_capacity=3,
        horizon=16,
        n_runs=2,
        regime_period=5,
        failure_sweep=(0.0, 0.3),
        churn_sweep=(0.0, 0.5),
    )
    cache = ResultCache(tmp_path)
    run_experiment("dynamic", config, cache=cache)  # warm the cache

    def hit():
        return run_experiment("dynamic", config, cache=cache)

    result = benchmark(hit)
    assert result.experiment_id == "dynamic"
    assert cache.hits >= 1
