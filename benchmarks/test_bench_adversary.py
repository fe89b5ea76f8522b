"""Benchmarks of the adversary subsystem.

The acceptance bar: the vectorised masked crowd scoring must keep a
>= 5x edge over the naive per-decision loop reference (the oracle in
``tests/reference/``) at fleet scale
(M = 50 users, T = 100 slots, partial site coverage).  The suite also
tracks the learned-model fit throughput (censored-plane counting +
chain refits, the per-episode cost of a learning adversary) and the
cache-hit latency of the registered ``adversary`` experiment.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.adversary import (
    AdversaryDetector,
    LearnedKnowledge,
    OracleKnowledge,
    SiteCoverage,
)
from repro.core.strategies import get_strategy
from repro.mec.fleet import FleetSimulation, FleetSimulationConfig
from repro.mec.topology import MECTopology
from repro.mobility.grid import GridTopology
from repro.mobility.models import paper_synthetic_models
from repro.sim.cache import ResultCache
from repro.sim.config import AdversaryExperimentConfig

from reference import LoopReferenceAdversaryDetector


@pytest.fixture(scope="module")
def fleet_report():
    """One paper-scale fleet report (M = 50, T = 100) to score against."""
    chain = paper_synthetic_models(25, seed=2017)["non-skewed"]
    topology = MECTopology.from_grid(GridTopology(5, 5), capacity=8)
    simulation = FleetSimulation(
        topology,
        chain,
        strategy=get_strategy("IM"),
        config=FleetSimulationConfig(n_users=50, horizon=100, n_chaffs=1),
    )
    return chain, simulation.run(0)


def test_masked_crowd_batch_beats_naive_loop(fleet_report):
    """The acceptance bar: vectorised masked scoring >= 5x the loop at M=50.

    Both paths are bit-identical (pinned by ``tests/test_adversary.py``),
    so the ratio is pure execution speed of the masked kernels.
    """
    chain, report = fleet_report
    coverage = SiteCoverage(0.5, 7)
    fast = AdversaryDetector(OracleKnowledge(), coverage)
    slow = LoopReferenceAdversaryDetector(OracleKnowledge(), coverage)
    report.evaluate(chain, fast)  # warm-up: imports, coverage cache

    start = time.perf_counter()
    vectorised = report.evaluate(chain, fast)
    fast_seconds = time.perf_counter() - start

    start = time.perf_counter()
    looped = report.evaluate(chain, slow)
    slow_seconds = time.perf_counter() - start

    assert np.array_equal(vectorised.chosen_rows, looped.chosen_rows)
    speedup = slow_seconds / fast_seconds
    print(
        f"\nmasked crowd M=50 T=100 (50% coverage): "
        f"batch {fast_seconds * 1e3:.2f} ms, loop {slow_seconds * 1e3:.1f} ms, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= 5.0


def test_bench_masked_crowd_scoring(benchmark, fleet_report):
    """Vectorised masked crowd evaluation at fleet scale."""
    chain, report = fleet_report
    adversary = AdversaryDetector(OracleKnowledge(), SiteCoverage(0.5, 7))
    evaluation = benchmark(report.evaluate, chain, adversary)
    assert evaluation.chosen_rows.shape == (50,)


def test_bench_learned_model_fit_throughput(benchmark, fleet_report):
    """Learned-knowledge episode cost: censored counting + chain refit.

    One round = observe a full (N = 100, T = 100) plane and refit the
    scoring chain — the extra work a learning adversary pays per episode
    over the oracle.
    """
    chain, report = fleet_report
    plane = report.observations.trajectories
    knowledge = LearnedKnowledge()

    def one_episode():
        knowledge.observe(plane, chain.n_states)
        return knowledge.scoring_model(chain, None)

    model, stack = benchmark(one_episode)
    assert stack is None
    assert model.n_states == chain.n_states


def test_bench_adversary_experiment_cache_hit(benchmark, tmp_path_factory):
    """Cache-hit latency of the registered ``adversary`` experiment."""
    from repro.experiments.registry import run_experiment

    cache = ResultCache(tmp_path_factory.mktemp("adversary-cache"))
    config = AdversaryExperimentConfig(
        n_users=8,
        n_cells=9,
        site_capacity=4,
        horizon=16,
        n_runs=2,
        coverage_fractions=(0.3, 1.0),
        coalition_sizes=(1, 2),
    )
    run_experiment("adversary", config, cache=cache)  # populate
    result = benchmark(run_experiment, "adversary", config, cache=cache)
    assert result.experiment_id == "adversary"
    assert cache.hits >= 1
