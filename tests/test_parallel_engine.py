"""Parallel-equivalence and result-cache tests.

Mirrors ``tests/test_batch_engine.py`` one level up: the sharded
process-pool execution layer must be *bit-identical* to the serial
engines for the same master seed, regardless of the worker count, and
the on-disk result cache must round-trip ``ExperimentResult`` objects
and miss on any config change.  Also pins the seeding discipline: all
experiment streams are spawned children, pairwise distinct across
series, runs and neighbouring master seeds.

The worker count is taken from ``REPRO_TEST_WORKERS`` (default 2) so CI
can exercise the process-pool path explicitly.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.eavesdropper import (
    MaximumLikelihoodDetector,
    RandomGuessDetector,
    StrategyAwareDetector,
)
from repro.core.game import PrivacyGame
from repro.core.strategies import get_strategy
from repro.experiments import registry
from repro.experiments.registry import run_experiment
from repro.mobility.models import paper_synthetic_models
from repro.sim.cache import (
    EXECUTION_ONLY_KEYS,
    ResultCache,
    experiment_cache_key,
)
from repro.sim.config import (
    AdversaryExperimentConfig,
    DynamicExperimentConfig,
    FleetExperimentConfig,
    SyntheticExperimentConfig,
)
from repro.sim.monte_carlo import MonteCarloRunner
from repro.sim.parallel import (
    concatenate_batches,
    parallel_map,
    resolve_workers,
    shard_slices,
)
from repro.sim.results import ExperimentResult, SeriesResult
from repro.sim.runner import sweep_strategies
from repro.sim.seeding import (
    as_seed_sequence,
    spawn_generators,
    spawn_sequences,
    spawn_sequences_range,
)

from reference import run_game_loop

N_RUNS = 12
HORIZON = 10
SEED = 2017

#: Worker count exercised by the equivalence tests (CI pins it to 2).
WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))


@pytest.fixture(scope="module")
def chain():
    return paper_synthetic_models(8, seed=1)["spatially-skewed"]


def assert_stats_equal(a, b):
    assert np.array_equal(a.per_slot_accuracy, b.per_slot_accuracy)
    assert a.tracking_accuracy == b.tracking_accuracy
    assert a.detection_accuracy == b.detection_accuracy
    assert a.n_episodes == b.n_episodes


class TestShardSlices:
    def test_cover_range_contiguously(self):
        for n_items in (1, 5, 12, 100):
            for n_shards in (1, 2, 3, 7, 200):
                slices = shard_slices(n_items, n_shards)
                covered = [i for s in slices for i in range(s.start, s.stop)]
                assert covered == list(range(n_items))
                sizes = [s.stop - s.start for s in slices]
                assert max(sizes) - min(sizes) <= 1
                assert all(size > 0 for size in sizes)

    def test_validation(self):
        with pytest.raises(ValueError):
            shard_slices(0, 2)
        with pytest.raises(ValueError):
            shard_slices(5, 0)

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestParallelEquivalence:
    @pytest.mark.parametrize("name", ["IM", "ML", "MO", "OO", "CML", "RMO"])
    def test_workers_match_serial(self, chain, name):
        game = PrivacyGame(
            chain, get_strategy(name), MaximumLikelihoodDetector(), n_services=3
        )
        serial = MonteCarloRunner(n_runs=N_RUNS, seed=SEED, workers=1)
        sharded = MonteCarloRunner(n_runs=N_RUNS, seed=SEED, workers=WORKERS)
        assert_stats_equal(
            serial.run(game, horizon=HORIZON), sharded.run(game, horizon=HORIZON)
        )

    @pytest.mark.parametrize(
        "detector_factory",
        [
            MaximumLikelihoodDetector,
            RandomGuessDetector,
            lambda: StrategyAwareDetector(get_strategy("MO")),
        ],
    )
    def test_detectors_match_serial(self, chain, detector_factory):
        game = PrivacyGame(
            chain, get_strategy("RML"), detector_factory(), n_services=3
        )
        serial = MonteCarloRunner(n_runs=N_RUNS, seed=SEED, workers=1)
        sharded = MonteCarloRunner(n_runs=N_RUNS, seed=SEED, workers=WORKERS)
        assert_stats_equal(
            serial.run(game, horizon=HORIZON), sharded.run(game, horizon=HORIZON)
        )

    def test_uneven_shards_and_all_cores(self, chain):
        game = PrivacyGame(
            chain, get_strategy("IM"), MaximumLikelihoodDetector(), n_services=2
        )
        reference = MonteCarloRunner(n_runs=7, seed=3, workers=1).run(
            game, horizon=HORIZON
        )
        for workers in (2, 3, 4, 0):
            stats = MonteCarloRunner(n_runs=7, seed=3, workers=workers).run(
                game, horizon=HORIZON
            )
            assert_stats_equal(reference, stats)

    def test_loop_engine_matches_serial(self, chain):
        game = PrivacyGame(
            chain, get_strategy("MO"), MaximumLikelihoodDetector(), n_services=2
        )
        serial = run_game_loop(game, n_runs=N_RUNS, seed=SEED, horizon=HORIZON)
        sharded = MonteCarloRunner(n_runs=N_RUNS, seed=SEED, workers=WORKERS)
        assert_stats_equal(serial, sharded.run(game, horizon=HORIZON))

    def test_run_batch_concatenates_in_run_order(self, chain):
        game = PrivacyGame(
            chain, get_strategy("IM"), MaximumLikelihoodDetector(), n_services=2
        )
        serial = MonteCarloRunner(n_runs=N_RUNS, seed=SEED, workers=1).run_batch(
            game, horizon=HORIZON
        )
        sharded = MonteCarloRunner(
            n_runs=N_RUNS, seed=SEED, workers=WORKERS
        ).run_batch(game, horizon=HORIZON)
        assert np.array_equal(serial.user_trajectories, sharded.user_trajectories)
        assert np.array_equal(serial.chaff_trajectories, sharded.chaff_trajectories)
        assert np.array_equal(
            serial.observed_trajectories, sharded.observed_trajectories
        )
        assert np.array_equal(
            serial.detection.chosen_indices, sharded.detection.chosen_indices
        )
        assert np.array_equal(serial.detection.scores, sharded.detection.scores)
        assert np.array_equal(serial.tracked_per_slot, sharded.tracked_per_slot)
        assert np.array_equal(serial.detected_user, sharded.detected_user)

    def test_provider_path_matches_serial(self, chain):
        """Providers draw from the per-run generators before the episode,
        so the parallel path must ship the consumed generator state."""
        game = PrivacyGame(
            chain, get_strategy("IM"), MaximumLikelihoodDetector(), n_services=2
        )

        def provider(run, rng):
            return chain.sample_trajectory(HORIZON, rng)

        serial = MonteCarloRunner(n_runs=N_RUNS, seed=SEED, workers=1).run(
            game, user_trajectory_provider=provider
        )
        sharded = MonteCarloRunner(n_runs=N_RUNS, seed=SEED, workers=WORKERS).run(
            game, user_trajectory_provider=provider
        )
        assert_stats_equal(serial, sharded)

    def test_ragged_background_provider_matches_serial(self, chain):
        game = PrivacyGame(
            chain, get_strategy("IM"), MaximumLikelihoodDetector(), n_services=2
        )

        def provider(run, rng):
            return chain.sample_trajectories(1 + run % 2, HORIZON, rng)

        serial = MonteCarloRunner(n_runs=N_RUNS, seed=SEED, workers=1).run(
            game, horizon=HORIZON, background_provider=provider
        )
        sharded = MonteCarloRunner(n_runs=N_RUNS, seed=SEED, workers=WORKERS).run(
            game, horizon=HORIZON, background_provider=provider
        )
        assert_stats_equal(serial, sharded)

    def test_sweep_grid_parallel_matches_serial(self, chain):
        specs = {"IM (N = 2)": ("IM", 2), "MO (N = 3)": ("MO", 3)}
        kwargs = dict(horizon=HORIZON, n_runs=8, seed=5)
        serial = sweep_strategies(
            chain, MaximumLikelihoodDetector(), specs, workers=1, **kwargs
        )
        pooled = sweep_strategies(
            chain, MaximumLikelihoodDetector(), specs, workers=WORKERS, **kwargs
        )
        for label in specs:
            assert_stats_equal(serial.statistics[label], pooled.statistics[label])

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            MonteCarloRunner(n_runs=2, workers=-1)

    def test_concatenate_batches_requires_input(self):
        with pytest.raises(ValueError):
            concatenate_batches([])


def _square(value: int) -> int:
    return value * value


class TestParallelMap:
    def test_preserves_order(self):
        items = list(range(9))
        assert parallel_map(_square, items, workers=1) == [i * i for i in items]
        assert parallel_map(_square, items, workers=WORKERS) == [
            i * i for i in items
        ]

    def test_empty(self):
        assert parallel_map(_square, [], workers=WORKERS) == []


class TestSeedingDiscipline:
    def test_spawned_streams_pairwise_distinct(self):
        """Children spawned for neighbouring master seeds never collide —
        the regression the old ``seed + offset`` arithmetic failed."""
        states = set()
        for seed in (SEED, SEED + 1, SEED + 2):
            for child in spawn_sequences(seed, 8):
                states.add(tuple(child.generate_state(4)))
        assert len(states) == 3 * 8

    def test_sweep_series_do_not_alias_across_seeds(self, chain):
        """Series k of a seed=S sweep must differ from series k-1 of a
        seed=S+1 sweep (the old arithmetic made them share a master seed)."""
        specs = {"A": ("IM", 2), "B": ("IM", 2)}
        sweep_a = sweep_strategies(
            chain,
            MaximumLikelihoodDetector(),
            specs,
            horizon=HORIZON,
            n_runs=10,
            seed=SEED,
        )
        sweep_b = sweep_strategies(
            chain,
            MaximumLikelihoodDetector(),
            specs,
            horizon=HORIZON,
            n_runs=10,
            seed=SEED + 1,
        )
        assert not np.array_equal(
            sweep_a.statistics["B"].per_slot_accuracy,
            sweep_b.statistics["A"].per_slot_accuracy,
        )

    def test_as_seed_sequence_is_spawn_stable(self):
        root = np.random.SeedSequence(SEED)
        root.spawn(3)  # advance the caller's spawn counter
        fresh = as_seed_sequence(root)
        assert fresh.entropy == root.entropy
        assert [
            tuple(c.generate_state(2)) for c in fresh.spawn(2)
        ] == [
            tuple(c.generate_state(2))
            for c in np.random.SeedSequence(SEED).spawn(2)
        ]

    def test_runner_accepts_seed_sequence(self, chain):
        game = PrivacyGame(
            chain, get_strategy("IM"), MaximumLikelihoodDetector(), n_services=2
        )
        child = np.random.SeedSequence(SEED).spawn(1)[0]
        a = MonteCarloRunner(n_runs=5, seed=child).run(game, horizon=HORIZON)
        b = MonteCarloRunner(n_runs=5, seed=child).run(game, horizon=HORIZON)
        assert_stats_equal(a, b)

    def test_spawn_generators_repeatable(self):
        draws_a = [rng.random() for rng in spawn_generators(SEED, 4)]
        draws_b = [rng.random() for rng in spawn_generators(SEED, 4)]
        assert draws_a == draws_b
        assert len(set(draws_a)) == 4

    def test_experiment_keys_separate_streams(self):
        """Two experiments sharing config.seed must not replay the same
        children — the experiment id is mixed into the master entropy."""
        states = set()
        for key in (None, "fig5", "fig7", "ablation-chaff-budget"):
            for child in spawn_sequences(SEED, 4, key=key):
                states.add(tuple(child.generate_state(4)))
        assert len(states) == 4 * 4

    def test_key_is_deterministic(self):
        a = spawn_sequences(SEED, 3, key="fig5")
        b = spawn_sequences(SEED, 3, key="fig5")
        assert [tuple(x.generate_state(4)) for x in a] == [
            tuple(x.generate_state(4)) for x in b
        ]

    def test_key_rejected_for_spawned_children(self):
        child = np.random.SeedSequence(SEED).spawn(1)[0]
        with pytest.raises(ValueError):
            spawn_sequences(child, 2, key="fig5")

    def test_spawn_range_matches_sliced_spawn(self):
        full = spawn_sequences(SEED, 9)
        ranged = spawn_sequences_range(SEED, 3, 7)
        assert [tuple(x.generate_state(4)) for x in full[3:7]] == [
            tuple(x.generate_state(4)) for x in ranged
        ]
        child = np.random.SeedSequence(SEED).spawn(2)[1]
        assert [
            tuple(x.generate_state(4)) for x in spawn_sequences(child, 6)[2:5]
        ] == [tuple(x.generate_state(4)) for x in spawn_sequences_range(child, 2, 5)]
        with pytest.raises(ValueError):
            spawn_sequences_range(SEED, 4, 2)


def _dummy_result(value: float = 1.0) -> ExperimentResult:
    return ExperimentResult(
        experiment_id="dummy",
        description="cache test fixture",
        groups={"g": [SeriesResult.from_array("s", [value, value + 1.0])]},
        scalars={"v": value},
        config={"n_runs": 3},
    )


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = experiment_cache_key("dummy", {"n_runs": 3}, version="1.0.0")
        assert cache.get(key) is None
        assert cache.misses == 1
        result = _dummy_result()
        path = cache.put(key, result)
        assert path.exists()
        restored = cache.get(key)
        assert restored == result
        assert cache.hits == 1

    def test_config_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        key_a = experiment_cache_key("dummy", {"n_runs": 3}, version="1.0.0")
        key_b = experiment_cache_key("dummy", {"n_runs": 4}, version="1.0.0")
        key_c = experiment_cache_key("dummy", {"n_runs": 3}, version="1.0.1")
        assert len({key_a, key_b, key_c}) == 3
        cache.put(key_a, _dummy_result())
        assert cache.get(key_b) is None
        assert cache.get(key_c) is None

    def test_execution_only_keys_shared(self):
        assert set(EXECUTION_ONLY_KEYS) == {
            "workers",
            "backend",
            "stream",
            "chunk_slots",
            "run_stack",
            "telemetry",
            "metrics_out",
            "trace_out",
        }
        base = {"n_runs": 3, "workers": 1, "backend": "dense"}
        variant = {
            "n_runs": 3,
            "workers": 8,
            "backend": "sparse",
            "stream": True,
            "chunk_slots": 7,
            "run_stack": 16,
            "telemetry": True,
            "metrics_out": "metrics.json",
            "trace_out": "trace.json",
        }
        assert experiment_cache_key("dummy", base) == experiment_cache_key(
            "dummy", variant
        )

    def test_fleet_family_cache_keys_pinned(self):
        # Digests computed while every config still carried an ``engine``
        # field: it was already execution-only, so removing it moved no
        # key of the default fleet, dynamic and adversary configs.
        pinned = {
            "fleet": "b54554293ff27280875f5f3ed8efe67d054907422956095ec1844a3fa66f7398",
            "dynamic": "faed0eb2429b7abdd9ec3ab9198dc889fb2499026206c3c1ec9b06c6cf8ba652",
            "adversary": "23af97e307d85ff686c22b2c3246a88a3911f318d50b374399abe6bf6ba2c0fc",
        }
        configs = {
            "fleet": FleetExperimentConfig(),
            "dynamic": DynamicExperimentConfig(),
            "adversary": AdversaryExperimentConfig(),
        }
        for experiment_id, config in configs.items():
            key = experiment_cache_key(experiment_id, config.to_dict(), version="pin")
            assert key == pinned[experiment_id], experiment_id

    def test_unserialisable_extra_uncacheable(self):
        key = experiment_cache_key("dummy", {"n_runs": 3}, extra={"fn": object()})
        assert key is None

    @pytest.mark.parametrize(
        "payload",
        [
            "{not json",
            '{"experiment_id": "fig5", "groups": []}',
            '{"experiment_id": "fig5", "scalars": {"a": null}}',
            '{"description": "missing id"}',
        ],
    )
    def test_corrupt_entry_is_a_miss(self, tmp_path, payload):
        cache = ResultCache(tmp_path)
        key = experiment_cache_key("dummy", {"n_runs": 3}, version="1.0.0")
        cache.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(key).write_text(payload)
        assert cache.get(key) is None
        # The entry stays overwritable after the miss.
        cache.put(key, _dummy_result())
        assert cache.get(key) == _dummy_result()

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = experiment_cache_key("dummy", {"n_runs": 3}, version="1.0.0")
        cache.put(key, _dummy_result())
        assert cache.clear() == 1
        assert cache.get(key) is None


class TestRegistryCacheWiring:
    @pytest.fixture()
    def counting_experiment(self, monkeypatch):
        calls = {"count": 0}

        def fake_experiment(config=None):
            calls["count"] += 1
            return _dummy_result(float(calls["count"]))

        monkeypatch.setitem(registry.EXPERIMENTS, "dummy-cached", fake_experiment)
        return calls

    def test_hit_skips_execution(self, tmp_path, counting_experiment):
        config = SyntheticExperimentConfig(n_runs=3, horizon=5)
        first = run_experiment("dummy-cached", config, cache=tmp_path)
        second = run_experiment("dummy-cached", config, cache=tmp_path)
        assert counting_experiment["count"] == 1
        assert first == second

    def test_config_change_reruns(self, tmp_path, counting_experiment):
        run_experiment(
            "dummy-cached", SyntheticExperimentConfig(n_runs=3, horizon=5),
            cache=tmp_path,
        )
        run_experiment(
            "dummy-cached", SyntheticExperimentConfig(n_runs=4, horizon=5),
            cache=tmp_path,
        )
        assert counting_experiment["count"] == 2

    def test_workers_share_cache_entries(self, tmp_path, counting_experiment):
        run_experiment(
            "dummy-cached",
            SyntheticExperimentConfig(n_runs=3, horizon=5, workers=1),
            cache=tmp_path,
        )
        run_experiment(
            "dummy-cached",
            SyntheticExperimentConfig(n_runs=3, horizon=5, workers=4),
            cache=tmp_path,
        )
        assert counting_experiment["count"] == 1

    def test_no_cache_runs_every_time(self, counting_experiment):
        config = SyntheticExperimentConfig(n_runs=3, horizon=5)
        run_experiment("dummy-cached", config)
        run_experiment("dummy-cached", config)
        assert counting_experiment["count"] == 2
