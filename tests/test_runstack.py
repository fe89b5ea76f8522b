"""Tests for the run-stacked fleet Monte-Carlo and the score cache.

The load-bearing contract is **stack-size bit-identity**: folding
``run_stack`` episodes into one pass of the slot kernel must reproduce
the per-episode path bit-for-bit — every per-run FleetStatistics array,
every report field — for any stack size, engine, worker count and
timeline, because each run's RNG draws still come from that run's own
SeedSequence children in the canonical order.  Around that sit the
satellite suites: ``simulate_fleet_reports``'s execution knobs, the
``parallel_map`` shared-object channel that ships one simulation per
worker instead of one per task, the adversary score-component cache
(hits, LRU eviction, digest-based invalidation, cached-vs-uncached
bit-identity across the coverage grid), and the config/CLI plumbing of
the ``run_stack`` knob.

The worker count for sharded tests comes from ``REPRO_TEST_WORKERS``
(default 2) so CI can pin the multi-process path.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.adversary import (
    AdversaryDetector,
    FullCoverage,
    ScoreComponentCache,
    SiteCoverage,
    coalition_coverage,
    make_knowledge,
)
from repro.adversary.monte_carlo import (
    run_adversary_monte_carlo,
    simulate_fleet_reports,
)
from repro.adversary.score_cache import array_digest, chain_digest
from repro.cli import _build_config, build_parser
from repro.core.eavesdropper.detector import (
    MaximumLikelihoodDetector,
    RandomGuessDetector,
)
from repro.core.strategies import get_strategy
from repro.mec.fleet import (
    FleetSimulation,
    FleetSimulationConfig,
    run_fleet_monte_carlo,
)
from repro.mec.topology import MECTopology
from repro.mobility.grid import GridTopology
from repro.mobility.models import paper_synthetic_models
from repro.sim.cache import EXECUTION_ONLY_KEYS, experiment_cache_key
from repro.sim.config import AdversaryExperimentConfig, FleetExperimentConfig
from repro.sim.parallel import get_shared, parallel_map
from repro.world import (
    CapacityChange,
    RegimeSwitch,
    SiteDown,
    SiteUp,
    Timeline,
    UserArrival,
    UserDeparture,
)

from reference import loop_engine, run_fleet_loop

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))

HORIZON = 30
N_RUNS = 5
#: Stack sizes from the issue: per-episode, a split, the whole shard.
STACK_SIZES = (1, 3, N_RUNS)


@pytest.fixture(scope="module")
def chain9():
    return paper_synthetic_models(9, seed=2017)["non-skewed"]


@pytest.fixture(scope="module")
def regime9():
    return paper_synthetic_models(9, seed=2017)["temporally-skewed"]


@pytest.fixture(scope="module")
def grid9():
    return MECTopology.from_grid(GridTopology(3, 3), capacity=4)


def _edge_timeline(regime) -> Timeline:
    """A rich dynamic world (same event mix as the streaming tests)."""
    return Timeline(
        events=(
            RegimeSwitch(slot=7, regime=1),
            RegimeSwitch(slot=21, regime=0),
            SiteDown(slot=7, cell=4),
            SiteUp(slot=14, cell=4),
            CapacityChange(slot=14, cell=0, capacity=1),
            SiteDown(slot=28, cell=1),
            UserArrival(slot=7, user=2),
            UserDeparture(slot=28, user=2),
            UserDeparture(slot=14, user=0),
            UserArrival(slot=21, user=5),
        ),
        regime_chains=(regime,),
    )


def _make_sim(chain, grid, timeline=None) -> FleetSimulation:
    return FleetSimulation(
        grid,
        chain,
        strategy=get_strategy("IM"),
        config=FleetSimulationConfig(
            n_users=6, horizon=HORIZON, n_chaffs=(1, 2, 1, 0, 2, 1)
        ),
        timeline=timeline,
    )


def assert_statistics_identical(expected, got) -> None:
    """Bit-identity across every per-run FleetStatistics array."""
    assert np.array_equal(expected.tracking_runs, got.tracking_runs)
    assert np.array_equal(expected.detection_runs, got.detection_runs)
    assert np.array_equal(expected.cost_runs, got.cost_runs)
    assert np.array_equal(expected.migrations_runs, got.migrations_runs)
    assert np.array_equal(expected.rejected_runs, got.rejected_runs)
    assert np.array_equal(expected.spilled_runs, got.spilled_runs)
    assert np.array_equal(expected.evicted_runs, got.evicted_runs)
    assert np.array_equal(expected.stranded_runs, got.stranded_runs)


def assert_reports_identical(expected, got) -> None:
    """Bit-identity across every field the paper's figures consume."""
    assert np.array_equal(expected.user_trajectories, got.user_trajectories)
    assert np.array_equal(
        expected.observations.trajectories, got.observations.trajectories
    )
    assert np.array_equal(
        expected.observations.service_ids, got.observations.service_ids
    )
    assert np.array_equal(
        expected.observations.owner_ids, got.observations.owner_ids
    )
    assert np.array_equal(
        expected.observations.real_rows, got.observations.real_rows
    )
    assert expected.placement.as_dict() == got.placement.as_dict()
    if expected.windows is None:
        assert got.windows is None
    else:
        assert np.array_equal(expected.windows, got.windows)
    if expected.transition_stack is None:
        assert got.transition_stack is None
    else:
        assert np.array_equal(expected.transition_stack, got.transition_stack)
    for want, have in zip(expected.ledgers, got.ledgers, strict=True):
        assert want.migration_total == have.migration_total
        assert want.communication_total == have.communication_total
        assert want.chaff_total == have.chaff_total
        assert want.migrations == have.migrations
        assert want.per_slot_totals == have.per_slot_totals


# ----------------------------------------------------------------------
# Tentpole: stacked Monte-Carlo bit-identity across every knob
# ----------------------------------------------------------------------


class TestStackedMonteCarloIdentity:
    @pytest.fixture(scope="class")
    def reference(self, chain9, regime9, grid9):
        """Per-service loop-reference statistics, one per timeline flavour.

        The oracle is the independent per-service walk of
        ``tests/reference/``: batch and stream runs are themselves stacks
        of one, so a batch reference would compare the stacked driver
        against itself.
        """

        def build(dynamic: bool):
            timeline = _edge_timeline(regime9) if dynamic else None
            with loop_engine():
                return run_fleet_monte_carlo(
                    _make_sim(chain9, grid9, timeline),
                    n_runs=N_RUNS,
                    seed=2017,
                    detector=MaximumLikelihoodDetector(),
                    workers=1,
                )

        return {False: build(False), True: build(True)}

    @pytest.mark.parametrize("run_stack", STACK_SIZES)
    @pytest.mark.parametrize("engine", ["batch", "stream"])
    @pytest.mark.parametrize("workers", [1, WORKERS])
    @pytest.mark.parametrize("dynamic", [False, True])
    def test_fuzz_sweep(
        self, chain9, regime9, grid9, reference, run_stack, engine, workers, dynamic
    ):
        timeline = _edge_timeline(regime9) if dynamic else None
        stacked = run_fleet_monte_carlo(
            _make_sim(chain9, grid9, timeline),
            n_runs=N_RUNS,
            seed=2017,
            detector=MaximumLikelihoodDetector(),
            workers=workers,
            engine=engine,
            chunk_slots=7,
            run_stack=run_stack,
        )
        assert_statistics_identical(reference[dynamic], stacked)

    def test_random_guess_detector(self, chain9, grid9):
        plain = run_fleet_monte_carlo(
            _make_sim(chain9, grid9),
            n_runs=N_RUNS,
            seed=11,
            detector=RandomGuessDetector(),
            run_stack=1,
        )
        stacked = run_fleet_monte_carlo(
            _make_sim(chain9, grid9),
            n_runs=N_RUNS,
            seed=11,
            detector=RandomGuessDetector(),
            run_stack=N_RUNS,
        )
        assert_statistics_identical(plain, stacked)

    def test_stack_larger_than_the_shard(self, chain9, grid9, reference):
        stacked = run_fleet_monte_carlo(
            _make_sim(chain9, grid9),
            n_runs=N_RUNS,
            seed=2017,
            detector=MaximumLikelihoodDetector(),
            run_stack=64,
        )
        assert_statistics_identical(reference[False], stacked)

    def test_run_stack_validation(self, chain9, grid9):
        with pytest.raises(ValueError, match="run_stack"):
            run_fleet_monte_carlo(
                _make_sim(chain9, grid9), n_runs=2, seed=1, run_stack=0
            )


class TestExecutionOptionValidation:
    """Bad execution options fail in the parent, before any pool starts."""

    @pytest.fixture
    def no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("parallel_map must not be reached")

        monkeypatch.setattr("repro.mec.fleet.parallel_map", refuse)
        monkeypatch.setattr("repro.adversary.monte_carlo.parallel_map", refuse)

    @pytest.mark.parametrize(
        "options, match",
        [
            ({"engine": "bogus"}, "engine"),
            ({"engine": "batch", "chunk_slots": 0}, "chunk_slots"),
            ({"engine": "stream", "chunk_slots": -3}, "chunk_slots"),
            ({"engine": "stream", "run_stack": 0}, "run_stack"),
        ],
    )
    def test_rejected_before_the_pool(
        self, chain9, grid9, no_pool, options, match
    ):
        sim = _make_sim(chain9, grid9)
        with pytest.raises(ValueError, match=match):
            run_fleet_monte_carlo(sim, n_runs=4, seed=1, workers=2, **options)
        with pytest.raises(ValueError, match=match):
            simulate_fleet_reports(sim, n_runs=4, seed=1, workers=2, **options)


# ----------------------------------------------------------------------
# Stacked outcome: reports and the fast metrics path
# ----------------------------------------------------------------------


class TestStackedRunOutcome:
    @pytest.mark.parametrize("engine", ["batch", "stream"])
    @pytest.mark.parametrize("dynamic", [False, True])
    def test_to_reports_matches_per_episode_runs(
        self, chain9, regime9, grid9, engine, dynamic
    ):
        timeline = _edge_timeline(regime9) if dynamic else None
        seeds = [np.random.SeedSequence(40 + k) for k in range(3)]
        outcome = _make_sim(chain9, grid9, timeline).run_stacked(
            seeds, engine=engine, chunk_slots=7
        )
        assert outcome.run_stack == 3
        reports = outcome.to_reports()
        for seed, report in zip(seeds, reports, strict=True):
            expected = run_fleet_loop(_make_sim(chain9, grid9, timeline), seed)
            assert_reports_identical(expected, report)
            evaluation = expected.evaluate(chain9, MaximumLikelihoodDetector())
            got = report.evaluate(chain9, MaximumLikelihoodDetector())
            assert np.array_equal(evaluation.chosen_rows, got.chosen_rows)
            assert np.array_equal(
                evaluation.detected_per_user, got.detected_per_user
            )

    def test_collect_per_slot_false_blocks_reports(self, chain9, grid9):
        outcome = _make_sim(chain9, grid9).run_stacked(
            [1, 2, 3], collect_per_slot=False
        )
        with pytest.raises(ValueError, match="collect_per_slot"):
            outcome.to_reports()

    @pytest.mark.parametrize("engine", ["batch", "stream"])
    def test_collect_per_slot_false_keeps_metrics(self, chain9, grid9, engine):
        detector = MaximumLikelihoodDetector()
        full = _make_sim(chain9, grid9).run_stacked(
            [1, 2, 3], engine=engine, chunk_slots=7
        )
        lean = _make_sim(chain9, grid9).run_stacked(
            [1, 2, 3], engine=engine, chunk_slots=7, collect_per_slot=False
        )
        for want, have in zip(
            full.to_metrics(detector), lean.to_metrics(detector), strict=True
        ):
            for a, b in zip(want, have, strict=True):
                assert np.array_equal(a, b)

    def test_rejects_empty_and_bad_engine(self, chain9, grid9):
        sim = _make_sim(chain9, grid9)
        with pytest.raises(ValueError, match="at least one seed"):
            sim.run_stacked([])
        with pytest.raises(ValueError, match="engine"):
            sim.run_stacked([1, 2], engine="loop")


# ----------------------------------------------------------------------
# simulate_fleet_reports execution knobs (satellite: missing knobs)
# ----------------------------------------------------------------------


class TestSimulateFleetReportsKnobs:
    @pytest.fixture(scope="class")
    def reference_reports(self, chain9, grid9):
        return simulate_fleet_reports(
            _make_sim(chain9, grid9), n_runs=4, seed=77, workers=1
        )

    @pytest.mark.parametrize("workers", [1, WORKERS])
    def test_stream_knobs_are_invisible(
        self, chain9, grid9, reference_reports, workers
    ):
        streamed = simulate_fleet_reports(
            _make_sim(chain9, grid9),
            n_runs=4,
            seed=77,
            workers=workers,
            engine="stream",
            chunk_slots=7,
        )
        for expected, got in zip(reference_reports, streamed, strict=True):
            assert_reports_identical(expected, got)

    @pytest.mark.parametrize("run_stack", [3, 4])
    @pytest.mark.parametrize("workers", [1, WORKERS])
    def test_run_stack_is_invisible(
        self, chain9, grid9, reference_reports, run_stack, workers
    ):
        stacked = simulate_fleet_reports(
            _make_sim(chain9, grid9),
            n_runs=4,
            seed=77,
            workers=workers,
            run_stack=run_stack,
        )
        for expected, got in zip(reference_reports, stacked, strict=True):
            assert_reports_identical(expected, got)

    def test_dynamic_world_run_stack(self, chain9, regime9, grid9):
        timeline = _edge_timeline(regime9)
        plain = simulate_fleet_reports(
            _make_sim(chain9, grid9, timeline), n_runs=3, seed=13
        )
        stacked = simulate_fleet_reports(
            _make_sim(chain9, grid9, timeline),
            n_runs=3,
            seed=13,
            engine="stream",
            chunk_slots=7,
            run_stack=3,
        )
        for expected, got in zip(plain, stacked, strict=True):
            assert_reports_identical(expected, got)

    def test_validation(self, chain9, grid9):
        sim = _make_sim(chain9, grid9)
        with pytest.raises(ValueError, match="n_runs"):
            simulate_fleet_reports(sim, n_runs=0, seed=1)
        with pytest.raises(ValueError, match="run_stack"):
            simulate_fleet_reports(sim, n_runs=2, seed=1, run_stack=0)


# ----------------------------------------------------------------------
# parallel_map shared channel (satellite: per-task pickling)
# ----------------------------------------------------------------------


def _shared_probe(task):
    """Module-level so process pools can pickle it."""
    payload = get_shared()
    return (task, None if payload is None else payload["tag"])


class TestSharedChannel:
    def test_serial_binds_and_restores(self):
        assert get_shared() is None
        results = parallel_map(
            _shared_probe, [1, 2], workers=1, shared={"tag": "fleet"}
        )
        assert results == [(1, "fleet"), (2, "fleet")]
        assert get_shared() is None

    def test_workers_see_the_shared_object(self):
        results = parallel_map(
            _shared_probe,
            list(range(4)),
            workers=WORKERS,
            shared={"tag": "fleet"},
        )
        assert results == [(k, "fleet") for k in range(4)]
        assert get_shared() is None

    def test_without_shared_workers_read_none(self):
        assert parallel_map(_shared_probe, [7], workers=1) == [(7, None)]


# ----------------------------------------------------------------------
# Score-component cache
# ----------------------------------------------------------------------


class TestScoreComponentCache:
    def test_hit_miss_counters(self):
        cache = ScoreComponentCache()
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1) or 42) == 42
        assert cache.get_or_compute("k", lambda: calls.append(1) or 42) == 42
        assert len(calls) == 1
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "entries": 1,
            "hit_ratio": 0.5,
        }

    def test_lru_eviction(self):
        cache = ScoreComponentCache(max_entries=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 1)  # refresh: "b" is now oldest
        cache.get_or_compute("c", lambda: 3)  # evicts "b"
        assert cache.evictions == 1
        assert len(cache) == 2
        recomputed = []
        cache.get_or_compute("b", lambda: recomputed.append(1) or 2)
        assert recomputed == [1]

    def test_clear_resets_everything(self):
        cache = ScoreComponentCache()
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("a", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hit_ratio"] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="max_entries"):
            ScoreComponentCache(max_entries=0)

    def test_array_digest_is_content_addressed(self):
        a = np.arange(6).reshape(2, 3)
        assert array_digest(a) == array_digest(a.copy())
        assert array_digest(a) != array_digest(a.astype(float))
        assert array_digest(a) != array_digest(a.reshape(3, 2))
        assert array_digest(None) == "none"

    def test_chain_digest_tracks_the_model(self, chain9):
        other = paper_synthetic_models(9, seed=2017)["temporally-skewed"]
        assert chain_digest(chain9) == chain_digest(chain9)
        assert chain_digest(chain9) != chain_digest(other)


class TestCachedAdversaryScoring:
    @pytest.fixture(scope="class")
    def world(self, chain9, grid9):
        simulation = _make_sim(chain9, grid9)
        reports = simulate_fleet_reports(simulation, n_runs=3, seed=99)
        return simulation, reports

    def _statistics(self, world, level, coverage, cache):
        simulation, reports = world
        adversary = AdversaryDetector(
            make_knowledge(level), coverage, score_cache=cache
        )
        return run_adversary_monte_carlo(
            simulation,
            adversary,
            n_runs=len(reports),
            seed=0,
            reports=reports,
        )

    def test_coverage_grid_is_bit_identical_and_reuses_tables(
        self, chain9, world
    ):
        coverage_seed = np.random.SeedSequence(31)
        grid = [
            FullCoverage(),
            SiteCoverage(0.6, coverage_seed),
            SiteCoverage(0.3, coverage_seed),
            coalition_coverage(2, 0.4, coverage_seed),
        ]
        cache = ScoreComponentCache()
        for level in ("oracle", "stale"):
            for coverage in grid:
                plain = self._statistics(world, level, coverage, None)
                cached = self._statistics(world, level, coverage, cache)
                assert_statistics_identical(plain, cached)
        # The same planes are re-scored across the grid, so later points
        # gather from tables the earlier points built.
        stats = cache.stats()
        assert stats["hits"] > 0
        assert stats["evictions"] == 0

    def test_dynamic_world_stack_branch(self, chain9, regime9, grid9):
        timeline = _edge_timeline(regime9)
        simulation = _make_sim(chain9, grid9, timeline)
        reports = simulate_fleet_reports(simulation, n_runs=2, seed=23)
        assert reports[0].transition_stack is not None
        world = (simulation, reports)
        coverage = SiteCoverage(0.5, np.random.SeedSequence(3))
        cache = ScoreComponentCache()
        plain = self._statistics(world, "oracle", coverage, None)
        cached = self._statistics(world, "oracle", coverage, cache)
        assert_statistics_identical(plain, cached)
        assert cache.misses > 0

    def test_learned_knowledge_invalidates_by_digest(self, world):
        # A learning adversary refits its chain between episodes; the
        # digest keys must change with it, so nothing stale is ever hit
        # and the replay stays bit-identical to the uncached path.
        cache = ScoreComponentCache()
        plain = self._statistics(world, "learned", FullCoverage(), None)
        cached = self._statistics(world, "learned", FullCoverage(), cache)
        assert_statistics_identical(plain, cached)
        assert cache.hits == 0
        assert cache.misses > 0


# ----------------------------------------------------------------------
# Config, CLI and cache-key plumbing of the run_stack knob
# ----------------------------------------------------------------------


class TestRunStackKnob:
    def test_execution_only(self):
        assert "run_stack" in EXECUTION_ONLY_KEYS
        base = FleetExperimentConfig().to_dict()
        stacked = FleetExperimentConfig(run_stack=16).to_dict()
        assert experiment_cache_key("fleet", base) == experiment_cache_key(
            "fleet", stacked
        )

    @pytest.mark.parametrize(
        "config_cls", [FleetExperimentConfig, AdversaryExperimentConfig]
    )
    def test_round_trip_and_validation(self, config_cls):
        config = config_cls(run_stack=8)
        again = config_cls.from_dict(config.to_dict())
        assert again.run_stack == 8
        assert config.scaled(n_runs=2).run_stack == 8
        with pytest.raises(ValueError, match="run_stack"):
            config_cls(run_stack=0)

    def test_fleet_cli_flag(self):
        parser = build_parser()
        args = parser.parse_args(["fleet", "--run-stack", "8"])
        assert _build_config(args, "fleet").run_stack == 8
        default = parser.parse_args(["fleet"])
        assert _build_config(default, "fleet").run_stack == 1

    def test_adversary_cli_flag(self):
        parser = build_parser()
        args = parser.parse_args(["run", "adversary", "--run-stack", "4"])
        assert _build_config(args, "adversary").run_stack == 4
