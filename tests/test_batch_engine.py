"""Golden-seed equivalence tests: batched engine == looped reference.

The batched Monte-Carlo engine must reproduce the looped episode path
*exactly* — same user trajectories, same chaffs, same detection
decisions, same ``TrackingStatistics`` — for the same master seed,
because each run keeps its own child generator and every batched stage
consumes the generators in the scalar order.  These tests pin that
contract for every registered strategy and every detector; the looped
oracles come from ``tests/reference/``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.metrics import aggregate_episodes
from repro.core.eavesdropper import (
    BayesianPosteriorTracker,
    MaximumLikelihoodDetector,
    PrefixMLTracker,
    RandomGuessDetector,
    StrategyAwareDetector,
)
from repro.core.game import PrivacyGame
from repro.core.strategies import available_strategies, get_strategy
from repro.mobility.models import paper_synthetic_models
from repro.sim.monte_carlo import MonteCarloRunner, run_game_monte_carlo
from repro.sim.runner import sweep_strategies

from reference import run_game_loop, sweep_strategies_loop

N_RUNS = 6
HORIZON = 12
SEED = 2017


@pytest.fixture(scope="module")
def chain():
    return paper_synthetic_models(8, seed=1)["spatially-skewed"]


def _spawn(n_runs: int = N_RUNS, seed: int = SEED):
    return [
        np.random.default_rng(child)
        for child in np.random.SeedSequence(seed).spawn(n_runs)
    ]


def assert_batch_matches_episodes(batch, episodes):
    assert batch.n_runs == len(episodes)
    for run, episode in enumerate(episodes):
        assert np.array_equal(batch.user_trajectories[run], episode.user_trajectory)
        assert np.array_equal(batch.chaff_trajectories[run], episode.chaff_trajectories)
        assert np.array_equal(
            batch.observed_trajectories[run], episode.observed_trajectories
        )
        assert batch.detection.chosen_indices[run] == episode.detection.chosen_index
        assert np.array_equal(
            batch.detection.scores[run], episode.detection.scores, equal_nan=True
        )
        assert np.array_equal(
            batch.detection.candidate_indices[run],
            episode.detection.candidate_indices,
        )
        assert np.array_equal(batch.tracked_per_slot[run], episode.tracked_per_slot)
        assert bool(batch.detected_user[run]) == episode.detected_user


class TestStrategyEquivalence:
    @pytest.mark.parametrize("name", available_strategies())
    @pytest.mark.parametrize("n_services", [2, 4])
    def test_batch_reproduces_loop(self, chain, name, n_services):
        game = PrivacyGame(
            chain, get_strategy(name), MaximumLikelihoodDetector(), n_services=n_services
        )
        loop = MonteCarloRunner(n_runs=N_RUNS, seed=SEED)
        batch = MonteCarloRunner(n_runs=N_RUNS, seed=SEED)
        episodes = loop.run_episodes(game, horizon=HORIZON)
        result = batch.run_batch(game, horizon=HORIZON)
        assert_batch_matches_episodes(result, episodes)
        stats_loop = aggregate_episodes(episodes)
        stats_batch = result.aggregate()
        assert np.array_equal(
            stats_loop.per_slot_accuracy, stats_batch.per_slot_accuracy
        )
        assert stats_loop.tracking_accuracy == stats_batch.tracking_accuracy
        assert stats_loop.detection_accuracy == stats_batch.detection_accuracy
        assert stats_loop.n_episodes == stats_batch.n_episodes

    @pytest.mark.parametrize("name", available_strategies())
    def test_generate_batch_matches_generate(self, chain, name):
        strategy_batch = get_strategy(name)
        strategy_loop = get_strategy(name)
        rngs_a = _spawn()
        rngs_b = _spawn()
        users = chain.sample_trajectories_batch(HORIZON, _spawn(seed=5))
        batched = strategy_batch.generate_batch(chain, users, 2, rngs_a)
        looped = np.stack(
            [
                strategy_loop.generate(chain, users[run], 2, rngs_b[run])
                for run in range(N_RUNS)
            ]
        )
        assert np.array_equal(batched, looped)
        # The generators must also end in the same state so downstream
        # detector draws stay aligned.
        for a, b in zip(rngs_a, rngs_b, strict=True):
            assert a.random() == b.random()


class TestDetectorEquivalence:
    @pytest.mark.parametrize(
        "detector_factory",
        [
            MaximumLikelihoodDetector,
            RandomGuessDetector,
            lambda: StrategyAwareDetector(get_strategy("MO")),
        ],
    )
    def test_detect_batch_matches_detect(self, chain, detector_factory):
        detector = detector_factory()
        observed = np.stack(
            [
                chain.sample_trajectories(3, HORIZON, rng)
                for rng in _spawn(seed=11)
            ]
        )
        outcome = detector.detect_batch(chain, observed, _spawn())
        rngs = _spawn()
        for run in range(N_RUNS):
            single = detector_factory().detect(chain, observed[run], rngs[run])
            assert outcome.chosen_indices[run] == single.chosen_index
            assert np.array_equal(outcome.scores[run], single.scores, equal_nan=True)
            assert np.array_equal(
                outcome.candidate_indices[run], single.candidate_indices
            )

    def test_strategy_aware_game_equivalence(self, chain):
        detector = StrategyAwareDetector(get_strategy("MO"))
        game = PrivacyGame(chain, get_strategy("RMO"), detector, n_services=3)
        loop = MonteCarloRunner(n_runs=N_RUNS, seed=SEED)
        batch = MonteCarloRunner(n_runs=N_RUNS, seed=SEED)
        episodes = loop.run_episodes(game, horizon=HORIZON)
        result = batch.run_batch(game, horizon=HORIZON)
        assert_batch_matches_episodes(result, episodes)


class TestProviderEquivalence:
    def test_user_trajectory_provider(self, chain):
        game = PrivacyGame(
            chain, get_strategy("IM"), MaximumLikelihoodDetector(), n_services=2
        )
        trace = chain.sample_trajectory(HORIZON, np.random.default_rng(3))
        provider = lambda run, rng: np.roll(trace, run)
        loop = MonteCarloRunner(n_runs=N_RUNS, seed=SEED)
        batch = MonteCarloRunner(n_runs=N_RUNS, seed=SEED)
        episodes = loop.run_episodes(game, user_trajectory_provider=provider)
        result = batch.run_batch(game, user_trajectory_provider=provider)
        assert_batch_matches_episodes(result, episodes)

    def test_background_provider(self, chain):
        game = PrivacyGame(
            chain, get_strategy("IM"), MaximumLikelihoodDetector(), n_services=2
        )
        background = chain.sample_trajectories(3, HORIZON, np.random.default_rng(4))
        provider = lambda run, rng: background
        loop = MonteCarloRunner(n_runs=N_RUNS, seed=SEED)
        batch = MonteCarloRunner(n_runs=N_RUNS, seed=SEED)
        episodes = loop.run_episodes(
            game, horizon=HORIZON, background_provider=provider
        )
        result = batch.run_batch(game, horizon=HORIZON, background_provider=provider)
        assert result.observed_trajectories.shape == (N_RUNS, 5, HORIZON)
        assert_batch_matches_episodes(result, episodes)

    def test_providers_invoked_exactly_once_per_run(self, chain):
        game = PrivacyGame(
            chain, get_strategy("IM"), MaximumLikelihoodDetector(), n_services=2
        )
        calls: list[int] = []

        def provider(run, rng):
            calls.append(run)
            # Ragged on purpose: forces the loop fallback, which must reuse
            # the outputs already drawn instead of re-invoking the provider.
            return chain.sample_trajectories(1 + run % 2, HORIZON, rng)

        MonteCarloRunner(n_runs=N_RUNS, seed=SEED).run(
            game, horizon=HORIZON, background_provider=provider
        )
        assert calls == list(range(N_RUNS))

    def test_ragged_backgrounds_fall_back_to_loop(self, chain):
        game = PrivacyGame(
            chain, get_strategy("IM"), MaximumLikelihoodDetector(), n_services=2
        )
        rng = np.random.default_rng(5)
        backgrounds = [
            chain.sample_trajectories(1 + run % 2, HORIZON, rng)
            for run in range(N_RUNS)
        ]
        provider = lambda run, run_rng: backgrounds[run]
        batch = MonteCarloRunner(n_runs=N_RUNS, seed=SEED)
        stats_batch = batch.run(game, horizon=HORIZON, background_provider=provider)
        stats_loop = run_game_loop(
            game,
            n_runs=N_RUNS,
            seed=SEED,
            horizon=HORIZON,
            background_provider=provider,
        )
        assert np.array_equal(
            stats_batch.per_slot_accuracy, stats_loop.per_slot_accuracy
        )
        assert stats_batch.detection_accuracy == stats_loop.detection_accuracy


class TestHarnessEquivalence:
    def test_run_matches_between_engines(self, chain):
        game = PrivacyGame(
            chain, get_strategy("OO"), MaximumLikelihoodDetector(), n_services=2
        )
        a = run_game_monte_carlo(game, n_runs=5, horizon=10, seed=2)
        b = run_game_loop(game, n_runs=5, horizon=10, seed=2)
        assert np.array_equal(a.per_slot_accuracy, b.per_slot_accuracy)
        assert a.tracking_accuracy == b.tracking_accuracy
        assert a.detection_accuracy == b.detection_accuracy

    def test_sweep_matches_between_engines(self, chain):
        specs = {"IM (N = 2)": ("IM", 2), "MO (N = 3)": ("MO", 3)}
        kwargs = dict(horizon=10, n_runs=5, seed=3)
        batch = sweep_strategies(chain, MaximumLikelihoodDetector(), specs, **kwargs)
        loop = sweep_strategies_loop(
            chain, MaximumLikelihoodDetector(), specs, **kwargs
        )
        for label in specs:
            assert np.array_equal(
                batch.statistics[label].per_slot_accuracy,
                loop.statistics[label].per_slot_accuracy,
            )

    def test_batch_episodes_materialise(self, chain):
        game = PrivacyGame(
            chain, get_strategy("IM"), MaximumLikelihoodDetector(), n_services=2
        )
        result = MonteCarloRunner(n_runs=4, seed=0).run_batch(game, horizon=9)
        episodes = result.episodes()
        assert len(episodes) == 4
        assert all(e.horizon == 9 for e in episodes)
        stats = aggregate_episodes(episodes)
        assert np.array_equal(
            stats.per_slot_accuracy, result.aggregate().per_slot_accuracy
        )


class TestMarkovBatching:
    def test_sample_trajectories_matches_scalar_stream(self, chain):
        batched = chain.sample_trajectories(5, 20, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        scalar = np.stack([chain.sample_trajectory(20, rng) for _ in range(5)])
        assert np.array_equal(batched, scalar)

    def test_sample_trajectories_batch_matches_scalar(self, chain):
        batched = chain.sample_trajectories_batch(15, _spawn(seed=21))
        rngs = _spawn(seed=21)
        scalar = np.stack(
            [chain.sample_trajectory(15, rngs[run]) for run in range(N_RUNS)]
        )
        assert np.array_equal(batched, scalar)

    def test_log_likelihoods_matches_scalar(self, chain):
        trajectories = chain.sample_trajectories(4, 12, np.random.default_rng(2))
        tensor = trajectories.reshape(2, 2, 12)
        scores = chain.log_likelihoods(tensor)
        assert scores.shape == (2, 2)
        for i in range(2):
            for j in range(2):
                assert scores[i, j] == pytest.approx(
                    chain.log_likelihood(tensor[i, j]), abs=1e-12
                )

    def test_top_two_tables_match_restricted_argmax(self, chain):
        top1, top2 = chain.top_two_successors()
        for state in range(chain.n_states):
            assert top1[state] == chain.restricted_argmax_row(state)
            assert top2[state] == chain.restricted_argmax_row(
                state, {int(top1[state])}
            )
        pi1, pi2 = chain.top_two_stationary()
        assert pi1 == chain.restricted_argmax_stationary()
        assert pi2 == chain.restricted_argmax_stationary({pi1})


class TestOnlineTrackerBatching:
    @pytest.mark.parametrize(
        "tracker_cls", [PrefixMLTracker, BayesianPosteriorTracker]
    )
    def test_track_batch_matches_track(self, chain, tracker_cls):
        users = chain.sample_trajectories_batch(HORIZON, _spawn(seed=31))
        game = PrivacyGame(
            chain, get_strategy("IM"), MaximumLikelihoodDetector(), n_services=3
        )
        observed = game.run_batch(_spawn(seed=32), user_trajectories=users)
        tracker = tracker_cls()
        batch_results = tracker.track_batch(
            chain, observed.observed_trajectories, users, _spawn(seed=33)
        )
        rngs = _spawn(seed=33)
        for run in range(N_RUNS):
            single = tracker_cls().track(
                chain, observed.observed_trajectories[run], users[run], rngs[run]
            )
            assert np.array_equal(
                batch_results[run].estimated_cells, single.estimated_cells
            )
            assert np.array_equal(
                batch_results[run].chosen_indices, single.chosen_indices
            )
            assert np.array_equal(
                batch_results[run].posteriors, single.posteriors
            )
