"""Tests for the eavesdropper detectors and the privacy game."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.eavesdropper import (
    MaximumLikelihoodDetector,
    RandomGuessDetector,
    StrategyAwareDetector,
    trajectory_log_likelihoods,
)
from repro.core.game import PrivacyGame
from repro.core.strategies import get_strategy
from repro.analysis.metrics import aggregate_episodes


class TestTrajectoryLogLikelihoods:
    def test_matches_chain_log_likelihood(self, random_chain, rng):
        trajectories = random_chain.sample_trajectories(5, 12, rng)
        scores = trajectory_log_likelihoods(random_chain, trajectories)
        for row, score in zip(trajectories, scores, strict=True):
            assert np.isclose(score, random_chain.log_likelihood(row))

    def test_rejects_empty(self, random_chain):
        with pytest.raises(ValueError):
            trajectory_log_likelihoods(random_chain, np.empty((0, 5), dtype=np.int64))

    def test_rejects_out_of_range(self, random_chain):
        with pytest.raises(ValueError):
            trajectory_log_likelihoods(random_chain, np.array([[0, 99]]))

    def test_single_slot_trajectories(self, random_chain):
        scores = trajectory_log_likelihoods(random_chain, np.array([[0], [1]]))
        assert np.isclose(scores[0], random_chain.log_stationary[0])


class TestMaximumLikelihoodDetector:
    def test_picks_highest_likelihood(self, skewed_chain, rng):
        detector = MaximumLikelihoodDetector()
        likely = np.zeros(10, dtype=np.int64)  # parked in the hot cell
        unlikely = np.arange(10) % skewed_chain.n_states
        outcome = detector.detect(skewed_chain, np.stack([unlikely, likely]), rng)
        assert outcome.chosen_index == 1

    def test_scores_are_log_likelihoods(self, random_chain, rng):
        detector = MaximumLikelihoodDetector()
        trajectories = random_chain.sample_trajectories(4, 8, rng)
        outcome = detector.detect(random_chain, trajectories, rng)
        assert np.allclose(
            outcome.scores, trajectory_log_likelihoods(random_chain, trajectories)
        )

    def test_tie_breaking_is_uniform(self, two_state_chain):
        detector = MaximumLikelihoodDetector()
        identical = np.zeros((2, 5), dtype=np.int64)
        picks = [
            detector.detect(two_state_chain, identical, np.random.default_rng(s)).chosen_index
            for s in range(200)
        ]
        assert 0.3 < np.mean(picks) < 0.7

    def test_candidates_contains_chosen(self, random_chain, rng):
        detector = MaximumLikelihoodDetector()
        trajectories = random_chain.sample_trajectories(6, 10, rng)
        outcome = detector.detect(random_chain, trajectories, rng)
        assert outcome.chosen_index in outcome.candidate_indices

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            MaximumLikelihoodDetector(tolerance=-1.0)

    def test_crowd_needs_a_generator(self, random_chain, rng):
        trajectories = random_chain.sample_trajectories(3, 6, rng)
        with pytest.raises(ValueError, match="at least one generator"):
            MaximumLikelihoodDetector().detect_crowd(random_chain, trajectories, [])


class TestRandomGuessDetector:
    def test_uniform_over_trajectories(self, random_chain):
        detector = RandomGuessDetector()
        trajectories = np.zeros((4, 5), dtype=np.int64)
        picks = [
            detector.detect(random_chain, trajectories, np.random.default_rng(s)).chosen_index
            for s in range(400)
        ]
        counts = np.bincount(picks, minlength=4) / len(picks)
        assert np.allclose(counts, 0.25, atol=0.08)

    def test_rejects_empty(self, random_chain, rng):
        with pytest.raises(ValueError):
            RandomGuessDetector().detect(random_chain, np.empty((0, 3), dtype=np.int64), rng)


class TestStrategyAwareDetector:
    def test_unmasks_ml_chaff(self, random_chain, rng):
        """Knowing the ML strategy, the detector filters the ML chaff and
        then always finds the user (Section VI-A2)."""
        ml_strategy = get_strategy("ML")
        detector = StrategyAwareDetector(ml_strategy)
        hits = 0
        for seed in range(20):
            local_rng = np.random.default_rng(seed)
            user = random_chain.sample_trajectory(15, local_rng)
            chaff = ml_strategy.generate(random_chain, user, 1, local_rng)
            observed = np.vstack([user, chaff])
            outcome = detector.detect(random_chain, observed, local_rng)
            hits += outcome.chosen_index == 0
        assert hits == 20

    def test_unmasks_oo_chaff(self, random_chain):
        oo_strategy = get_strategy("OO")
        detector = StrategyAwareDetector(oo_strategy)
        hits = 0
        for seed in range(10):
            local_rng = np.random.default_rng(seed)
            user = random_chain.sample_trajectory(12, local_rng)
            chaff = oo_strategy.generate(random_chain, user, 1, local_rng)
            observed = np.vstack([user, chaff])
            outcome = detector.detect(random_chain, observed, local_rng)
            hits += outcome.chosen_index == 0
        assert hits >= 9  # the "user looks like a chaff of the chaff" corner case is rare

    def test_falls_back_to_ml_for_randomised_strategy(self, random_chain, rng):
        im = get_strategy("IM")
        aware = StrategyAwareDetector(im)
        plain = MaximumLikelihoodDetector()
        user = random_chain.sample_trajectory(15, rng)
        chaffs = im.generate(random_chain, user, 3, rng)
        observed = np.vstack([user, chaffs])
        aware_outcome = aware.detect(random_chain, observed, np.random.default_rng(0))
        plain_outcome = plain.detect(random_chain, observed, np.random.default_rng(0))
        assert aware_outcome.chosen_index == plain_outcome.chosen_index

    def test_all_flagged_falls_back_to_guess(self, skewed_chain, rng):
        """If every observed trajectory looks like a chaff, guess uniformly."""
        ml_strategy = get_strategy("ML")
        detector = StrategyAwareDetector(ml_strategy)
        ml_trajectory = ml_strategy.most_likely(skewed_chain, 8)
        observed = np.vstack([ml_trajectory, ml_trajectory])
        outcome = detector.detect(skewed_chain, observed, rng)
        assert outcome.chosen_index in (0, 1)
        assert np.all(np.isnan(outcome.scores))

    def test_rml_defeats_aware_detector_more_than_ml(self, random_chain):
        """The robust RML strategy should evade the ML-aware detector far
        more often than plain ML does."""
        ml_strategy = get_strategy("ML")
        rml_strategy = get_strategy("RML")
        detector = StrategyAwareDetector(ml_strategy)
        ml_hits = rml_hits = 0
        n_trials = 15
        for seed in range(n_trials):
            local_rng = np.random.default_rng(seed)
            user = random_chain.sample_trajectory(20, local_rng)
            for strategy, counter in ((ml_strategy, "ml"), (rml_strategy, "rml")):
                chaffs = strategy.generate(random_chain, user, 3, local_rng)
                observed = np.vstack([user, chaffs])
                outcome = detector.detect(random_chain, observed, local_rng)
                if counter == "ml":
                    ml_hits += outcome.chosen_index == 0
                else:
                    rml_hits += outcome.chosen_index == 0
        assert ml_hits >= n_trials - 1
        assert rml_hits < ml_hits

    def test_rejects_empty_observations(self, random_chain, rng):
        detector = StrategyAwareDetector(get_strategy("ML"))
        with pytest.raises(ValueError):
            detector.detect(random_chain, np.empty((0, 3), dtype=np.int64), rng)


class TestPrivacyGame:
    def test_episode_shapes(self, random_chain, rng):
        game = PrivacyGame(
            random_chain, get_strategy("IM"), MaximumLikelihoodDetector(), n_services=4
        )
        episode = game.run_episode(rng, horizon=25)
        assert episode.user_trajectory.shape == (25,)
        assert episode.chaff_trajectories.shape == (3, 25)
        assert episode.observed_trajectories.shape == (4, 25)
        assert episode.tracked_per_slot.shape == (25,)
        assert 0.0 <= episode.tracking_accuracy <= 1.0

    def test_requires_exactly_one_of_horizon_and_trajectory(self, random_chain, rng):
        game = PrivacyGame(
            random_chain, get_strategy("IM"), MaximumLikelihoodDetector(), n_services=2
        )
        with pytest.raises(ValueError):
            game.run_episode(rng)
        with pytest.raises(ValueError):
            game.run_episode(rng, horizon=5, user_trajectory=np.zeros(5, dtype=np.int64))

    def test_no_chaff_game(self, random_chain, rng):
        game = PrivacyGame(random_chain, None, MaximumLikelihoodDetector(), n_services=1)
        episode = game.run_episode(rng, horizon=10)
        assert episode.chaff_trajectories.shape == (0, 10)
        assert episode.detected_user
        assert episode.tracking_accuracy == 1.0

    def test_strategy_requires_two_services(self, random_chain):
        with pytest.raises(ValueError):
            PrivacyGame(
                random_chain, get_strategy("IM"), MaximumLikelihoodDetector(), n_services=1
            )

    def test_external_user_trajectory_used(self, random_chain, rng):
        game = PrivacyGame(
            random_chain, get_strategy("IM"), MaximumLikelihoodDetector(), n_services=2
        )
        user = random_chain.sample_trajectory(15, rng)
        episode = game.run_episode(rng, user_trajectory=user)
        assert np.array_equal(episode.user_trajectory, user)

    def test_background_trajectories_included(self, random_chain, rng):
        game = PrivacyGame(
            random_chain, get_strategy("IM"), MaximumLikelihoodDetector(), n_services=2
        )
        background = random_chain.sample_trajectories(5, 10, rng)
        episode = game.run_episode(
            rng, horizon=10, background_trajectories=background
        )
        assert episode.observed_trajectories.shape == (7, 10)

    def test_background_shape_mismatch(self, random_chain, rng):
        game = PrivacyGame(
            random_chain, get_strategy("IM"), MaximumLikelihoodDetector(), n_services=2
        )
        background = random_chain.sample_trajectories(2, 9, rng)
        with pytest.raises(ValueError):
            game.run_episode(rng, horizon=10, background_trajectories=background)

    def test_oo_defeats_ml_detector(self, random_chain):
        """Under OO the basic eavesdropper should essentially never track a
        high-entropy user."""
        game = PrivacyGame(
            random_chain, get_strategy("OO"), MaximumLikelihoodDetector(), n_services=2
        )
        episodes = [
            game.run_episode(np.random.default_rng(seed), horizon=30)
            for seed in range(20)
        ]
        stats = aggregate_episodes(episodes)
        assert stats.tracking_accuracy < 0.05

    def test_tracking_counts_colocated_wrong_guess(self, two_state_chain, rng):
        """Tracking accuracy is about location, not identity: picking a chaff
        that sits on the user's cell still counts as tracked."""
        game = PrivacyGame(
            two_state_chain, get_strategy("IM"), MaximumLikelihoodDetector(), n_services=2
        )
        episode = game.run_episode(rng, horizon=50)
        if not episode.detected_user:
            overlap = np.mean(
                episode.observed_trajectories[episode.detection.chosen_index]
                == episode.user_trajectory
            )
            assert np.isclose(episode.tracking_accuracy, overlap)
