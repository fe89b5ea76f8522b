"""Batched Algorithm 1 and its callers against the per-trajectory oracle.

:func:`~repro.core.strategies.optimal_offline.solve_optimal_offline`
solves a whole ``(B, T)`` stack of users in one layered DP.  These tests
pin it to the per-trajectory loop kept in ``tests/reference/`` (same
trajectory, intersections, costs, ``strict`` and infeasible members), and
pin its callers — the OO and ROO batch generators and the strategy-aware
detector — to their one-run-at-a-time forms.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.eavesdropper.advanced import StrategyAwareDetector
from repro.core.strategies import (
    ConstrainedMLController,
    get_strategy,
    sample_exclusion_mask,
    solve_optimal_offline,
)
from repro.core.trellis import InfeasibleTrellisError, most_likely_trajectory
from repro.mobility.markov import MarkovChain

from reference import solve_optimal_offline_loop


def _chain(kind: str, n_cells: int, rng: np.random.Generator) -> MarkovChain:
    """Random, uniform (every path ties) or duplicated-row chains."""
    if kind == "uniform":
        return MarkovChain(np.full((n_cells, n_cells), 1.0 / n_cells))
    matrix = rng.uniform(0.05, 1.0, size=(n_cells, n_cells))
    if kind == "duplicated":
        matrix[rng.integers(0, n_cells, size=n_cells)] = matrix[0]
        matrix[:, 1] = matrix[:, 0]  # tied successors as well
    return MarkovChain(matrix / matrix.sum(axis=1, keepdims=True))


def _assert_matches_oracle(chain, users, masks, tolerance=1e-9) -> None:
    batch = solve_optimal_offline(chain, users, allowed=masks, tolerance=tolerance)
    for member, user in enumerate(users):
        allowed = None if masks is None else masks[member]
        try:
            expected = solve_optimal_offline_loop(
                chain, user, allowed=allowed, tolerance=tolerance
            )
        except InfeasibleTrellisError:
            assert batch.infeasible[member]
            assert np.all(batch.trajectories[member] == -1)
            continue
        assert not batch.infeasible[member]
        assert np.array_equal(batch.trajectories[member], expected.trajectory)
        assert batch.intersections[member] == expected.intersections
        assert batch.chaff_cost[member] == expected.chaff_cost
        assert batch.user_cost[member] == expected.user_cost
        assert batch.strict[member] == expected.strict


class TestBatchedSolverMatchesOracle:
    @settings(
        max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        n_cells=st.integers(2, 6),
        horizon=st.integers(1, 8),
        n_batch=st.integers(1, 6),
        kind=st.sampled_from(["random", "uniform", "duplicated"]),
        density=st.sampled_from([None, 0.9, 0.6, 0.3]),
        # Zero tolerance makes exact ties decide between "<" and "<=".
        tolerance=st.sampled_from([1e-9, 0.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_stacks(
        self, n_cells, horizon, n_batch, kind, density, tolerance, seed
    ):
        rng = np.random.default_rng(seed)
        chain = _chain(kind, n_cells, rng)
        users = rng.integers(0, n_cells, size=(n_batch, horizon))
        # Half the members replay the most likely path, whose tie can only
        # be met with many intersections: members stop at different layers.
        users[::2] = most_likely_trajectory(chain, horizon)
        masks = None
        if density is not None:
            masks = rng.random((n_batch, horizon, n_cells)) < density
        _assert_matches_oracle(chain, users, masks, tolerance)

    def test_members_stop_at_different_layers(self, skewed_chain):
        rng = np.random.default_rng(3)
        ml_path = most_likely_trajectory(skewed_chain, 8)
        users = np.stack(
            [
                ml_path,  # only a tie qualifies: i* = T
                skewed_chain.sample_trajectory(8, rng),
                np.where(np.arange(8) < 4, ml_path, 3),
                np.full(8, 4),
            ]
        )
        batch = solve_optimal_offline(skewed_chain, users)
        assert len(set(batch.intersections.tolist())) >= 3
        _assert_matches_oracle(skewed_chain, users, None)

    def test_strict_beat_skips_an_exact_tie(self):
        # [1, 0, 1, 0] ties this user's cost exactly with no intersection,
        # but a strictly more likely chaff exists, so i* = 1.
        chain = MarkovChain(np.array([[0.5, 0.5], [0.2, 0.8]]))
        users = np.array([[0, 1, 0, 1]])
        batch = solve_optimal_offline(chain, users, tolerance=0.0)
        assert batch.strict[0] and batch.intersections[0] == 1
        assert batch.trajectories[0].tolist() == [1, 1, 1, 0]
        _assert_matches_oracle(chain, users, None, tolerance=0.0)

    def test_infeasible_members_are_flagged_not_raised(self, skewed_chain):
        ml_path = most_likely_trajectory(skewed_chain, 6)
        users = np.stack([ml_path, ml_path, np.full(6, 4)])
        masks = np.ones((3, 6, 5), dtype=bool)
        masks[0, 2, ml_path[2]] = False  # no path ties the unique ML user
        masks[1, 3] = False  # a slot with no allowed cell at all
        batch = solve_optimal_offline(skewed_chain, users, allowed=masks)
        assert batch.infeasible.tolist() == [True, True, False]
        assert np.isnan(batch.chaff_cost[:2]).all()
        _assert_matches_oracle(skewed_chain, users, masks)
        with pytest.raises(InfeasibleTrellisError):
            solve_optimal_offline(skewed_chain, users[0], allowed=masks[0])

    def test_one_dimensional_user_is_the_single_member_case(self, random_chain, rng):
        user = random_chain.sample_trajectory(12, rng)
        single = solve_optimal_offline(random_chain, user)
        batch = solve_optimal_offline(random_chain, user[None])
        assert np.array_equal(single.trajectory, batch.trajectories[0])
        assert single.intersections == batch.intersections[0]
        assert single.chaff_cost == batch.chaff_cost[0]
        assert isinstance(single.strict, bool)

    def test_chunked_stack_matches_one_chunk(self, random_chain, monkeypatch):
        from repro.core.strategies import optimal_offline

        users = random_chain.sample_trajectories(7, 10, np.random.default_rng(2))
        masks = np.random.default_rng(3).random((7, 10, 10)) < 0.8
        whole = solve_optimal_offline(random_chain, users, allowed=masks)
        monkeypatch.setattr(optimal_offline, "_DP_ELEMENTS", 1)  # one per chunk
        chunked = solve_optimal_offline(random_chain, users, allowed=masks)
        for field in ("trajectories", "intersections", "strict", "infeasible"):
            assert np.array_equal(getattr(chunked, field), getattr(whole, field))
        assert np.array_equal(chunked.chaff_cost, whole.chaff_cost, equal_nan=True)

    def test_rejects_mismatched_stack_mask(self, random_chain):
        users = np.zeros((2, 5), dtype=np.int64)
        with pytest.raises(ValueError, match="allowed mask"):
            solve_optimal_offline(
                random_chain, users, allowed=np.ones((5, 10), dtype=bool)
            )


def _per_run(strategy, chain, users, n_chaffs, seeds):
    rngs = [np.random.default_rng(seed) for seed in seeds]
    chaffs = np.stack(
        [
            strategy.generate(chain, user, n_chaffs, rng)
            for user, rng in zip(users, rngs, strict=True)
        ]
    )
    return chaffs, rngs


class TestBatchedCallers:
    @pytest.mark.parametrize("name", ["OO", "ROO"])
    def test_generate_batch_matches_per_run(self, name, random_chain):
        strategy = get_strategy(name)
        users = random_chain.sample_trajectories(5, 15, np.random.default_rng(8))
        seeds = range(40, 45)
        expected, looped_rngs = _per_run(strategy, random_chain, users, 4, seeds)
        batch_rngs = [np.random.default_rng(seed) for seed in seeds]
        batched = strategy.generate_batch(random_chain, users, 4, batch_rngs)
        assert np.array_equal(batched, expected)
        for batch_rng, looped_rng in zip(batch_rngs, looped_rngs, strict=True):
            assert batch_rng.random() == looped_rng.random()

    def test_roo_batch_reaches_the_cml_fallback(self, skewed_chain):
        # The first chaff's mask forbids one slot of the user's own path.
        # When the user walks the unique most likely path, nothing else
        # ties it, so that member must fall back to constrained ML.
        horizon = 8
        ml_path = most_likely_trajectory(skewed_chain, horizon)
        users = np.stack(
            [skewed_chain.sample_trajectory(horizon, np.random.default_rng(5)), ml_path]
        )
        mask = sample_exclusion_mask(ml_path[None], 5, np.random.default_rng(11))
        with pytest.raises(InfeasibleTrellisError):
            solve_optimal_offline(skewed_chain, ml_path, allowed=mask)

        strategy = get_strategy("ROO")
        seeds = (10, 11)
        expected, _ = _per_run(strategy, skewed_chain, users, 3, seeds)
        batched = strategy.generate_batch(
            skewed_chain, users, 3, [np.random.default_rng(seed) for seed in seeds]
        )
        assert np.array_equal(batched, expected)
        fallback = ConstrainedMLController(skewed_chain).run(ml_path)
        assert np.array_equal(batched[1, 0], fallback)

    @pytest.mark.parametrize("name", ["OO", "ML", "MO", "CML"])
    def test_stacked_deterministic_map_matches_rows(self, name, random_chain):
        strategy = get_strategy(name)
        rows = random_chain.sample_trajectories(6, 10, np.random.default_rng(9))
        stacked = strategy.deterministic_map(random_chain, rows)
        for row, image in zip(rows, stacked, strict=True):
            assert np.array_equal(strategy.deterministic_map(random_chain, row), image)


def _flags_per_row(strategy, chain, planes: np.ndarray) -> np.ndarray:
    """Per-row reference: flag each row equal to Gamma of another row."""
    flagged = np.zeros(planes.shape[:2], dtype=bool)
    for p, plane in enumerate(planes):
        for source, row in enumerate(plane):
            if row.min() < 0:
                continue
            gamma = strategy.deterministic_map(chain, row)
            matches = np.all(plane == gamma, axis=-1)
            matches[source] = False
            flagged[p] |= matches
    return flagged


class _CountingMap:
    """Wraps a strategy's ``deterministic_map`` and counts its calls."""

    def __init__(self, strategy) -> None:
        self.calls = 0
        self._original = strategy.deterministic_map
        strategy.deterministic_map = self

    def __call__(self, chain, trajectories):
        self.calls += 1
        return self._original(chain, trajectories)


class TestStrategyAwareStack:
    def _planes(self, chain, strategy):
        rng = np.random.default_rng(21)
        a, b, c = chain.sample_trajectories(3, 9, rng)
        gamma_a = strategy.deterministic_map(chain, a)
        censored = gamma_a.copy()
        censored[4] = -1
        unseen = np.full_like(a, -1)
        return np.stack(
            [
                [a, gamma_a, b, c],  # one chaff
                [a, a, gamma_a, gamma_a],  # duplicate users and chaffs
                [censored, a, b, gamma_a],  # a row holding -1
                [unseen, a, unseen, gamma_a],  # duplicate unobserved rows
                [b, censored, c, a],  # nothing to flag
            ]
        )

    @pytest.mark.parametrize("name", ["OO", "MO", "ML"])
    def test_flags_match_per_row_reference(self, name, random_chain):
        strategy = get_strategy(name)
        planes = self._planes(random_chain, strategy)
        detector = StrategyAwareDetector(get_strategy(name))
        scores = detector.row_scores(random_chain, [planes])
        expected = _flags_per_row(strategy, random_chain, planes)
        assert np.array_equal(np.isnan(scores), expected)
        assert expected[0, 1] and not expected[4].any()

    def test_row_that_is_gamma_of_two_rows(self, random_chain):
        # The ML map ignores its input, so the ML path is Gamma of both
        # user rows of its plane; it is flagged and the users stay.  The
        # extra leading axis exercises an (R, P, N, T) stack.
        strategy = get_strategy("ML")
        a, b = random_chain.sample_trajectories(2, 9, np.random.default_rng(4))
        gamma = strategy.deterministic_map(random_chain, a)
        planes = np.stack([[a, gamma, b], [a, b, gamma]])[None]
        detector = StrategyAwareDetector(strategy)
        scores = detector.row_scores(random_chain, [planes])
        assert np.array_equal(
            np.isnan(scores[0]), _flags_per_row(strategy, random_chain, planes[0])
        )
        assert np.isnan(scores[0, :, 1:]).sum() == 2

    def test_row_that_is_its_own_gamma_is_not_self_flagged(self, random_chain):
        # Only a tie can match the unique most likely path, so OO maps it
        # to itself; a row never unmasks itself.
        strategy = get_strategy("OO")
        ml_path = most_likely_trajectory(random_chain, 9)
        assert np.array_equal(strategy.deterministic_map(random_chain, ml_path), ml_path)
        censored = ml_path.copy()
        censored[0] = -1
        planes = np.stack([ml_path, censored])[None]
        detector = StrategyAwareDetector(strategy)
        scores = detector.row_scores(random_chain, [planes])
        expected = _flags_per_row(strategy, random_chain, planes)
        assert np.array_equal(np.isnan(scores), expected)
        assert not expected.any()

    def test_second_call_makes_no_new_map_calls(self, random_chain):
        detector = StrategyAwareDetector(get_strategy("OO"))
        planes = self._planes(random_chain, get_strategy("OO"))
        counter = _CountingMap(detector.assumed_strategy)
        first = detector.row_scores(random_chain, [planes])
        assert counter.calls == 1
        second = detector.row_scores(random_chain, [planes])
        assert counter.calls == 1
        assert np.array_equal(first, second, equal_nan=True)
