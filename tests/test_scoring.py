"""Exact oracles and properties of the Eq. (1) scorer and decision rule.

:func:`eq1_scores` and :func:`eq1_decide` carry every detector and fleet
evaluation, so they are pinned here against brute force on tiny chains
(``L = 3``, ``T <= 5``): full-plane scores are the textbook
``log pi(x_1) + sum_t log P(x_t, x_{t+1})``, masked scores the
hand-computed per-observed-slot average, and the all-``-inf`` fallback
the uniform draw ``rng.integers(0, N)``.  A property test checks that
scoring window by window equals scoring the plane as one window.  The
fleet's three evaluation sites must build their tie-break generators
only for a plane with a tie, and then decide as the per-generator path
always did.
"""

from __future__ import annotations

import itertools
import math
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.sim.seeding as seeding
from repro.core.eavesdropper.detector import MaximumLikelihoodDetector
from repro.core.eavesdropper.scoring import TieBreakGenerators, eq1_decide, eq1_scores
from repro.core.strategies import get_strategy
from repro.mec.fleet import FleetSimulation, FleetSimulationConfig
from repro.mec.topology import MECTopology
from repro.mobility.markov import MarkovChain
from repro.mobility.models import paper_synthetic_models
from repro.mobility.sparse import as_backend
from repro.sim.cache import EpisodeStore
from repro.sim.seeding import spawn_generators

MATRIX = np.array(
    [
        [0.5, 0.3, 0.2],
        [0.1, 0.6, 0.3],
        [0.25, 0.25, 0.5],
    ]
)


@pytest.fixture(params=["dense", "sparse"])
def chain3(request) -> MarkovChain:
    return as_backend(MarkovChain(MATRIX), request.param)


def _random_stack(steps: int, seed: int) -> np.ndarray:
    raw = np.random.default_rng(seed).uniform(0.05, 1.0, size=(steps, 3, 3))
    return raw / raw.sum(axis=2, keepdims=True)


def _brute_force(chain: MarkovChain, row, stack=None) -> float:
    """``log pi(x_1) + sum_t log P(x_t, x_{t+1})``, one term at a time."""
    total = math.log(chain.stationary[row[0]])
    for t in range(len(row) - 1):
        matrix = MATRIX if stack is None else stack[t]
        total += math.log(matrix[row[t], row[t + 1]])
    return total


class TestFullPlaneOracle:
    @pytest.mark.parametrize("horizon", [1, 2, 3, 5])
    @pytest.mark.parametrize("with_stack", [False, True])
    def test_every_trajectory_matches_brute_force(
        self, chain3, horizon, with_stack
    ):
        plane = np.array(list(itertools.product(range(3), repeat=horizon)))
        stack = _random_stack(horizon - 1, seed=horizon) if with_stack else None
        scores = eq1_scores(chain3, [(plane, None)], transition_stack=stack)
        expected = [_brute_force(chain3, row, stack) for row in plane]
        assert scores.shape == (plane.shape[0],)
        np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-12)

    def test_all_true_mask_scores_plain_log_likelihoods(self, chain3):
        plane = np.array(list(itertools.product(range(3), repeat=4)))
        plain = eq1_scores(chain3, [(plane, None)])
        masked = eq1_scores(chain3, [(plane, np.ones(plane.shape, dtype=bool))])
        assert np.array_equal(plain, masked)

    def test_stack_length_is_checked(self, chain3):
        plane = np.zeros((2, 4), dtype=np.int64)
        with pytest.raises(ValueError, match="transition_stack"):
            eq1_scores(chain3, [(plane, None)], transition_stack=_random_stack(2, 0))
        with pytest.raises(ValueError, match="transition_stack"):
            eq1_scores(chain3, [(plane, None)], transition_stack=_random_stack(4, 0))


class TestMaskedOracle:
    def test_per_observed_slot_average(self, chain3):
        log_pi = [math.log(p) for p in chain3.stationary]
        log_p = np.log(MATRIX)
        plane = np.array(
            [
                [0, 1, -1, 1, 0],
                [-1, 0, 1, -1, -1],
                [2, 2, 2, 2, 2],
                [-1, -1, -1, -1, -1],
            ]
        )
        mask = plane >= 0
        mask[2, 2] = False  # hidden although the cell exists
        scores = eq1_scores(chain3, [(plane, mask)])
        expected = [
            # Visible 0, 1, 3, 4: only 0->1 and 1->0 have both ends shown.
            (log_pi[0] + log_p[0, 1] + log_p[1, 0]) / 4,
            # Visible 1, 2: the stationary term is read at slot 1.
            (log_pi[0] + log_p[0, 1]) / 2,
            # Visible 0, 1, 3, 4: steps 1->2 and 2->3 are dropped.
            (log_pi[2] + 2 * log_p[2, 2]) / 4,
            -np.inf,
        ]
        np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-12)

    def test_each_plane_of_a_stack_picks_its_own_mode(self, chain3):
        plane = np.array([[0, 1, 2], [1, 1, 0]])
        full = np.ones(plane.shape, dtype=bool)
        partial = full.copy()
        partial[0, 2] = False
        stacked = eq1_scores(
            chain3, [(np.stack([plane, plane]), np.stack([full, partial]))]
        )
        assert np.array_equal(stacked[0], eq1_scores(chain3, [(plane, None)]))
        assert np.array_equal(stacked[1], eq1_scores(chain3, [(plane, partial)]))


class TestDecision:
    def test_all_minus_inf_draws_uniformly_over_rows(self):
        scores = np.full(7, -np.inf)
        chosen, candidates = eq1_decide(scores, spawn_generators(5, 4), 1e-9)
        expected = [int(rng.integers(0, 7)) for rng in spawn_generators(5, 4)]
        assert chosen.tolist() == expected
        assert np.array_equal(candidates, np.arange(7))

    def test_one_draw_per_generator_equals_choice(self):
        scores = np.array([-3.0, -1.0, -1.0 - 1e-12, -2.0, -1.0])
        chosen, candidates = eq1_decide(scores, spawn_generators(9, 6), 1e-9)
        assert candidates.tolist() == [1, 2, 4]
        expected = [int(rng.choice(candidates)) for rng in spawn_generators(9, 6)]
        assert chosen.tolist() == expected

    def test_needs_a_generator(self):
        with pytest.raises(ValueError, match="at least one generator"):
            eq1_decide(np.zeros(3), [], 1e-9)


class TestTieBreakGenerators:
    """Generators are spawned only when more than one candidate is left."""

    @pytest.fixture
    def spawns(self, monkeypatch):
        calls = []
        original = seeding.spawn_generators

        def counting(seed, n, **kwargs):
            calls.append(n)
            return original(seed, n, **kwargs)

        monkeypatch.setattr(seeding, "spawn_generators", counting)
        return calls

    def test_single_candidate_touches_no_generator(self, spawns):
        chosen, candidates = eq1_decide(
            np.array([-3.0, -1.0, -2.0]), TieBreakGenerators(4, 5), 1e-9
        )
        assert chosen.tolist() == [1] * 5 and candidates.tolist() == [1]
        assert spawns == []

    def test_tie_spawns_once_and_matches_the_generators(self, spawns):
        scores = np.array([-1.0, -2.0, -1.0, -1.0])
        lazy = eq1_decide(scores, TieBreakGenerators(11, 6), 1e-9)[0]
        assert spawns == [6]
        rngs = spawn_generators(11, 6)
        assert lazy.tolist() == [[0, 2, 3][rng.integers(0, 3)] for rng in rngs]

    @staticmethod
    def _fleet(chain: MarkovChain, start_cells=None) -> FleetSimulation:
        return FleetSimulation(
            MECTopology.complete(chain.n_states, capacity=16),
            chain,
            strategy=get_strategy("IM"),
            config=FleetSimulationConfig(
                n_users=4, horizon=8, n_chaffs=1, start_cells=start_cells
            ),
        )

    @staticmethod
    def _three_sites(sim: FleetSimulation, seed: int) -> list[np.ndarray]:
        """Chosen rows of the in-memory, streamed and run-stacked evaluations."""
        detector = MaximumLikelihoodDetector()
        report = sim.run(seed)
        in_memory = report.evaluate(sim.chain, detector).chosen_rows
        with tempfile.TemporaryDirectory() as root:
            streamed = sim.run_stacked(
                [seed], engine="stream", store=EpisodeStore(root)
            )
            chunked = streamed.evaluate(sim.chain, detector).chosen_rows
        # to_metrics reports detection per user; map it back through the
        # plane's real rows to compare decisions.
        detected = sim.run_stacked([seed]).to_metrics(detector)[0][1]
        stacked = np.where(detected == 1.0, report.observations.real_rows, -1)
        return [in_memory, chunked, stacked]

    def test_tie_free_plane_builds_no_generators(self, spawns):
        chain = paper_synthetic_models(6, seed=3)["non-skewed"]
        sim = self._fleet(chain)
        report = sim.run(21)
        scores = MaximumLikelihoodDetector().row_scores(
            chain, [report.observations.trajectories]
        )
        assert np.flatnonzero(scores >= scores.max() - 1e-9).size == 1
        spawns.clear()
        in_memory, chunked, stacked = self._three_sites(sim, 21)
        assert spawns == []
        best = int(np.argmax(scores))
        assert in_memory.tolist() == [best] * 4
        assert np.array_equal(chunked, in_memory)
        expected = np.where(
            in_memory == report.observations.real_rows, in_memory, -1
        )
        assert np.array_equal(stacked, expected)

    def test_exact_tie_decides_like_the_per_generator_path(self, spawns):
        # A deterministic ring walk: every row scores log(1/L), and users
        # 0 and 1 share a start cell, so their real rows are identical.
        ring = np.roll(np.eye(6), 1, axis=1)
        sim = self._fleet(MarkovChain(ring), start_cells=(2, 2, 0, 5))
        report = sim.run(5)
        traj = report.observations.trajectories
        real = report.observations.real_rows
        assert np.array_equal(traj[real[0]], traj[real[1]])
        rngs = spawn_generators(report.evaluation_seed, 4)
        expected = np.array([rng.integers(0, traj.shape[0]) for rng in rngs])
        spawns.clear()
        in_memory, chunked, stacked = self._three_sites(sim, 5)
        assert spawns == [4, 4, 4]
        assert np.array_equal(in_memory, expected)
        assert np.array_equal(chunked, expected)
        assert np.array_equal(stacked, np.where(expected == real, expected, -1))


@st.composite
def _windowed_planes(draw):
    n_states = draw(st.integers(2, 4))
    n_rows = draw(st.integers(1, 5))
    horizon = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    masked = draw(st.booleans())
    with_stack = draw(st.booleans())
    cuts = draw(st.sets(st.integers(1, max(horizon - 1, 1)), max_size=horizon))
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, size=(n_states, n_states))
    chain = MarkovChain(raw / raw.sum(axis=1, keepdims=True))
    plane = rng.integers(0, n_states, size=(n_rows, horizon))
    mask = None
    if masked:
        mask = rng.random((n_rows, horizon)) < 0.6
        plane = np.where(mask, plane, -1)
    stack = None
    if with_stack:
        raw = rng.uniform(0.05, 1.0, size=(horizon - 1, n_states, n_states))
        stack = raw / raw.sum(axis=2, keepdims=True)
    bounds = [0, *sorted(cut for cut in cuts if cut < horizon), horizon]
    return chain, plane, mask, stack, bounds


class TestWindowedScoring:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_windowed_planes())
    def test_any_partition_matches_one_window(self, case):
        chain, plane, mask, stack, bounds = case
        whole = eq1_scores(chain, [(plane, mask)], transition_stack=stack)
        windows = [
            (plane[:, start:stop], None if mask is None else mask[:, start:stop])
            for start, stop in zip(bounds[:-1], bounds[1:], strict=True)
        ]
        chunked = eq1_scores(chain, windows, transition_stack=stack)
        np.testing.assert_allclose(chunked, whole, rtol=1e-12, atol=1e-12)
        chosen_whole, _ = eq1_decide(whole, spawn_generators(3, 4), 1e-9)
        chosen_chunked, _ = eq1_decide(chunked, spawn_generators(3, 4), 1e-9)
        assert np.array_equal(chosen_whole, chosen_chunked)
