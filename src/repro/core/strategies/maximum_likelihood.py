"""Maximum-likelihood (ML) chaff strategy (Section IV-B).

The chaff follows the globally most likely trajectory of length ``T``
under the user's mobility model, computed as the shortest path on the
trellis of Fig. 2.  Since the ML detector is deterministic, a single such
chaff is sufficient: its likelihood is at least as high as any other
trajectory's, so the detector always picks it (up to ties).  Additional
chaff budget is spent on replicas of the same trajectory — the paper notes
that the deterministic strategies cannot benefit from more chaffs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...mobility.markov import MarkovChain
from ..trellis import most_likely_trajectory
from .base import ChaffStrategy, register_strategy

__all__ = ["MaximumLikelihoodStrategy"]


@register_strategy
class MaximumLikelihoodStrategy(ChaffStrategy):
    """Single chaff on the most likely trajectory (extra budget replicates it)."""

    name = "ML"
    is_online = True  # the trajectory can be precomputed before the user moves
    is_deterministic = True

    def generate(
        self,
        chain: MarkovChain,
        user_trajectory: np.ndarray,
        n_chaffs: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        user = self._validate_inputs(chain, user_trajectory, n_chaffs)
        horizon = user.size
        # The ML detector is deterministic, so at most one chaff has any
        # effect (Section IV-B); extra budget is spent on replicas, which
        # also reflects the paper's finding that the deterministic
        # strategies cannot benefit from more chaffs.
        chaff = self.most_likely(chain, horizon)
        return np.tile(chaff, (n_chaffs, 1))

    def generate_batch(
        self,
        chain: MarkovChain,
        user_trajectories: np.ndarray,
        n_chaffs: int,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Vectorised batch: one Viterbi solve shared by every run.

        The ML trajectory depends only on the model and the horizon (and
        the strategy consumes no randomness), so the looped engine's
        per-run recomputation collapses to a single solve broadcast over
        the ``(R, n_chaffs, T)`` output.
        """
        users, rngs = self._validate_batch_inputs(
            chain, user_trajectories, n_chaffs, rngs
        )
        chaff = self.most_likely(chain, users.shape[1])
        return np.broadcast_to(
            chaff, (users.shape[0], n_chaffs, users.shape[1])
        ).copy()

    def most_likely(self, chain: MarkovChain, horizon: int) -> np.ndarray:
        """The precomputable ML trajectory used by the first chaff."""
        return most_likely_trajectory(chain, horizon)

    def deterministic_map(
        self, chain: MarkovChain, user_trajectory: np.ndarray
    ) -> np.ndarray:
        """The ML chaff trajectory does not depend on the user's trajectory.

        One Viterbi solve, broadcast over a ``(K, T)`` stack.
        """
        users = np.asarray(user_trajectory, dtype=np.int64)
        chaff = self.most_likely(chain, users.shape[-1])
        return np.broadcast_to(chaff, users.shape).copy()
