"""Impersonating (IM) chaff strategy (Section IV-A).

Each chaff follows an independent trajectory sampled from the *same*
Markov chain as the user, so all ``N`` observed trajectories are
statistically identical and any detector — including the ML detector —
can only make a random guess.  IM is the only strategy in the paper that
is fully robust to an eavesdropper who knows the strategy, but its
tracking accuracy is bounded away from zero (Eq. 11).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...mobility.markov import MarkovChain
from .base import ChaffStrategy, register_strategy

__all__ = ["ImpersonatingStrategy"]


@register_strategy
class ImpersonatingStrategy(ChaffStrategy):
    """Chaffs mimic the user by sampling his mobility model independently."""

    name = "IM"
    is_online = True
    is_deterministic = False

    def generate(
        self,
        chain: MarkovChain,
        user_trajectory: np.ndarray,
        n_chaffs: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        user = self._validate_inputs(chain, user_trajectory, n_chaffs)
        horizon = user.size
        return chain.sample_trajectories(n_chaffs, horizon, rng)

    def generate_batch(
        self,
        chain: MarkovChain,
        user_trajectories: np.ndarray,
        n_chaffs: int,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Vectorised batch: all ``R * n_chaffs`` chaffs evolve together.

        Each run's generator fills its ``n_chaffs`` rows with one draw,
        in the scalar order (chaff by chaff), then the combined
        ``(R * n_chaffs, T)`` ensemble takes each time step in one numpy
        operation.
        """
        users, rngs = self._validate_batch_inputs(
            chain, user_trajectories, n_chaffs, rngs
        )
        n_runs, horizon = users.shape
        flat = chain.sample_trajectories_batch(horizon, rngs, per_rng=n_chaffs)
        return flat.reshape(n_runs, n_chaffs, horizon)
