"""Randomised robust chaff strategies (Section VI-B).

The deterministic strategies (ML, OO, MO) are vulnerable to an *advanced*
eavesdropper who knows the strategy: he can recompute the chaff trajectory
and discard it.  The robust variants break that attack by generating one
chaff per unit of budget and randomly perturbing each chaff's trajectory
so it cannot be reproduced exactly:

* **RML** — for each chaff ``u``, pick one random (cell, slot) pair from
  every previously generated trajectory (user and earlier chaffs) and
  compute the most likely trajectory that *avoids* those pairs.
* **ROO** — same exclusion sets, but the trajectory is computed with the
  OO dynamic program restricted to the remaining cells.
* **RMO** — for each chaff, pick one random slot per earlier trajectory at
  which it must avoid that trajectory's cell, then run the myopic online
  controller with those per-slot exclusions.

All three remain close to their deterministic counterparts under the basic
ML detector while defeating the strategy-aware detector (Figs. 7 and 10).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ...mobility.markov import MarkovChain
from ..trellis import (
    InfeasibleTrellisError,
    most_likely_trajectories,
    most_likely_trajectory,
)
from .base import ChaffStrategy, register_strategy
from .constrained_ml import ConstrainedMLController
from .myopic_online import MyopicOnlineController
from .optimal_offline import solve_optimal_offline

__all__ = [
    "RobustMLStrategy",
    "RobustOptimalOfflineStrategy",
    "RobustMyopicOnlineStrategy",
    "sample_exclusion_mask",
]


def sample_exclusion_mask(
    prior_trajectories: np.ndarray,
    n_cells: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample the RML/ROO exclusion set as a boolean ``allowed`` mask.

    For every previously generated trajectory, one slot is chosen uniformly
    at random and the trajectory's cell at that slot becomes forbidden for
    the chaff being generated.  Returns a ``(T, n_cells)`` boolean mask with
    ``False`` marking forbidden (slot, cell) pairs.
    """
    prior = np.asarray(prior_trajectories, dtype=np.int64)
    if prior.ndim != 2 or prior.size == 0:
        raise ValueError("prior_trajectories must be a non-empty 2-D array")
    horizon = prior.shape[1]
    allowed = np.ones((horizon, n_cells), dtype=bool)
    for row in prior:
        slot = int(rng.integers(0, horizon))
        allowed[slot, int(row[slot])] = False
    # Never forbid every cell in a slot (cannot happen unless the number of
    # prior trajectories reaches the cell count, but guard regardless).
    blocked = np.flatnonzero(~allowed.any(axis=1))
    allowed[blocked, prior[0, blocked]] = True
    return allowed


def _perturbed_chaff_batch(
    users: np.ndarray,
    n_chaffs: int,
    n_cells: int,
    rngs: Sequence[np.random.Generator],
    solve: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    fallback: Callable[[int], np.ndarray],
) -> np.ndarray:
    """RML/ROO chaffs for an ``(R, T)`` batch of users, one index at a time.

    Chaff ``u`` depends on the previous chaffs of its own run, so the
    chaff axis stays sequential; within it, every run samples its
    exclusion mask from its own generator (in the scalar order), and
    ``solve`` maps the ``(R, T, L)`` masks to ``(chaffs, infeasible)`` for
    all runs at once.  ``fallback(run)`` then replaces the chaff of each
    infeasible run, in run order, exactly like the scalar path.
    """
    n_runs, horizon = users.shape
    trajectories = np.empty((n_runs, n_chaffs + 1, horizon), dtype=np.int64)
    trajectories[:, 0] = users
    masks = np.empty((n_runs, horizon, n_cells), dtype=bool)
    for index in range(1, n_chaffs + 1):
        for run in range(n_runs):
            masks[run] = sample_exclusion_mask(
                trajectories[run, :index], n_cells, rngs[run]
            )
        chaffs, infeasible = solve(masks)
        for run in np.flatnonzero(infeasible):
            chaffs[run] = fallback(run)
        trajectories[:, index] = chaffs
    return trajectories[:, 1:].copy()


def _sample_rmo_exclusions(
    n_prior: int, horizon: int, rng: np.random.Generator
) -> dict[int, list[int]]:
    """Map slot -> list of prior-trajectory indices to avoid at that slot."""
    exclusions: dict[int, list[int]] = {}
    for prior_index in range(n_prior):
        slot = int(rng.integers(0, horizon))
        exclusions.setdefault(slot, []).append(prior_index)
    return exclusions


@register_strategy
class RobustMLStrategy(ChaffStrategy):
    """RML: per-chaff randomly perturbed maximum-likelihood trajectories."""

    name = "RML"
    is_online = True  # trajectories depend only on the model + randomness
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
        trajectories = [user]
        chaffs = np.empty((n_chaffs, horizon), dtype=np.int64)
        for index in range(n_chaffs):
            allowed = sample_exclusion_mask(
                np.stack(trajectories), chain.n_states, rng
            )
            try:
                chaff = most_likely_trajectory(chain, horizon, allowed=allowed)
            except InfeasibleTrellisError:
                chaff = chain.sample_trajectory(horizon, rng)
            chaffs[index] = chaff
            trajectories.append(chaff)
        return chaffs

    def generate_batch(
        self,
        chain: MarkovChain,
        user_trajectories: np.ndarray,
        n_chaffs: int,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Vectorised batch: one masked Viterbi solve per chaff index.

        Runs whose mask is infeasible fall back to sampling the mobility
        model from their own generator, exactly like the scalar path.
        """
        users, rngs = self._validate_batch_inputs(
            chain, user_trajectories, n_chaffs, rngs
        )
        horizon = users.shape[1]
        return _perturbed_chaff_batch(
            users,
            n_chaffs,
            chain.n_states,
            rngs,
            lambda masks: most_likely_trajectories(chain, horizon, masks),
            lambda run: chain.sample_trajectory(horizon, rngs[run]),
        )


@register_strategy
class RobustOptimalOfflineStrategy(ChaffStrategy):
    """ROO: per-chaff randomly perturbed optimal offline trajectories."""

    name = "ROO"
    is_online = False
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
        trajectories = [user]
        chaffs = np.empty((n_chaffs, horizon), dtype=np.int64)
        for index in range(n_chaffs):
            allowed = sample_exclusion_mask(
                np.stack(trajectories), chain.n_states, rng
            )
            try:
                chaff = solve_optimal_offline(chain, user, allowed=allowed).trajectory
            except InfeasibleTrellisError:
                chaff = ConstrainedMLController(chain).run(user)
            chaffs[index] = chaff
            trajectories.append(chaff)
        return chaffs

    def generate_batch(
        self,
        chain: MarkovChain,
        user_trajectories: np.ndarray,
        n_chaffs: int,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Vectorised batch: one masked Algorithm 1 solve per chaff index.

        Runs with no qualifying trajectory under their mask fall back to
        the constrained-ML chaff, exactly like the scalar path.
        """
        users, rngs = self._validate_batch_inputs(
            chain, user_trajectories, n_chaffs, rngs
        )

        def solve(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            solved = solve_optimal_offline(chain, users, allowed=masks)
            return solved.trajectories, solved.infeasible

        return _perturbed_chaff_batch(
            users,
            n_chaffs,
            chain.n_states,
            rngs,
            solve,
            lambda run: ConstrainedMLController(chain).run(users[run]),
        )


@register_strategy
class RobustMyopicOnlineStrategy(ChaffStrategy):
    """RMO: per-chaff myopic online controllers with random per-slot exclusions."""

    name = "RMO"
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
        chaffs = np.full((n_chaffs, horizon), -1, dtype=np.int64)
        controllers = [MyopicOnlineController(chain) for _ in range(n_chaffs)]
        # exclusions[c] maps slot -> prior trajectory indices (0 = user,
        # 1 = first chaff, ...) that chaff c must avoid at that slot.
        exclusions = [
            _sample_rmo_exclusions(n_prior=index + 1, horizon=horizon, rng=rng)
            for index in range(n_chaffs)
        ]
        for t in range(horizon):
            user_cell = int(user[t])
            for index in range(n_chaffs):
                forbidden: set[int] = set()
                for prior_index in exclusions[index].get(t, []):
                    if prior_index == 0:
                        forbidden.add(user_cell)
                    else:
                        forbidden.add(int(chaffs[prior_index - 1, t]))
                forbidden.discard(-1)
                # Keep the problem feasible even in tiny state spaces.
                while len(forbidden) >= chain.n_states - 1 and forbidden:
                    forbidden.pop()
                chaffs[index, t] = controllers[index].step(
                    user_cell, frozenset(forbidden)
                )
        return chaffs
