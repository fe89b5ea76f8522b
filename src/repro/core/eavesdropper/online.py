"""Online (per-slot) eavesdroppers: prefix ML detection and Bayesian posterior.

The paper's eavesdropper makes one ML decision after observing the whole
horizon.  A practical eavesdropper tracks the user *while* the services
migrate, re-evaluating its belief every slot.  This module provides two
such online attackers, used in the extension experiments:

* :class:`PrefixMLTracker` — at every slot, run the ML detector of Eq. (1)
  on the trajectory prefixes observed so far and output the chosen
  trajectory's current cell;
* :class:`BayesianPosteriorTracker` — maintain the posterior probability
  that each observed trajectory is the user's (uniform prior, likelihood
  from the mobility model) and estimate the user's cell as the posterior
  mode over cells.  This is the Bayes-optimal per-slot attack under the
  equal-prior assumption and upper-bounds the prefix-ML attack.

Both trackers report a per-slot tracking indicator against the true user
trajectory, so their accuracy can be compared directly with the offline
detector used in the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ...mobility.markov import MarkovChain
from ...numerics import safe_log
from .scoring import eq1_decide

__all__ = [
    "OnlineTrackingResult",
    "PrefixMLTracker",
    "BayesianPosteriorTracker",
    "prefix_log_likelihood_scores",
]


def prefix_log_likelihood_scores(
    chain: MarkovChain,
    observed: np.ndarray,
    transition_stack: np.ndarray | None = None,
) -> np.ndarray:
    """Cumulative prefix log-likelihoods of an ``(..., N, T)`` tensor.

    Element ``[..., u, t]`` is the log-likelihood of trajectory ``u``'s
    prefix ``x_u[0..t]`` under ``chain``.  Computed in one vectorised shot
    (per-step log-probability indexing followed by a cumulative sum along
    time), so a whole ``(R, N, T)`` Monte-Carlo batch costs a single numpy
    pass instead of ``R * T`` Python iterations.  ``transition_stack``
    (``(T - 1, L, L)`` per-step matrices, e.g. a dynamic world's regime
    schedule) scores the step into slot ``t`` under ``stack[t - 1]``
    instead of ``chain``'s own matrix, so online trackers follow the true
    time-varying chain; the initial term stays the stationary prior.
    """
    traj = np.asarray(observed, dtype=np.int64)
    if traj.ndim < 2 or traj.size == 0:
        raise ValueError("observed must be a non-empty (..., N, T) array")
    steps = np.empty(traj.shape, dtype=float)
    steps[..., 0] = chain.log_stationary[traj[..., 0]]
    if traj.shape[-1] > 1:
        if transition_stack is None:
            steps[..., 1:] = chain.log_transition_entries(
                traj[..., :-1], traj[..., 1:]
            )
        else:
            stack = np.asarray(transition_stack, dtype=float)
            n = chain.n_states
            if stack.ndim != 3 or stack.shape != (traj.shape[-1] - 1, n, n):
                raise ValueError(
                    f"transition_stack must be ({traj.shape[-1] - 1}, {n}, {n}), "
                    f"got {stack.shape}"
                )
            steps[..., 1:] = safe_log(stack)[
                np.arange(traj.shape[-1] - 1), traj[..., :-1], traj[..., 1:]
            ]
    return np.cumsum(steps, axis=-1)


@dataclass(frozen=True)
class OnlineTrackingResult:
    """Per-slot output of an online eavesdropper.

    Attributes
    ----------
    estimated_cells:
        The eavesdropper's estimate of the user's cell at each slot.
    chosen_indices:
        Index of the trajectory the eavesdropper attributes to the user at
        each slot (argmax of the per-slot score).
    tracked_per_slot:
        Whether ``estimated_cells[t]`` equals the user's true cell.
    posteriors:
        ``(T, N)`` per-slot scores (posterior probabilities for the
        Bayesian tracker, normalised likelihood weights for prefix ML).
    """

    estimated_cells: np.ndarray
    chosen_indices: np.ndarray
    tracked_per_slot: np.ndarray
    posteriors: np.ndarray

    @property
    def tracking_accuracy(self) -> float:
        """Time-average per-slot tracking accuracy."""
        return float(self.tracked_per_slot.mean())


def _validate(chain: MarkovChain, observed: np.ndarray, user: np.ndarray) -> tuple:
    observed = np.asarray(observed, dtype=np.int64)
    user = np.asarray(user, dtype=np.int64)
    if observed.ndim != 2 or observed.size == 0:
        raise ValueError("observed trajectories must be a non-empty (N, T) array")
    if user.shape != (observed.shape[1],):
        raise ValueError("user trajectory length must match the observation horizon")
    if observed.min() < 0 or observed.max() >= chain.n_states:
        raise ValueError("observed trajectories contain out-of-range cells")
    return observed, user


def _validate_batch(
    chain: MarkovChain,
    observed: np.ndarray,
    user_trajectories: np.ndarray,
    rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, list[np.random.Generator]]:
    observed = np.asarray(observed, dtype=np.int64)
    users = np.asarray(user_trajectories, dtype=np.int64)
    if observed.ndim != 3 or observed.size == 0:
        raise ValueError("observed trajectories must be a non-empty (R, N, T) array")
    if users.shape != (observed.shape[0], observed.shape[2]):
        raise ValueError("user trajectories must be (R, T) matching the observations")
    if observed.min() < 0 or observed.max() >= chain.n_states:
        raise ValueError("observed trajectories contain out-of-range cells")
    rngs = list(rngs)
    if len(rngs) != observed.shape[0]:
        raise ValueError("need exactly one generator per run")
    return observed, users, rngs


class PrefixMLTracker:
    """Per-slot ML detection on trajectory prefixes."""

    name = "prefix-ml"

    def track(
        self,
        chain: MarkovChain,
        observed: np.ndarray,
        user_trajectory: np.ndarray,
        rng: np.random.Generator,
        *,
        transition_stack: np.ndarray | None = None,
    ) -> OnlineTrackingResult:
        """Track the user slot by slot.

        At slot ``t`` the tracker computes the log-likelihood of every
        observed prefix ``x_u[0..t]`` and outputs the cell of the most
        likely one (ties broken uniformly at random).  With a
        ``transition_stack`` the prefixes are scored under the true
        time-varying chain of a dynamic world.
        """
        observed, user = _validate(chain, observed, user_trajectory)
        prefix_scores = prefix_log_likelihood_scores(
            chain, observed, transition_stack
        )
        return self._decide(prefix_scores, observed, user, rng)

    def track_batch(
        self,
        chain: MarkovChain,
        observed: np.ndarray,
        user_trajectories: np.ndarray,
        rngs: Sequence[np.random.Generator],
        *,
        transition_stack: np.ndarray | None = None,
    ) -> list[OnlineTrackingResult]:
        """Track a whole ``(R, N, T)`` batch, scoring the tensor in one shot.

        Each run's tie-breaks consume that run's generator in the same
        order as :meth:`track`, so batched and looped tracking agree run
        for run.
        """
        observed, users, rngs = _validate_batch(chain, observed, user_trajectories, rngs)
        prefix_scores = prefix_log_likelihood_scores(
            chain, observed, transition_stack
        )
        return [
            self._decide(prefix_scores[run], observed[run], users[run], rngs[run])
            for run in range(observed.shape[0])
        ]

    def _decide(
        self,
        prefix_scores: np.ndarray,
        observed: np.ndarray,
        user: np.ndarray,
        rng: np.random.Generator,
    ) -> OnlineTrackingResult:
        n, horizon = observed.shape
        estimated = np.empty(horizon, dtype=np.int64)
        chosen = np.empty(horizon, dtype=np.int64)
        posteriors = np.empty((horizon, n), dtype=float)
        for t in range(horizon):
            scores = prefix_scores[:, t]
            chosen[t] = eq1_decide(scores, [rng], 1e-9)[0][0]
            estimated[t] = observed[chosen[t], t]
            weights = np.exp(scores - scores.max())
            posteriors[t] = weights / weights.sum()
        return OnlineTrackingResult(
            estimated_cells=estimated,
            chosen_indices=chosen,
            tracked_per_slot=(estimated == user),
            posteriors=posteriors,
        )


class BayesianPosteriorTracker:
    """Bayesian belief over which observed trajectory belongs to the user.

    With a uniform prior over the ``N`` observed trajectories, the posterior
    after ``t`` slots is proportional to the prefix likelihood of each
    trajectory.  The user's cell is estimated as the cell with the largest
    total posterior mass (several trajectories sitting in the same cell pool
    their mass), which can only improve on picking a single trajectory.
    """

    name = "bayesian-posterior"

    def track(
        self,
        chain: MarkovChain,
        observed: np.ndarray,
        user_trajectory: np.ndarray,
        rng: np.random.Generator,
        *,
        transition_stack: np.ndarray | None = None,
    ) -> OnlineTrackingResult:
        """Track the user slot by slot using the posterior cell mode.

        With a ``transition_stack`` the posterior is computed under the
        true time-varying chain of a dynamic world.
        """
        observed, user = _validate(chain, observed, user_trajectory)
        prefix_scores = prefix_log_likelihood_scores(
            chain, observed, transition_stack
        )
        return self._decide(chain, prefix_scores, observed, user, rng)

    def track_batch(
        self,
        chain: MarkovChain,
        observed: np.ndarray,
        user_trajectories: np.ndarray,
        rngs: Sequence[np.random.Generator],
        *,
        transition_stack: np.ndarray | None = None,
    ) -> list[OnlineTrackingResult]:
        """Track a whole ``(R, N, T)`` batch, scoring the tensor in one shot."""
        observed, users, rngs = _validate_batch(chain, observed, user_trajectories, rngs)
        prefix_scores = prefix_log_likelihood_scores(
            chain, observed, transition_stack
        )
        return [
            self._decide(chain, prefix_scores[run], observed[run], users[run], rngs[run])
            for run in range(observed.shape[0])
        ]

    def _decide(
        self,
        chain: MarkovChain,
        prefix_scores: np.ndarray,
        observed: np.ndarray,
        user: np.ndarray,
        rng: np.random.Generator,
    ) -> OnlineTrackingResult:
        n, horizon = observed.shape
        estimated = np.empty(horizon, dtype=np.int64)
        chosen = np.empty(horizon, dtype=np.int64)
        posteriors = np.empty((horizon, n), dtype=float)
        for t in range(horizon):
            log_posterior = prefix_scores[:, t]
            weights = np.exp(log_posterior - log_posterior.max())
            weights = weights / weights.sum()
            posteriors[t] = weights
            chosen[t] = int(np.argmax(weights))
            cell_mass = np.zeros(chain.n_states, dtype=float)
            np.add.at(cell_mass, observed[:, t], weights)
            estimated[t] = eq1_decide(cell_mass, [rng], 1e-12)[0][0]
        return OnlineTrackingResult(
            estimated_cells=estimated,
            chosen_indices=chosen,
            tracked_per_slot=(estimated == user),
            posteriors=posteriors,
        )
