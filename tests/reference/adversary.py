"""The adversary detector's per-row Python scorer.

:class:`~repro.adversary.detector.AdversaryDetector` scores a whole
observation plane with one vectorised Eq. (1) call.  The subclass here
scores it row by row — plain log-likelihoods when everything is visible,
the per-observed-slot rate with transitions only across contiguously
visible steps otherwise — plays every batch run through the scalar
``detect``, and re-scores the crowd for every decision.  It ignores the
score cache.  Its decisions must equal the vectorised detector's.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.adversary.detector import AdversaryDetector
from repro.core.eavesdropper.detector import (
    TrajectoryDetector,
    _validate_plane,
    trajectory_log_likelihoods,
)
from repro.core.eavesdropper.scoring import eq1_decide
from repro.mobility.markov import MarkovChain
from repro.numerics import safe_log

__all__ = ["LoopReferenceAdversaryDetector"]


def _masked_row_score(
    chain: MarkovChain,
    stack: np.ndarray | None,
    row: np.ndarray,
    row_mask: np.ndarray,
) -> float:
    """The masked per-observed-slot rate of one censored row."""
    observed = row_mask.sum()
    if observed == 0:
        return -np.inf
    first = int(np.argmax(row_mask))
    score = float(chain.log_stationary[row[first]])
    if row.size > 1:
        prev = np.clip(row[:-1], 0, None)
        nxt = np.clip(row[1:], 0, None)
        if stack is None:
            step_logs = chain.log_transition_entries(prev, nxt)
        else:
            step_logs = safe_log(stack)[np.arange(row.size - 1), prev, nxt]
        valid = row_mask[1:] & row_mask[:-1]
        score = score + np.where(valid, step_logs, 0.0).sum()
    return score / observed


class LoopReferenceAdversaryDetector(AdversaryDetector):
    """:class:`AdversaryDetector` with naive per-row scoring."""

    def _scores(
        self,
        chain: MarkovChain,
        stack: np.ndarray | None,
        observed: np.ndarray,
        mask: np.ndarray,
    ) -> np.ndarray:
        censored = np.where(mask, observed, -1)
        if mask.all():
            return np.array(
                [
                    trajectory_log_likelihoods(chain, censored[row : row + 1], stack)[0]
                    for row in range(censored.shape[0])
                ],
                dtype=float,
            )
        return np.array(
            [
                _masked_row_score(chain, stack, censored[row], mask[row])
                for row in range(censored.shape[0])
            ],
            dtype=float,
        )

    #: Every run through the scalar ``detect``, in run order.
    detect_batch = TrajectoryDetector.detect_batch

    def detect_crowd(
        self,
        chain: MarkovChain,
        trajectories: np.ndarray,
        rngs: Sequence[np.random.Generator],
        *,
        transition_stack: np.ndarray | None = None,
    ) -> np.ndarray:
        # Observe the plane once (as the vectorised path does), then
        # re-score the crowd for every decision with that decision's draw.
        observed, mask, censored = self._prepare(chain, _validate_plane(trajectories))
        self.knowledge.observe(censored, chain.n_states)
        model_chain, model_stack = self.knowledge.scoring_model(
            chain, transition_stack
        )
        return np.concatenate(
            [
                eq1_decide(
                    self._scores(model_chain, model_stack, observed, mask),
                    [rng],
                    self.tolerance,
                )[0]
                for rng in rngs
            ]
        )
