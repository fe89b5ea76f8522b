"""The adversary detector's per-row Python scorer.

:class:`~repro.adversary.detector.AdversaryDetector` scores a whole
observation plane with one vectorised Eq. (1) call.  The subclass here
scores it row by row in place of the vectorised ``_scores`` — plain
log-likelihoods when everything is visible, the per-observed-slot rate
with transitions only across contiguously visible steps otherwise —
plays every batch run through the scalar ``detect``, and re-scores the
crowd for every decision.  It ignores the score cache.  Its decisions
must equal the vectorised detector's.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.adversary.detector import AdversaryDetector
from repro.core.eavesdropper.detector import (
    BatchDetectionOutcome,
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
        # Each (N, T) plane on its own: full visibility is a per-plane
        # property, exactly as in the vectorised scorer.
        if observed.ndim > 2:
            return np.stack(
                [
                    self._scores(chain, stack, plane, plane_mask)
                    for plane, plane_mask in zip(observed, mask, strict=True)
                ]
            )
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

    def detect_batch(
        self,
        chain: MarkovChain,
        trajectories: np.ndarray,
        rngs: Sequence[np.random.Generator],
        *,
        transition_stack: np.ndarray | None = None,
    ) -> BatchDetectionOutcome:
        # Every run through the scalar ``detect``, in run order.
        outcomes = [
            self.detect(chain, plane, rng, transition_stack=transition_stack)
            for plane, rng in zip(trajectories, rngs, strict=True)
        ]
        return BatchDetectionOutcome(
            chosen_indices=np.array(
                [outcome.chosen_index for outcome in outcomes], dtype=np.int64
            ),
            scores=np.stack([outcome.scores for outcome in outcomes]),
            candidate_indices=tuple(
                outcome.candidate_indices for outcome in outcomes
            ),
        )

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
        observed = np.asarray(trajectories, dtype=np.int64)
        mask = self.coverage.visible_mask(observed, chain.n_states)
        self.knowledge.observe(np.where(mask, observed, -1), chain.n_states)
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
