"""Eavesdropper detectors (Section III).

The cyber eavesdropper observes ``N`` service trajectories (the user's
plus ``N - 1`` chaffs) and must decide which one belongs to the user.  The
paper's baseline eavesdropper is the maximum likelihood (ML) detector of
Eq. (1): it knows the user's mobility model and picks the trajectory with
the highest likelihood, breaking ties uniformly at random.
"""

from __future__ import annotations

import abc
import inspect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ...mobility.markov import MarkovChain
from .scoring import eq1_decide, eq1_scores

__all__ = [
    "TrajectoryDetector",
    "DetectionOutcome",
    "BatchDetectionOutcome",
    "MaximumLikelihoodDetector",
    "RandomGuessDetector",
    "trajectory_log_likelihoods",
]


def trajectory_log_likelihoods(
    chain: MarkovChain,
    trajectories: np.ndarray,
    transition_stack: np.ndarray | None = None,
) -> np.ndarray:
    """Log-likelihood of each trajectory in ``trajectories`` under ``chain``.

    The time axis is last: an ``(N, T)`` array scores one episode's
    observations and returns a length-``N`` float array, while an
    ``(R, N, T)`` Monte-Carlo tensor returns an ``(R, N)`` score matrix —
    the whole batch in one vectorised shot.  ``transition_stack`` scores
    the steps under a time-varying chain (``(T - 1, L, L)`` per-step
    matrices, e.g. a dynamic world's regime schedule) instead of
    ``chain``'s own matrix.
    """
    observed = np.asarray(trajectories, dtype=np.int64)
    if observed.ndim < 2 or observed.size == 0:
        raise ValueError("trajectories must be a non-empty (..., N, T) array")
    if observed.min() < 0 or observed.max() >= chain.n_states:
        raise ValueError("trajectories contain out-of-range cells")
    return eq1_scores(chain, [(observed, None)], transition_stack=transition_stack)


@dataclass(frozen=True)
class DetectionOutcome:
    """Result of running a detector on a set of observed trajectories.

    Attributes
    ----------
    chosen_index:
        Index of the trajectory the detector attributes to the user.
    scores:
        Per-trajectory decision scores (log-likelihoods for the ML
        detector; ``nan`` for pure guessing).
    candidate_indices:
        Indices that were still in contention at decision time (after any
        filtering and tie handling).
    """

    chosen_index: int
    scores: np.ndarray
    candidate_indices: np.ndarray


@dataclass(frozen=True)
class BatchDetectionOutcome:
    """Result of running a detector over a whole Monte-Carlo batch.

    Attributes
    ----------
    chosen_indices:
        Length-``R`` array: per run, the trajectory index attributed to
        the user.
    scores:
        ``(R, N)`` decision-score matrix.
    candidate_indices:
        Per-run arrays of indices still in contention at decision time.
    """

    chosen_indices: np.ndarray
    scores: np.ndarray
    candidate_indices: tuple[np.ndarray, ...]

    @property
    def n_runs(self) -> int:
        """Number of Monte-Carlo runs in the batch."""
        return int(self.chosen_indices.size)

    def outcome(self, run: int) -> DetectionOutcome:
        """The per-episode :class:`DetectionOutcome` of one run."""
        return DetectionOutcome(
            chosen_index=int(self.chosen_indices[run]),
            scores=self.scores[run],
            candidate_indices=self.candidate_indices[run],
        )


def _validate_plane(trajectories: np.ndarray) -> np.ndarray:
    observed = np.asarray(trajectories, dtype=np.int64)
    if observed.ndim != 2 or observed.size == 0:
        raise ValueError("trajectories must be a non-empty (N, T) array")
    return observed


def _validate_batch(
    trajectories: np.ndarray, rngs: Sequence[np.random.Generator]
) -> tuple[np.ndarray, list[np.random.Generator]]:
    observed = np.asarray(trajectories, dtype=np.int64)
    if observed.ndim != 3 or observed.size == 0:
        raise ValueError("trajectories must be a non-empty (R, N, T) array")
    generators = list(rngs)
    if len(generators) != observed.shape[0]:
        raise ValueError("need exactly one generator per run")
    return observed, generators


def _decide_runs(
    scores: np.ndarray, rngs: Sequence[np.random.Generator], tolerance: float
) -> BatchDetectionOutcome:
    """One :func:`eq1_decide` draw per run of an ``(R, N)`` score matrix."""
    decisions = [
        eq1_decide(scores[run], [rng], tolerance) for run, rng in enumerate(rngs)
    ]
    return BatchDetectionOutcome(
        chosen_indices=np.array(
            [int(chosen[0]) for chosen, _ in decisions], dtype=np.int64
        ),
        scores=scores,
        candidate_indices=tuple(candidates for _, candidates in decisions),
    )


class TrajectoryDetector(abc.ABC):
    """Base class for eavesdropper detectors."""

    name: str = "abstract"

    @abc.abstractmethod
    def detect(
        self,
        chain: MarkovChain,
        trajectories: np.ndarray,
        rng: np.random.Generator,
    ) -> DetectionOutcome:
        """Attribute one of the observed trajectories to the user.

        Parameters
        ----------
        chain:
            The user's mobility model (assumed known to the eavesdropper).
        trajectories:
            ``(N, T)`` integer array of observed service trajectories.
        rng:
            Randomness source for tie breaking / guessing.

        Scoring detectors additionally accept a ``transition_stack``
        keyword (``(T - 1, L, L)`` per-step matrices) to score against a
        time-varying chain; see :class:`MaximumLikelihoodDetector`.
        """

    def detect_batch(
        self,
        chain: MarkovChain,
        trajectories: np.ndarray,
        rngs: Sequence[np.random.Generator],
        *,
        transition_stack: np.ndarray | None = None,
    ) -> BatchDetectionOutcome:
        """Run detection over an ``(R, N, T)`` Monte-Carlo batch.

        The default implementation loops :meth:`detect` with each run's own
        generator, so every detector works with the batched engine and
        reproduces the looped engine's decisions exactly; vectorising
        subclasses override this.  ``transition_stack`` is forwarded only
        when set, so detectors that cannot score time-varying chains keep
        working in static worlds.
        """
        observed, rngs = _validate_batch(trajectories, rngs)
        if transition_stack is None:
            extra = {}
        else:
            if "transition_stack" not in inspect.signature(self.detect).parameters:
                raise NotImplementedError(
                    f"detector {self.name!r} cannot score a time-varying "
                    "chain (its detect() takes no transition_stack)"
                )
            extra = {"transition_stack": transition_stack}
        outcomes = [
            self.detect(chain, observed[run], rngs[run], **extra)
            for run in range(observed.shape[0])
        ]
        return BatchDetectionOutcome(
            chosen_indices=np.array(
                [outcome.chosen_index for outcome in outcomes], dtype=np.int64
            ),
            scores=np.stack([outcome.scores for outcome in outcomes], axis=0),
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
        """Many independent decisions over *one* ``(N, T)`` observation set.

        Used by the fleet layer: every user's eavesdropper sees the same
        merged crowd, so only the per-decision randomness (tie breaking,
        guessing) differs.  Decision ``k`` consumes exactly the draws a
        scalar :meth:`detect` call with ``rngs[k]`` would, so overriding
        implementations stay bit-identical to this default — which
        broadcasts the crowd into :meth:`detect_batch` (a zero-copy view,
        but detectors that score trajectories recompute the identical
        scores per decision; those subclasses override to score once).

        Returns the length-``len(rngs)`` array of chosen row indices.
        """
        observed = _validate_plane(trajectories)
        rngs = list(rngs)
        if not rngs:
            raise ValueError("need at least one generator")
        crowd = np.broadcast_to(observed, (len(rngs), *observed.shape))
        return self.detect_batch(
            chain, crowd, rngs, transition_stack=transition_stack
        ).chosen_indices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class MaximumLikelihoodDetector(TrajectoryDetector):
    """The ML detector of Eq. (1): pick the most likely trajectory.

    Ties (within ``tolerance`` in log-likelihood) are broken uniformly at
    random, matching the paper's treatment of the degenerate equal-prior
    case.
    """

    name = "ML"

    def __init__(self, tolerance: float = 1e-9) -> None:
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        self.tolerance = tolerance

    def detect(
        self,
        chain: MarkovChain,
        trajectories: np.ndarray,
        rng: np.random.Generator,
        *,
        transition_stack: np.ndarray | None = None,
    ) -> DetectionOutcome:
        scores = trajectory_log_likelihoods(chain, trajectories, transition_stack)
        chosen, candidates = eq1_decide(scores, [rng], self.tolerance)
        return DetectionOutcome(
            chosen_index=int(chosen[0]), scores=scores, candidate_indices=candidates
        )

    def detect_batch(
        self,
        chain: MarkovChain,
        trajectories: np.ndarray,
        rngs: Sequence[np.random.Generator],
        *,
        transition_stack: np.ndarray | None = None,
    ) -> BatchDetectionOutcome:
        """Score the whole ``(R, N, T)`` tensor in one vectorised shot.

        Only the per-run tie-break draw still touches each run's generator
        (it must, to keep the random streams aligned with the looped
        engine).
        """
        observed, rngs = _validate_batch(trajectories, rngs)
        scores = trajectory_log_likelihoods(chain, observed, transition_stack)
        return _decide_runs(scores, rngs, self.tolerance)

    def detect_crowd(
        self,
        chain: MarkovChain,
        trajectories: np.ndarray,
        rngs: Sequence[np.random.Generator],
        *,
        transition_stack: np.ndarray | None = None,
    ) -> np.ndarray:
        """Score the shared crowd once; only tie-breaks differ per decision.

        The scores (and hence the candidate set) are identical for every
        decision, so broadcasting them through :meth:`detect_batch` would
        recompute the same log-likelihoods ``len(rngs)`` times.  Each
        generator still makes exactly its one tie-break draw, keeping the
        choices bit-identical to the broadcast path.
        """
        observed = _validate_plane(trajectories)
        scores = trajectory_log_likelihoods(chain, observed, transition_stack)
        return eq1_decide(scores, list(rngs), self.tolerance)[0]


class RandomGuessDetector(TrajectoryDetector):
    """An eavesdropper with no model: guesses uniformly among trajectories."""

    name = "random"

    def detect(
        self,
        chain: MarkovChain,
        trajectories: np.ndarray,
        rng: np.random.Generator,
        *,
        transition_stack: np.ndarray | None = None,
    ) -> DetectionOutcome:
        """Guess uniformly: every row scores ``-inf`` for :func:`eq1_decide`
        (a time-varying chain is irrelevant to a guesser)."""
        observed = _validate_plane(trajectories)
        n = observed.shape[0]
        chosen, candidates = eq1_decide(np.full(n, -np.inf), [rng], 0.0)
        return DetectionOutcome(
            chosen_index=int(chosen[0]),
            scores=np.full(n, np.nan),
            candidate_indices=candidates,
        )
