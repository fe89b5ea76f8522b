"""Eavesdropper detectors (Section III).

The cyber eavesdropper observes ``N`` service trajectories (the user's
plus ``N - 1`` chaffs) and must decide which one belongs to the user.  The
paper's baseline eavesdropper is the maximum likelihood (ML) detector of
Eq. (1): it knows the user's mobility model and picks the trajectory with
the highest likelihood, breaking ties uniformly at random.

Every eavesdropper in the repo ends in that same rule, so a detector is
a score transform: it implements only
:meth:`TrajectoryDetector.row_scores`, and the base class turns the
scores into decisions.  The ML detector scores log-likelihoods, the
random guesser scores no row (``nan``), the strategy-aware detector
(:mod:`.advanced`) leaves the rows it recognises as chaffs unscored, and
the adversary (:mod:`repro.adversary.detector`) scores under its own
knowledge over a censored plane.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

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
        detector; ``nan`` for rows the detector did not score, such as
        every row of a pure guess).
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


def _validated(
    chain: MarkovChain,
    trajectories: np.ndarray,
    rngs: Sequence[np.random.Generator],
    ndim: int,
) -> tuple[np.ndarray, Sequence[np.random.Generator]]:
    """An ``(N, T)`` plane or ``(R, N, T)`` batch and its generators.

    Cells must lie in ``[-1, L)`` (``-1`` marks an unobserved slot).  A
    plane needs at least one generator, a batch exactly one per run.  A
    sequence is passed through as it is (a lazy one stays unspawned).
    """
    observed = np.asarray(trajectories, dtype=np.int64)
    if observed.ndim != ndim or observed.size == 0:
        shape = "(N, T)" if ndim == 2 else "(R, N, T)"
        raise ValueError(f"trajectories must be a non-empty {shape} array")
    if observed.min() < -1 or observed.max() >= chain.n_states:
        raise ValueError("trajectories contain out-of-range cells")
    generators = rngs if isinstance(rngs, Sequence) else list(rngs)
    if ndim == 3 and len(generators) != observed.shape[0]:
        raise ValueError("need exactly one generator per run")
    if not generators:
        raise ValueError("need at least one generator")
    return observed, generators


def _join_windows(windows: Iterable[np.ndarray]) -> np.ndarray:
    """The ``(..., N, T)`` plane of consecutive ``(..., N, w)`` slot windows."""
    parts = [np.asarray(window, dtype=np.int64) for window in windows]
    if not parts:
        raise ValueError("need at least one non-empty slot window")
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


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
    """Base class for eavesdropper detectors.

    A detector is an Eq. (1) score transform: :meth:`row_scores` scores
    every observed row, and the rows within :attr:`tolerance` of the best
    tie, broken by one uniform draw per decision
    (:func:`~repro.core.eavesdropper.scoring.eq1_decide`).  The three
    decision entry points — :meth:`detect`, :meth:`detect_batch` and
    :meth:`detect_crowd` — are implemented here once, and the fleet's
    run-stacked and streamed evaluations call :meth:`row_scores`
    directly, so every detector runs on every fleet plane.
    """

    name: str = "abstract"
    #: Log-score tolerance within which rows tie with the best.
    tolerance: float

    @abc.abstractmethod
    def row_scores(
        self,
        chain: MarkovChain,
        windows: Iterable[np.ndarray],
        *,
        transition_stack: np.ndarray | None = None,
    ) -> np.ndarray:
        """Decision scores of every row of an ``(..., N, T)`` plane.

        ``windows`` yields the plane as consecutive ``(..., N, w)`` slot
        chunks, in time order (a whole plane is ``[plane]``); a ``-1``
        cell marks a slot the eavesdropper did not observe.
        ``transition_stack`` (``(T - 1, L, L)`` per-step matrices) is the
        time-varying chain of a dynamic world, ``None`` for a static one.
        Returns the ``(..., N)`` scores.  A row scoring ``-inf`` or
        ``nan`` is never preferred; ``nan`` marks a row the detector did
        not score at all, and a plane with no finite score is a uniform
        guess.
        """

    def detect(
        self,
        chain: MarkovChain,
        trajectories: np.ndarray,
        rng: np.random.Generator,
        *,
        transition_stack: np.ndarray | None = None,
    ) -> DetectionOutcome:
        """Attribute one row of an ``(N, T)`` observation plane to the user.

        ``chain`` is the user's mobility model, ``rng`` the randomness of
        the tie break (or guess) and ``transition_stack`` the time-varying
        chain :meth:`row_scores` scores under.
        """
        observed, rngs = _validated(chain, trajectories, [rng], 2)
        return self._decide(chain, observed, rngs, transition_stack).outcome(0)

    def detect_batch(
        self,
        chain: MarkovChain,
        trajectories: np.ndarray,
        rngs: Sequence[np.random.Generator],
        *,
        transition_stack: np.ndarray | None = None,
    ) -> BatchDetectionOutcome:
        """Run detection over an ``(R, N, T)`` Monte-Carlo batch.

        The batch is scored in one :meth:`row_scores` call; run ``r``
        then makes exactly the one draw from ``rngs[r]`` that a scalar
        :meth:`detect` call would.
        """
        observed, rngs = _validated(chain, trajectories, rngs, 3)
        return self._decide(chain, observed, rngs, transition_stack)

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
        merged crowd, so the crowd is scored once and only the
        per-decision tie-break draws differ.  Decision ``k`` consumes
        exactly the draw a scalar :meth:`detect` call with ``rngs[k]``
        would.  Returns the length-``len(rngs)`` array of chosen rows.
        """
        observed, rngs = _validated(chain, trajectories, rngs, 2)
        scores = self.row_scores(chain, [observed], transition_stack=transition_stack)
        return eq1_decide(scores, rngs, self.tolerance)[0]

    def _decide(
        self,
        chain: MarkovChain,
        observed: np.ndarray,
        rngs: Sequence[np.random.Generator],
        transition_stack: np.ndarray | None,
    ) -> BatchDetectionOutcome:
        scores = self.row_scores(chain, [observed], transition_stack=transition_stack)
        return _decide_runs(scores.reshape(len(rngs), -1), rngs, self.tolerance)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class MaximumLikelihoodDetector(TrajectoryDetector):
    """The ML detector of Eq. (1): pick the most likely trajectory.

    Ties (within ``tolerance`` in log-likelihood) are broken uniformly at
    random, matching the paper's treatment of the degenerate equal-prior
    case.  A plane with unobserved (``-1``) slots scores each row's
    per-observed-slot rate (:func:`~repro.core.eavesdropper.scoring.eq1_scores`).
    """

    name = "ML"

    def __init__(self, tolerance: float = 1e-9) -> None:
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        self.tolerance = tolerance

    def row_scores(
        self,
        chain: MarkovChain,
        windows: Iterable[np.ndarray],
        *,
        transition_stack: np.ndarray | None = None,
    ) -> np.ndarray:
        return eq1_scores(
            chain,
            ((cells, cells >= 0) for cells in windows),
            transition_stack=transition_stack,
        )


class RandomGuessDetector(TrajectoryDetector):
    """An eavesdropper with no model: guesses uniformly among trajectories."""

    name = "random"
    tolerance = 0.0

    def row_scores(
        self,
        chain: MarkovChain,
        windows: Iterable[np.ndarray],
        *,
        transition_stack: np.ndarray | None = None,
    ) -> np.ndarray:
        """No row is scored (``nan``), so every decision is a uniform guess."""
        for cells in windows:
            return np.full(np.shape(cells)[:-1], np.nan)
        raise ValueError("need at least one non-empty slot window")
