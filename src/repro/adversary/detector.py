"""The adversary as a detector: knowledge x coverage behind Eq. (1).

:class:`AdversaryDetector` composes a
:class:`~repro.adversary.knowledge.KnowledgeModel` (which chain the
adversary scores with) and a
:class:`~repro.adversary.coverage.CoverageModel` (which slots of the
observation plane it sees) into an ordinary
:class:`~repro.core.eavesdropper.detector.TrajectoryDetector`, so it
plugs into everything the paper's ML detector plugs into — the
single-user game, both fleet engines and the Monte-Carlo harness —
through the existing ``detect`` / ``detect_batch`` / ``detect_crowd``
interfaces.

Scoring.  The adversary scores with the repo's one Eq. (1) scorer and
decision rule (:mod:`repro.core.eavesdropper.scoring`), handing it the
observation plane and its coverage mask.  A fully visible observation
set therefore scores exactly like the ML detector (same
log-likelihoods, same tolerance, same tie-break draw), which is what
makes the ``oracle`` + full-coverage adversary bit-identical to the
fleet path.  A censored set (coverage gaps, churned services) scores
each row's average log-likelihood per *visible* slot, with transition
terms only across contiguously visible steps — the fleet's churned-plane
rule, generalised to arbitrary masks.

A naive per-row Python scorer, kept with the tests in
``tests/reference/``, is the oracle this vectorised path is checked
against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.eavesdropper.detector import (
    BatchDetectionOutcome,
    DetectionOutcome,
    TrajectoryDetector,
    _decide_runs,
    _validate_batch,
    _validate_plane,
)
from ..core.eavesdropper.scoring import eq1_decide, eq1_scores
from ..mobility.markov import MarkovChain
from .coverage import CoverageModel, FullCoverage
from .knowledge import KnowledgeModel, OracleKnowledge
from .score_cache import ScoreComponentCache

__all__ = ["AdversaryDetector"]


class AdversaryDetector(TrajectoryDetector):
    """An eavesdropper with an explicit knowledge and coverage model.

    Parameters
    ----------
    knowledge:
        What the adversary knows about mobility (oracle / learned /
        stale).  Stateful knowledge (the learning adversary) observes
        every plane this detector scores, in call order.
    coverage:
        Which sites the adversary has compromised; slots outside the
        coverage are censored to ``-1`` before any scoring or learning.
    tolerance:
        Log-likelihood tolerance for tie breaking (applied to the
        per-observed-slot *rates* on censored planes).
    score_cache:
        Optional :class:`~repro.adversary.score_cache.ScoreComponentCache`
        memoising the per-(chain, stack, plane) gather tables a score is
        assembled from.  Share one cache across the detectors of a
        knowledge x coverage grid and every plane's tables are built
        once; scores stay bit-identical to uncached scoring (the tables
        are coverage-independent, and the mask is applied after the
        lookup).
    """

    name = "adversary"
    #: The fleet's churned-plane evaluation hands the whole ``-1``-marked
    #: plane to detectors that declare this flag instead of refusing.
    supports_censored_planes = True

    def __init__(
        self,
        knowledge: KnowledgeModel | None = None,
        coverage: CoverageModel | None = None,
        *,
        tolerance: float = 1e-9,
        score_cache: ScoreComponentCache | None = None,
    ) -> None:
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        self.knowledge = knowledge if knowledge is not None else OracleKnowledge()
        self.coverage = coverage if coverage is not None else FullCoverage()
        self.tolerance = tolerance
        self.score_cache = score_cache
        self.name = f"adversary[{self.knowledge.name}/{self.coverage.name}]"

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _scores(
        self,
        chain: MarkovChain,
        stack: np.ndarray | None,
        observed: np.ndarray,
        mask: np.ndarray,
    ) -> np.ndarray:
        """Decision scores of an ``(..., N, T)`` observation tensor.

        :func:`~repro.core.eavesdropper.scoring.eq1_scores` over the
        pre-coverage plane and the coverage mask, with the attached
        :attr:`score_cache`: plain Eq. (1) log-likelihoods where
        everything is visible, per-observed-slot rates elsewhere.
        """
        return eq1_scores(
            chain, [(observed, mask)], transition_stack=stack, cache=self.score_cache
        )

    def _prepare(
        self, chain: MarkovChain, observed: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The coverage mask and censored plane of a validated plane."""
        if observed.max() >= chain.n_states:
            raise ValueError("trajectories contain out-of-range cells")
        mask = self.coverage.visible_mask(observed, chain.n_states)
        censored = np.where(mask, observed, -1)
        return observed, mask, censored

    # ------------------------------------------------------------------
    # Detector interface
    # ------------------------------------------------------------------
    def detect(
        self,
        chain: MarkovChain,
        trajectories: np.ndarray,
        rng: np.random.Generator,
        *,
        transition_stack: np.ndarray | None = None,
    ) -> DetectionOutcome:
        observed, mask, censored = self._prepare(chain, _validate_plane(trajectories))
        self.knowledge.observe(censored, chain.n_states)
        model_chain, model_stack = self.knowledge.scoring_model(
            chain, transition_stack
        )
        scores = self._scores(model_chain, model_stack, observed, mask)
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
        """Score a whole ``(R, N, T)`` batch.

        Each run is one episode: stateful knowledge runs the scalar
        :meth:`detect` run by run, so run ``r``'s plane is observed
        before it is scored and batched and looped execution stay
        bit-identical even while the adversary is learning.  Stateless
        knowledge is scored in one vectorised shot.
        """
        if self.knowledge.stateful:
            return super().detect_batch(
                chain, trajectories, rngs, transition_stack=transition_stack
            )
        observed, rngs = _validate_batch(trajectories, rngs)
        observed, mask, _ = self._prepare(chain, observed)
        model_chain, model_stack = self.knowledge.scoring_model(
            chain, transition_stack
        )
        scores = self._scores(model_chain, model_stack, observed, mask)
        return _decide_runs(scores, rngs, self.tolerance)

    def detect_crowd(
        self,
        chain: MarkovChain,
        trajectories: np.ndarray,
        rngs: Sequence[np.random.Generator],
        *,
        transition_stack: np.ndarray | None = None,
    ) -> np.ndarray:
        """Many per-user decisions over one shared observation plane.

        The plane is one episode: the adversary observes it *once* (a
        learning adversary does not get to count the same plane per
        user) and scores it once; only the per-user tie-break draws
        differ, exactly like the ML detector's crowd path.
        """
        observed, mask, censored = self._prepare(chain, _validate_plane(trajectories))
        self.knowledge.observe(censored, chain.n_states)
        model_chain, model_stack = self.knowledge.scoring_model(
            chain, transition_stack
        )
        scores = self._scores(model_chain, model_stack, observed, mask)
        return eq1_decide(scores, list(rngs), self.tolerance)[0]
