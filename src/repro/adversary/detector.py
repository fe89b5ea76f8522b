"""The adversary as a detector: knowledge x coverage behind Eq. (1).

:class:`AdversaryDetector` composes a
:class:`~repro.adversary.knowledge.KnowledgeModel` (which chain the
adversary scores with) and a
:class:`~repro.adversary.coverage.CoverageModel` (which slots of the
observation plane it sees) into an ordinary
:class:`~repro.core.eavesdropper.detector.TrajectoryDetector`, so it
plugs into everything the paper's ML detector plugs into — the
single-user game, every fleet evaluation and the Monte-Carlo harness —
by implementing the one scoring method every detector implements,
:meth:`~repro.core.eavesdropper.detector.TrajectoryDetector.row_scores`.

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
``tests/reference/``, replaces :meth:`AdversaryDetector._scores` to
give the oracle this vectorised path is checked against.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..core.eavesdropper.detector import TrajectoryDetector, _join_windows
from ..core.eavesdropper.scoring import eq1_scores
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
        every ``(N, T)`` plane this detector scores, once and in order,
        before scoring it.
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

    def row_scores(
        self,
        chain: MarkovChain,
        windows: Iterable[np.ndarray],
        *,
        transition_stack: np.ndarray | None = None,
    ) -> np.ndarray:
        """Scores under the knowledge model, over the coverage-masked plane."""
        observed = _join_windows(windows)
        mask = self.coverage.visible_mask(observed, chain.n_states)
        knowledge = self.knowledge
        if not knowledge.stateful:
            model_chain, model_stack = knowledge.scoring_model(chain, transition_stack)
            return self._scores(model_chain, model_stack, observed, mask)
        scores = []
        for plane, plane_mask in zip(
            observed.reshape(-1, *observed.shape[-2:]),
            mask.reshape(-1, *mask.shape[-2:]),
        ):
            knowledge.observe(np.where(plane_mask, plane, -1), chain.n_states)
            model_chain, model_stack = knowledge.scoring_model(chain, transition_stack)
            scores.append(self._scores(model_chain, model_stack, plane, plane_mask))
        return np.stack(scores).reshape(observed.shape[:-1])

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

    def detect_crowd(
        self,
        chain: MarkovChain,
        trajectories: np.ndarray,
        rngs: Sequence[np.random.Generator],
        *,
        transition_stack: np.ndarray | None = None,
    ) -> np.ndarray:
        """Many per-user decisions over one shared observation plane.

        The base implementation, restated here so the adversary's crowd
        scoring can be timed on its own: the plane is one episode, which
        a learning adversary observes *once* (it does not get to count
        the same plane per user) before scoring it once.
        """
        return super().detect_crowd(
            chain, trajectories, rngs, transition_stack=transition_stack
        )
