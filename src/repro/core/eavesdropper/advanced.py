"""Advanced, strategy-aware eavesdropper (Section VI-A).

An advanced eavesdropper knows not only the user's mobility model but also
the chaff control strategy.  For deterministic single-chaff strategies the
chaff trajectory is a fixed function ``Gamma(x_1)`` of the user's
trajectory, so the eavesdropper can unmask chaffs: for every pair of
observed trajectories ``(x, x')`` with ``x' = Gamma(x)``, trajectory
``x'`` is flagged as a chaff and removed from consideration.  ML detection
is then run on the survivors; if every trajectory is flagged the detector
falls back to a uniform guess (the paper's "if both trajectories are
ignored, a random guess is made").

Against randomised strategies (IM, RML, ROO, RMO) the map ``Gamma`` is not
reproducible, so no trajectory matches and the detector degrades to plain
ML detection — which is exactly why the robust variants work.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...mobility.markov import MarkovChain
from ..strategies.base import ChaffStrategy
from .detector import (
    BatchDetectionOutcome,
    DetectionOutcome,
    MaximumLikelihoodDetector,
    TrajectoryDetector,
    _decide_runs,
    _validate_batch,
    _validate_plane,
    trajectory_log_likelihoods,
)

__all__ = ["StrategyAwareDetector"]


class StrategyAwareDetector(TrajectoryDetector):
    """ML detection preceded by strategy-based chaff filtering.

    Parameters
    ----------
    assumed_strategy:
        The chaff control strategy the eavesdropper believes the user
        employs.  Filtering uses the strategy's deterministic map; if the
        strategy is randomised (``deterministic_map`` returns ``None``)
        no filtering is possible and the detector reduces to plain ML.
    tolerance:
        Log-likelihood tolerance for tie breaking in the ML stage.
    """

    name = "strategy-aware"

    def __init__(
        self, assumed_strategy: ChaffStrategy, *, tolerance: float = 1e-9
    ) -> None:
        self.assumed_strategy = assumed_strategy
        self._ml = MaximumLikelihoodDetector(tolerance=tolerance)
        # Cache of trajectory bytes -> Gamma(trajectory).  The deterministic
        # map is expensive for the OO strategy on large cell sets and the
        # trace-driven experiments re-present the same fleet trajectories
        # many times, so memoisation matters there.
        self._map_cache: dict[bytes, np.ndarray | None] = {}

    def detect(
        self,
        chain: MarkovChain,
        trajectories: np.ndarray,
        rng: np.random.Generator,
        *,
        transition_stack: np.ndarray | None = None,
    ) -> DetectionOutcome:
        observed = _validate_plane(trajectories)
        return self.detect_batch(
            chain, observed[None], [rng], transition_stack=transition_stack
        ).outcome(0)

    def detect_batch(
        self,
        chain: MarkovChain,
        trajectories: np.ndarray,
        rngs: Sequence[np.random.Generator],
        *,
        transition_stack: np.ndarray | None = None,
    ) -> BatchDetectionOutcome:
        """Run the Section VI-A eavesdropper over an ``(R, N, T)`` batch.

        Chaff flagging stays per run (the deterministic map is a
        per-trajectory computation, memoised across runs), but the ML
        stage scores the *whole* tensor in one vectorised shot instead of
        one likelihood pass per run.  Flagged rows score ``-inf``, so each
        run makes exactly one :func:`eq1_decide` draw — a uniform guess
        when every row was flagged, reported with ``nan`` scores as a
        guesser reports them.
        """
        observed, rngs = _validate_batch(trajectories, rngs)
        flagged = np.stack([self._flag_chaffs(chain, plane) for plane in observed])
        scores = np.where(
            flagged,
            -np.inf,
            trajectory_log_likelihoods(chain, observed, transition_stack),
        )
        outcome = _decide_runs(scores, rngs, self._ml.tolerance)
        scores[flagged.all(axis=1)] = np.nan
        return outcome

    # ------------------------------------------------------------------
    def _flag_chaffs(self, chain: MarkovChain, observed: np.ndarray) -> np.ndarray:
        """Mark trajectories recognised as the strategy's chaff of another."""
        n = observed.shape[0]
        flagged = np.zeros(n, dtype=bool)
        if not self.assumed_strategy.is_deterministic:
            # Randomised strategies have no reproducible map: nothing can
            # be flagged, and caching the per-trajectory ``None``s would
            # only grow the memo across Monte-Carlo batches for nothing.
            return flagged
        maps: list[np.ndarray | None] = []
        for index in range(n):
            key = observed[index].tobytes()
            if key not in self._map_cache:
                self._map_cache[key] = self.assumed_strategy.deterministic_map(
                    chain, observed[index]
                )
            maps.append(self._map_cache[key])
        for source in range(n):
            gamma = maps[source]
            if gamma is None:
                continue
            for target in range(n):
                if target == source:
                    continue
                if np.array_equal(observed[target], gamma):
                    flagged[target] = True
        return flagged
