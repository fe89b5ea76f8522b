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

from typing import Iterable

import numpy as np

from ...mobility.markov import MarkovChain
from ..strategies.base import ChaffStrategy
from .detector import MaximumLikelihoodDetector, _join_windows

__all__ = ["StrategyAwareDetector"]


class StrategyAwareDetector(MaximumLikelihoodDetector):
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
        super().__init__(tolerance)
        self.assumed_strategy = assumed_strategy
        # Memo of (chain digest, trajectory bytes) -> Gamma(trajectory).
        # The deterministic map is expensive for the OO strategy on large
        # cell sets and the trace-driven experiments re-present the same
        # fleet trajectories many times, so memoisation matters there.
        self._map_cache: dict[tuple[str, bytes], np.ndarray | None] = {}

    def row_scores(
        self,
        chain: MarkovChain,
        windows: Iterable[np.ndarray],
        *,
        transition_stack: np.ndarray | None = None,
    ) -> np.ndarray:
        """ML scores, with the rows flagged as chaffs left unscored (``nan``).

        Flagging is per ``(N, T)`` plane (the deterministic map is a
        per-trajectory computation, memoised across planes and calls).
        When every row of a plane is flagged, its decision is the
        paper's uniform guess.
        """
        observed = _join_windows(windows)
        scores = super().row_scores(chain, [observed], transition_stack=transition_stack)
        if not self.assumed_strategy.is_deterministic:
            # Randomised strategies have no reproducible map: nothing can
            # be flagged, and memoising their ``None``s would only grow
            # the memo across Monte-Carlo batches.
            return scores
        # Deferred import: the adversary package imports the detectors.
        from ...adversary.score_cache import chain_digest

        digest = chain_digest(chain)
        flagged = np.stack(
            [
                self._flag_chaffs(chain, digest, plane)
                for plane in observed.reshape(-1, *observed.shape[-2:])
            ]
        )
        return np.where(flagged.reshape(scores.shape), np.nan, scores)

    # ------------------------------------------------------------------
    def _flag_chaffs(
        self, chain: MarkovChain, digest: str, observed: np.ndarray
    ) -> np.ndarray:
        """Flag the rows of one plane that are Gamma of another row.

        Gamma is defined on whole trajectories, so a row with an
        unobserved (``-1``) slot is neither mapped nor flagged.
        """
        flagged = np.zeros(observed.shape[0], dtype=bool)
        for source, row in enumerate(observed):
            if row.min() < 0:
                continue
            key = (digest, row.tobytes())
            if key not in self._map_cache:
                self._map_cache[key] = self.assumed_strategy.deterministic_map(
                    chain, row
                )
            gamma = self._map_cache[key]
            if gamma is None:
                continue
            matches = np.all(observed == gamma, axis=-1)
            matches[source] = False
            flagged |= matches
        return flagged
