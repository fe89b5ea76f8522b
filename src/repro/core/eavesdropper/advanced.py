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
        self._map_cache: dict[tuple[str, bytes], np.ndarray] = {}

    def row_scores(
        self,
        chain: MarkovChain,
        windows: Iterable[np.ndarray],
        *,
        transition_stack: np.ndarray | None = None,
    ) -> np.ndarray:
        """ML scores, with the rows flagged as chaffs left unscored (``nan``).

        A row is flagged when it is Gamma of another row of its own
        ``(N, T)`` plane.  Gamma is evaluated once for the whole
        ``(..., N, T)`` stack: the distinct fully observed rows missing
        from the memo go to one ``deterministic_map`` call.  When every
        row of a plane is flagged, its decision is the paper's uniform
        guess.
        """
        observed = _join_windows(windows)
        scores = super().row_scores(chain, [observed], transition_stack=transition_stack)
        if not self.assumed_strategy.is_deterministic:
            # Randomised strategies have no reproducible map: nothing can
            # be flagged, and memoising their ``None``s would only grow
            # the memo across Monte-Carlo batches.
            return scores
        planes = observed.reshape(-1, *observed.shape[-2:])
        n_rows = planes.shape[1]
        images, mapped = self._images(chain, planes.reshape(-1, planes.shape[-1]))
        # matches[p, i, j]: row j of plane p is Gamma of row i, i != j.
        matches = _row_keys(images).reshape(-1, n_rows, 1) == _row_keys(planes)[:, None, :]
        matches &= mapped.reshape(-1, n_rows, 1)
        matches &= ~np.eye(n_rows, dtype=bool)
        return np.where(matches.any(axis=1).reshape(scores.shape), np.nan, scores)

    # ------------------------------------------------------------------
    def _images(
        self, chain: MarkovChain, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gamma of every row of a ``(K, T)`` stack, and which rows have one.

        Gamma is defined on whole trajectories, so a row with an
        unobserved (``-1``) slot is neither mapped nor flagged; its image
        row is left at ``-1``.
        """
        # Deferred import: the adversary package imports the detectors.
        from ...adversary.score_cache import chain_digest

        digest = chain_digest(chain)
        mapped = (rows >= 0).all(axis=1)
        whole = rows[mapped]
        keys, first, inverse = np.unique(
            _row_keys(whole), return_index=True, return_inverse=True
        )
        memo_keys = [(digest, key.tobytes()) for key in keys]
        missing = [i for i, key in enumerate(memo_keys) if key not in self._map_cache]
        if missing:
            fresh = self.assumed_strategy.deterministic_map(chain, whole[first[missing]])
            for i, image in zip(missing, fresh, strict=True):
                self._map_cache[memo_keys[i]] = image
        images = np.full(rows.shape, -1, dtype=np.int64)
        if memo_keys:
            distinct = np.stack([self._map_cache[key] for key in memo_keys])
            images[mapped] = distinct[inverse.reshape(-1)]
        return images, mapped


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque bytes key per trajectory of an ``(..., T)`` int64 array."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[-1])))[..., 0]
