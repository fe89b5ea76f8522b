"""Memoised score components for the adversary knowledge x coverage grid.

The adversary experiment replays one fixed fleet Monte-Carlo against a
whole grid of adversaries.  Every grid point re-scores the *same*
observation planes: the expensive pieces of a score — the stationary
gather table and the per-step transition log-likelihood table — depend
only on the (chain, transition stack, plane) triple, never on the
coverage mask.  :class:`ScoreComponentCache` memoises exactly those
pieces, keyed by content digests, so the coverage sweep pays for each
table once and every further point is a cheap mask-and-reduce.

Bit-identity.  :func:`~repro.core.eavesdropper.scoring.eq1_scores`
looks its tables up here when given a cache, and builds them over
``clip(plane, 0, None)`` of the *uncensored* plane either way.  A cached
table holds exactly the floats the uncached gather would produce, and
the coverage mask is applied after the lookup (masked-out entries become
``0.0``, or drop behind the ``observed > 0`` guard, before any
reduction), so cached scores are bit-identical to uncached ones — the
equivalence the cache tests pin.

Digests use only the public chain surface (``log_stationary`` and
``transition_edges()``), so a learned adversary's refitted chain gets a
fresh digest — cache entries invalidate by construction when the model
changes.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Callable, Hashable

import numpy as np

from ..mobility.markov import MarkovChain

__all__ = ["ScoreComponentCache", "chain_digest", "array_digest"]


def array_digest(array: np.ndarray | None) -> str:
    """Content digest of an array (``"none"`` for absent optionals)."""
    if array is None:
        return "none"
    arr = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(str(arr.dtype).encode())
    digest.update(str(arr.shape).encode())
    digest.update(arr.tobytes())
    return digest.hexdigest()


def chain_digest(chain: MarkovChain) -> str:
    """Content digest of a chain's scoring surface.

    Built from ``log_stationary`` and the sparse ``transition_edges()``
    triple — the same public surface every scorer reads — so two chains
    with equal dynamics digest equally and a refit digests differently.
    """
    rows, cols, probs = chain.transition_edges()
    digest = hashlib.sha256()
    digest.update(np.int64(chain.n_states).tobytes())
    digest.update(np.ascontiguousarray(chain.log_stationary).tobytes())
    digest.update(np.ascontiguousarray(rows).tobytes())
    digest.update(np.ascontiguousarray(cols).tobytes())
    digest.update(np.ascontiguousarray(probs).tobytes())
    return digest.hexdigest()


class ScoreComponentCache:
    """A small LRU of score-component tables, with hit/miss counters.

    Entries are arbitrary ``(label, *digests)`` keys mapping to the
    arrays the scoring kernels gather from.  The cache never inspects
    the values — correctness lives in the keys, which digest every
    input the cached computation reads.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The cached value for ``key``, computing and storing it on miss."""
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            value = compute()
            self._entries[key] = value
            if len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
            return value
        self.hits += 1
        self._entries.move_to_end(key)
        return value

    def stats(self) -> dict[str, int | float]:
        """Counters plus the hit ratio (0.0 before any lookup)."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "hit_ratio": (self.hits / total) if total else 0.0,
        }

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
