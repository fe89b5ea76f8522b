"""Sparse (CSR) Markov chain backend for city-scale state spaces.

The paper's evaluation lives at ``L = 10`` cells, where dense ``(L, L)``
kernels are ideal.  A real metro grid has ``L = 10^3 .. 10^5`` cells of
which each reaches only a handful of neighbours, so everything O(L^2) —
storage, sampling tables, Viterbi layers, the stationary least-squares
solve — must become O(nnz).  :class:`SparseMarkovChain` stores the
transition matrix in scipy CSR form and serves the full
:class:`~repro.mobility.markov.MarkovChain` API:

* sampling consumes uniforms in exactly the same draw order as the dense
  path and maps each uniform through the row's cumulative probabilities
  over its *nonzero* entries, which reproduces the dense inverse-CDF
  lookup bit for bit (zeros contribute exactly ``0.0`` to the running
  cumulative sum, so the nonzero prefix sums equal the full-row prefix
  sums at the nonzero positions);
* ``log_likelihoods`` scoring gathers log-probabilities straight from CSR
  storage (missing transitions score ``log(LOG_FLOOR)`` like the dense
  floored log matrix);
* analysis helpers (entropy rate, top-two successor tables, likelihood
  gap extrema) run over the nonzero structure.

Dense ``(L, L)`` artefacts are only ever materialised behind an explicit
size guard (:data:`DENSE_MATERIALISE_LIMIT`), so accidental
densification of a city-scale chain fails loudly instead of swapping.
"""

from __future__ import annotations

from typing import ClassVar, Iterable

import numpy as np
import scipy.sparse as sp

from ..numerics import LOG_FLOOR, safe_log
from .markov import (
    MarkovChain,
    _step_table,
    _StepTable,
    stationary_distribution,
    validate_sparse_transition_matrix,
    validate_transition_matrix,
)

__all__ = [
    "SparseMarkovChain",
    "resolve_backend",
    "as_backend",
    "chain_density",
    "BACKENDS",
    "SPARSE_AUTO_THRESHOLD",
    "DENSE_MATERIALISE_LIMIT",
]

#: Valid backend names accepted by configs, the CLI and :func:`as_backend`.
BACKENDS = ("dense", "sparse", "auto")

#: ``auto`` switches to the sparse backend at this many states (or earlier
#: for very sparse matrices — see :func:`resolve_backend`).
SPARSE_AUTO_THRESHOLD = 256

#: Refuse to materialise dense ``(L, L)`` artefacts above this many states.
DENSE_MATERIALISE_LIMIT = 2048

#: What a structurally-missing transition scores, matching the dense
#: backend's floored ``log`` of a zero entry exactly.
_LOG_ZERO = float(np.log(LOG_FLOOR))


def chain_density(chain: MarkovChain) -> float:
    """Fraction of nonzero transition-matrix entries of a chain."""
    n = chain.n_states
    if chain.is_sparse:
        nnz = chain.transition_matrix.nnz
    else:
        nnz = int(np.count_nonzero(chain.transition_matrix))
    return nnz / float(n * n)


def resolve_backend(
    backend: str, *, n_states: int, density: float | None = None
) -> str:
    """Resolve ``"auto"`` to a concrete backend name.

    The heuristic favours sparse once the state space is large
    (``n_states >= SPARSE_AUTO_THRESHOLD``) or moderately large with a
    genuinely sparse structure (at most ~1/8 of entries nonzero): below
    that, dense kernels win on constant factors.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if backend != "auto":
        return backend
    if n_states >= SPARSE_AUTO_THRESHOLD:
        return "sparse"
    if density is not None and n_states >= 64 and density <= 0.125:
        return "sparse"
    return "dense"


def as_backend(chain: MarkovChain, backend: str) -> MarkovChain:
    """Return ``chain`` under the requested backend (``dense``/``sparse``/``auto``).

    Dense -> sparse conversion preserves the validated matrix entries, the
    stationary vector and the initial distribution bit for bit, so runs at
    small L are unchanged by the backend switch.
    """
    resolved = resolve_backend(
        backend, n_states=chain.n_states, density=chain_density(chain)
    )
    if resolved == "sparse":
        return chain if chain.is_sparse else SparseMarkovChain.from_chain(chain)
    return chain.to_dense() if chain.is_sparse else chain


class SparseMarkovChain(MarkovChain):
    """A :class:`MarkovChain` whose transition matrix lives in CSR storage.

    Accepts a scipy sparse matrix (validated and canonicalised without
    densifying) or a dense array (validated through the exact dense
    pipeline first, so the stored floats — and everything derived from
    them — are bit-identical to a dense chain built from the same
    matrix).  All sampling, scoring and analysis entry points of the
    dense API work; the few inherently O(L^2) diagnostics
    (``log_transition_matrix``, ``mixing_time``, ``n_step_matrix``,
    ``kl_row_distance_matrix``) densify behind the
    :data:`DENSE_MATERIALISE_LIMIT` guard.
    """

    is_sparse: ClassVar[bool] = True

    def __init__(
        self,
        transition_matrix: sp.sparray | sp.spmatrix | np.ndarray,
        initial_distribution: np.ndarray | None = None,
        *,
        stationary_method: str = "auto",
    ) -> None:
        if sp.issparse(transition_matrix):
            P = validate_sparse_transition_matrix(transition_matrix)
            stationary = stationary_distribution(P, method=stationary_method)
        else:
            dense = validate_transition_matrix(
                np.asarray(transition_matrix, dtype=float)
            )
            stationary = stationary_distribution(dense)
            P = sp.csr_array(dense)
            P.sort_indices()
        self._init_sparse(P, stationary=stationary, initial=initial_distribution)

    @classmethod
    def from_chain(cls, chain: MarkovChain) -> "SparseMarkovChain":
        """Sparse twin of an existing chain, bypassing re-validation.

        Copies the already-validated matrix, the stationary vector and the
        initial distribution verbatim (re-validating would renormalise rows
        by a sum that is 1.0 only up to rounding, perturbing entries by an
        ulp and breaking bit-identity with the source chain).
        """
        if chain.is_sparse:
            P = sp.csr_array(chain.transition_matrix.copy())
        else:
            P = sp.csr_array(np.asarray(chain.transition_matrix, dtype=float))
            P.sort_indices()
        obj = object.__new__(cls)
        obj._init_sparse(
            P,
            stationary=np.asarray(chain.stationary, dtype=float).copy(),
            initial=np.asarray(chain.initial_distribution, dtype=float).copy(),
        )
        return obj

    def _init_sparse(
        self,
        P: sp.csr_array,
        *,
        stationary: np.ndarray,
        initial: np.ndarray | None,
    ) -> None:
        self.transition_matrix = P
        self._stationary = np.asarray(stationary, dtype=float)
        if self._stationary.shape != (P.shape[0],):
            raise ValueError("stationary vector shape does not match the matrix")
        n = P.shape[0]
        self._log_data = safe_log(P.data)
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(P.indptr))
        #: Sorted ``row * L + col`` keys of the nonzero entries; scoring
        #: gathers resolve (prev, next) pairs by binary search on these.
        self._flat_keys = rows * n + P.indices.astype(np.int64)
        self._entry_rows = rows
        self._dense_cache: np.ndarray | None = None
        self._dense_log_cache: np.ndarray | None = None
        self._predecessor_cache = None
        if initial is None:
            self.initial_distribution = self._stationary.copy()
        else:
            init = np.asarray(initial, dtype=float)
            if init.shape != (n,):
                raise ValueError(
                    "initial distribution shape does not match number of states"
                )
            if np.any(init < 0) or not np.isclose(init.sum(), 1.0, atol=1e-6):
                raise ValueError("initial distribution must be a probability vector")
            self.initial_distribution = init / init.sum()

    def __repr__(self) -> str:  # the dataclass repr would dump arrays
        return (
            f"{type(self).__name__}(n_states={self.n_states}, "
            f"nnz={self.transition_matrix.nnz})"
        )

    # ------------------------------------------------------------------
    # Dense materialisation (guarded)
    # ------------------------------------------------------------------
    def _dense_transition(self) -> np.ndarray:
        if self.n_states > DENSE_MATERIALISE_LIMIT:
            raise ValueError(
                f"refusing to materialise a dense ({self.n_states}, "
                f"{self.n_states}) matrix from a sparse chain (limit "
                f"{DENSE_MATERIALISE_LIMIT}); use the sparse-aware API"
            )
        if self._dense_cache is None:
            self._dense_cache = self.transition_matrix.toarray()
        return self._dense_cache

    def to_dense(self) -> MarkovChain:
        """A dense :class:`MarkovChain` over the same transition structure.

        Guarded by :data:`DENSE_MATERIALISE_LIMIT`.  The dense constructor
        re-validates, so entries may differ from this chain's by an ulp.
        """
        return MarkovChain(
            self._dense_transition().copy(),
            np.asarray(self.initial_distribution, dtype=float).copy(),
        )

    def dense_transition(self) -> np.ndarray:
        """Dense matrix view — guarded by :data:`DENSE_MATERIALISE_LIMIT`."""
        return self._dense_transition()

    @property
    def log_transition_matrix(self) -> np.ndarray:
        """Dense floored log matrix — guarded; prefer
        :meth:`log_transition_entries` at scale."""
        if self._dense_log_cache is None:
            self._dense_log_cache = safe_log(self._dense_transition())
        return self._dense_log_cache

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def log_transition_entries(
        self, previous: np.ndarray, current: np.ndarray
    ) -> np.ndarray:
        previous = np.asarray(previous, dtype=np.int64)
        current = np.asarray(current, dtype=np.int64)
        prev_b, cur_b = np.broadcast_arrays(previous, current)
        keys = prev_b.ravel() * np.int64(self.n_states) + cur_b.ravel()
        flat = self._flat_keys
        pos = np.searchsorted(flat, keys)
        clipped = np.minimum(pos, flat.size - 1)
        found = (pos < flat.size) & (flat[clipped] == keys)
        out = np.where(found, self._log_data[clipped], _LOG_ZERO)
        return out.reshape(prev_b.shape)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _static_steps(self) -> _StepTable:
        """Padded per-row cumulative probabilities and successor columns.

        Row ``i`` of the table holds the running cumulative sums of the
        row's nonzero probabilities, padded on the right with the row
        total; ``successors[i, k]`` is the state reached when ``k`` of
        those cumulative values are ``<= u``, padded with ``L - 1``.
        Counting reproduces the dense backend's count over the full-row
        cumulative (including its clamp of ``u >= 1`` overflows to the
        last state) exactly.
        """
        if self._sampling_cache is None:
            P = self.transition_matrix
            n = self.n_states
            counts = np.diff(P.indptr)
            width = int(counts.max())
            rows_of = self._entry_rows
            within = np.arange(P.nnz) - np.repeat(P.indptr[:-1], counts)
            padded = np.zeros((n, width), dtype=float)
            padded[rows_of, within] = P.data
            successors = np.full((n, width + 1), n - 1, dtype=np.int64)
            successors[rows_of, within] = P.indices
            self._sampling_cache = _step_table(
                np.cumsum(padded, axis=1), successors
            )
        return self._sampling_cache

    # ------------------------------------------------------------------
    # Trellis support
    # ------------------------------------------------------------------
    def transition_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero transitions as ``(rows, cols, probabilities)``."""
        P = self.transition_matrix
        return self._entry_rows, P.indices.astype(np.int64), P.data

    # ------------------------------------------------------------------
    # Information-theoretic quantities and diagnostics
    # ------------------------------------------------------------------
    def entropy_rate(self) -> float:
        # CSR data is strictly positive (explicit zeros are eliminated at
        # validation), so the floored log equals the raw log entry-wise.
        data = self.transition_matrix.data
        contributions = -(data * safe_log(data))
        row_entropies = np.bincount(
            self._entry_rows, weights=contributions, minlength=self.n_states
        )
        return float(self._stationary @ row_entropies)

    def kl_row_distance_matrix(self) -> np.ndarray:
        dense = MarkovChain(
            self._dense_transition().copy(),
            np.asarray(self.initial_distribution, dtype=float).copy(),
        )
        return dense.kl_row_distance_matrix()

    def mixing_time(self, epsilon: float = 0.25, *, max_steps: int = 10_000) -> int:
        # P^t fills in as the chain mixes, so the power iteration is dense
        # regardless of backend; run it on the guarded dense matrix.
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        P = self._dense_transition()
        pi = self._stationary
        power = np.eye(self.n_states)
        for t in range(1, max_steps + 1):
            power = power @ P
            distance = 0.5 * np.abs(power - pi[None, :]).sum(axis=1).max()
            if distance <= epsilon:
                return t
        return max_steps

    def n_step_matrix(self, steps: int) -> np.ndarray:
        if steps < 0:
            raise ValueError("steps must be non-negative")
        power = np.eye(self.n_states)
        dense = self._dense_transition()
        for _ in range(steps):
            power = power @ dense
        return power

    # ------------------------------------------------------------------
    # Successor tables (CML / MO strategy support)
    # ------------------------------------------------------------------
    def transition_row(self, state: int) -> np.ndarray:
        self._check_state(state)
        P = self.transition_matrix
        start, end = P.indptr[state], P.indptr[state + 1]
        row = np.zeros(self.n_states, dtype=float)
        row[P.indices[start:end]] = P.data[start:end]
        return row

    def transition_diagonal(self) -> np.ndarray:
        return np.asarray(self.transition_matrix.diagonal(), dtype=float)

    def positive_transition_extrema(self) -> tuple[float, float, float]:
        P = self.transition_matrix
        data = P.data
        counts = np.diff(P.indptr)
        starts = P.indptr[:-1]
        row_max = np.maximum.reduceat(data, starts)
        positions = np.arange(data.size)
        first_max = np.minimum.reduceat(
            np.where(data == np.repeat(row_max, counts), positions, data.size),
            starts,
        )
        masked = data.copy()
        masked[first_max] = -np.inf
        second_nonzero = np.maximum.reduceat(masked, starts)
        # The second-largest *full-row* entry is the second-largest nonzero
        # when the row has two, else one of the row's zeros.
        second = np.where(counts >= 2, second_nonzero, 0.0)
        return float(data.min()), float(data.max()), float(second.min())

    def top_two_successors(self) -> tuple[np.ndarray, np.ndarray]:
        P = self.transition_matrix
        data = P.data
        cols = P.indices
        counts = np.diff(P.indptr)
        starts = P.indptr[:-1]
        positions = np.arange(data.size)
        # First maximum per row; CSR column indices ascend, so the minimum
        # position among ties is the dense argmax's first-maximum column.
        row_max = np.maximum.reduceat(data, starts)
        first_max = np.minimum.reduceat(
            np.where(data == np.repeat(row_max, counts), positions, data.size),
            starts,
        )
        top1 = cols[first_max].astype(np.int64)
        masked = data.copy()
        masked[first_max] = -np.inf
        second_val = np.maximum.reduceat(masked, starts)
        second_pos = np.minimum.reduceat(
            np.where(masked == np.repeat(second_val, counts), positions, data.size),
            starts,
        )
        second_cols = cols[np.minimum(second_pos, data.size - 1)].astype(np.int64)
        # With a single nonzero the dense argmax over the masked row lands
        # on the first zero column (value 0.0 beats the -inf mask).
        first_zero = np.where(top1 != 0, 0, min(1, self.n_states - 1))
        top2 = np.where(counts >= 2, second_cols, first_zero)
        return top1, top2

    def restricted_argmax_row(self, state: int, excluded: Iterable[int] = ()) -> int:
        self._check_state(state)
        row = self.transition_row(state)
        for cell in excluded:
            self._check_state(int(cell))
            row[int(cell)] = -np.inf
        best = int(np.argmax(row))
        if row[best] == -np.inf:
            raise ValueError("all successor states are excluded")
        return best
