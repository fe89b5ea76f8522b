"""Discrete-time Markov chain mobility substrate.

The paper models user mobility as an ergodic discrete-time Markov chain
(MC) over the set of MEC cells (Section II-C).  This module provides the
:class:`MarkovChain` class used throughout the reproduction: sampling of
trajectories, stationary distributions, log-likelihoods of observed
trajectories, entropy rates, total-variation mixing times and
Kullback-Leibler row distances (the paper's "temporal skewness" measure).

Conventions
-----------
``P[i, j]`` is the probability of moving *from* state ``i`` *to* state
``j`` in one slot, i.e. ``P(x_t = j | x_{t-1} = i)``.  States are the
integers ``0 .. n_states - 1`` and correspond to cell indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph
from scipy.sparse.linalg import eigs

from ..numerics import safe_log

__all__ = [
    "MarkovChain",
    "StationaryDistributionError",
    "validate_transition_matrix",
    "validate_sparse_transition_matrix",
    "stationary_distribution",
    "is_ergodic",
    "total_variation_distance",
    "DENSE_STATIONARY_LIMIT",
]


class StationaryDistributionError(ValueError):
    """Raised when a stationary distribution cannot be computed."""


def validate_transition_matrix(matrix: np.ndarray, *, atol: float = 1e-8) -> np.ndarray:
    """Validate and normalise a candidate transition matrix.

    Parameters
    ----------
    matrix:
        A square 2-D array whose rows sum to one (within ``atol``).
    atol:
        Absolute tolerance on row sums and non-negativity.

    Returns
    -------
    numpy.ndarray
        A float64 copy of the matrix with rows re-normalised exactly.

    Raises
    ------
    ValueError
        If the matrix is not square, contains negative entries, or a row
        does not sum to approximately one.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"transition matrix must be square, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("transition matrix must have at least one state")
    if np.any(arr < -atol):
        raise ValueError("transition matrix has negative entries")
    arr = np.clip(arr, 0.0, None)
    row_sums = arr.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > max(atol, 1e-6)):
        bad = int(np.argmax(np.abs(row_sums - 1.0)))
        raise ValueError(
            f"row {bad} of transition matrix sums to {row_sums[bad]:.6f}, expected 1"
        )
    return arr / row_sums[:, None]


def validate_sparse_transition_matrix(
    matrix: sp.sparray | sp.spmatrix, *, atol: float = 1e-8
) -> sp.csr_array:
    """Sparse counterpart of :func:`validate_transition_matrix`.

    Accepts any scipy sparse matrix (or array-like) and returns a
    canonical float64 CSR array — duplicates summed, explicit zeros
    removed, column indices sorted, rows re-normalised exactly — without
    ever materialising a dense ``(L, L)`` array.
    """
    P = sp.csr_array(matrix, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"transition matrix must be square, got shape {P.shape}")
    if P.shape[0] == 0:
        raise ValueError("transition matrix must have at least one state")
    P.sum_duplicates()
    if P.data.size and np.any(P.data < -atol):
        raise ValueError("transition matrix has negative entries")
    np.clip(P.data, 0.0, None, out=P.data)
    P.eliminate_zeros()
    row_sums = np.asarray(P.sum(axis=1)).ravel()
    if np.any(np.abs(row_sums - 1.0) > max(atol, 1e-6)):
        bad = int(np.argmax(np.abs(row_sums - 1.0)))
        raise ValueError(
            f"row {bad} of transition matrix sums to {row_sums[bad]:.6f}, expected 1"
        )
    P.data /= np.repeat(row_sums, np.diff(P.indptr))
    P.sort_indices()
    return P


_STATIONARY_METHODS = ("auto", "dense", "power", "eigs")

#: With ``method="auto"``, sparse inputs up to this many states densify and
#: take the dense ``lstsq`` reference path (bit-identical to a dense chain
#: built from the same matrix); above it the iterative solvers run.  Dense
#: inputs always use ``lstsq`` so small-L results never change.
DENSE_STATIONARY_LIMIT = 512


def stationary_distribution(
    matrix: np.ndarray | sp.sparray | sp.spmatrix,
    *,
    atol: float = 1e-10,
    method: str = "auto",
    max_iter: int = 20_000,
) -> np.ndarray:
    """Compute the stationary distribution ``pi`` with ``pi @ P = pi``.

    Parameters
    ----------
    matrix:
        Dense array or scipy sparse matrix (kept sparse throughout the
        iterative solvers).
    atol:
        Upper bound on the noise-truncation threshold.  Entries below
        ``min(atol, eps * n) * max(pi)`` — i.e. provably below the
        solver's own floating-point accuracy — are zeroed, and only
        *after* the residual check validates the solution, so
        legitimately tiny stationary mass (π entries ~1/L at large L) is
        never silently renormalised away.
    method:
        ``"dense"`` solves the full least-squares system (the small-L
        reference), ``"power"`` runs the lazy power iteration
        ``x <- (x + P^T x) / 2`` (falling back to ``"eigs"`` if it has not
        converged after ``max_iter`` sweeps), ``"eigs"`` asks ARPACK for
        the leading eigenvector of the lazy operator.  ``"auto"`` picks
        ``"dense"`` for dense inputs and for sparse inputs with at most
        :data:`DENSE_STATIONARY_LIMIT` states, ``"power"`` otherwise.

    Raises
    ------
    StationaryDistributionError
        If no valid probability vector can be found.
    """
    if method not in _STATIONARY_METHODS:
        raise ValueError(
            f"unknown stationary method {method!r}; expected one of "
            f"{_STATIONARY_METHODS}"
        )
    if sp.issparse(matrix):
        P = validate_sparse_transition_matrix(matrix)
        if method == "auto":
            method = "dense" if P.shape[0] <= DENSE_STATIONARY_LIMIT else "power"
        if method == "dense":
            P = P.toarray()
    else:
        P = validate_transition_matrix(matrix)
        if method == "auto":
            method = "dense"
    n = P.shape[0]
    if n == 1:
        return np.array([1.0])
    if method == "dense":
        if sp.issparse(P):
            P = P.toarray()
        pi = _stationary_lstsq(P)
    elif method == "power":
        pi = _stationary_power(P, max_iter=max_iter)
    else:
        pi = _stationary_eigs(P)
    return _finalise_stationary(pi, P, atol=atol)


def _stationary_lstsq(P: np.ndarray) -> np.ndarray:
    """Solve ``(P^T - I) pi = 0`` with ``sum(pi) = 1`` by least squares."""
    n = P.shape[0]
    A = np.vstack([P.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    return np.real(pi)


def _stationary_power(
    P: np.ndarray | sp.csr_array, *, max_iter: int, tol: float = 1e-13
) -> np.ndarray:
    """Lazy power iteration ``x <- (x + P^T x) / 2``.

    The half-identity shift keeps the fixed point but makes eigenvalue 1
    strictly dominant, so even periodic chains converge.  Falls back to
    ARPACK if the L1 change has not dropped below ``tol`` in ``max_iter``
    sweeps (slowly mixing chains).
    """
    PT = P.T.tocsr() if sp.issparse(P) else np.ascontiguousarray(P.T)
    n = P.shape[0]
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = 0.5 * (x + PT @ x)
        nxt /= nxt.sum()
        if np.abs(nxt - x).sum() <= tol:
            return nxt
        x = nxt
    return _stationary_eigs(P, v0=x)


def _stationary_eigs(
    P: np.ndarray | sp.csr_array, *, v0: np.ndarray | None = None
) -> np.ndarray:
    """Leading eigenvector of the lazy transposed operator via ARPACK."""
    n = P.shape[0]
    if n < 3:  # ARPACK needs k < n - 1; a (2, 2) densify is always safe.
        return _stationary_lstsq(
            P.toarray() if sp.issparse(P) else P  # repro-lint: disable=RPL004
        )
    if sp.issparse(P):
        lazy = 0.5 * (sp.eye_array(n, format="csr") + P.T.tocsr())
    else:
        lazy = 0.5 * (np.eye(n) + P.T)
    if v0 is None:
        v0 = np.full(n, 1.0 / n)
    try:
        _, vecs = eigs(lazy, k=1, which="LM", v0=v0)
    except Exception as exc:  # ArpackError / ArpackNoConvergence
        raise StationaryDistributionError(
            f"eigenvector solve failed: {exc}"
        ) from exc
    pi = np.real(vecs[:, 0])
    if pi.sum() < 0:
        pi = -pi
    return pi


def _finalise_stationary(
    pi: np.ndarray, P: np.ndarray | sp.csr_array, *, atol: float
) -> np.ndarray:
    """Validate a candidate stationary vector, then clip numerical noise.

    Order matters (the historical bug): truncation happens only *after*
    the residual check passes, and only for entries below the solver's
    floating-point accuracy (``eps * n`` relative to ``max(pi)``, capped
    by ``atol``) — legitimate tiny mass survives.
    """
    pi = np.real(np.asarray(pi, dtype=float))
    if np.any(pi < -1e-8):
        raise StationaryDistributionError("stationary solve produced negative mass")
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0:
        raise StationaryDistributionError("stationary solve produced zero mass")
    pi = pi / total
    residual = np.max(np.abs(pi @ P - pi))
    if residual > 1e-6:
        raise StationaryDistributionError(
            f"stationary distribution residual too large: {residual:.3e}"
        )
    floor = min(atol, np.finfo(float).eps * pi.size) * pi.max()
    noise = pi < floor
    if np.any(pi[noise] > 0):
        pi = np.where(noise, 0.0, pi)
        pi = pi / pi.sum()
    return pi


def is_ergodic(matrix: np.ndarray | sp.sparray | sp.spmatrix) -> bool:
    """Return ``True`` if the chain is irreducible and aperiodic.

    Irreducibility is one strongly connected component of the transition
    graph; aperiodicity is a cycle-period gcd of 1, computed as
    ``gcd { d(u) + 1 - d(v) : edge u -> v }`` over BFS levels ``d`` from
    an arbitrary root.  Both are linear in the number of nonzero
    transitions, replacing the dense matrix-power primitivity check
    (O(L^5) worst case) with identical verdicts.  Accepts dense arrays
    and scipy sparse matrices.
    """
    if sp.issparse(matrix):
        adj = validate_sparse_transition_matrix(matrix)
    else:
        adj = sp.csr_array(validate_transition_matrix(matrix))
    n = adj.shape[0]
    if n == 1:
        return True
    n_components, _ = csgraph.connected_components(
        adj, directed=True, connection="strong"
    )
    if n_components != 1:
        return False
    levels = csgraph.shortest_path(
        adj, method="D", directed=True, unweighted=True, indices=0
    ).astype(np.int64)
    coo = adj.tocoo()
    period = np.gcd.reduce(levels[coo.row] + 1 - levels[coo.col])
    return bool(period == 1)


def total_variation_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total-variation distance ``0.5 * sum |p - q|`` between two pmfs."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must have the same shape")
    return 0.5 * float(np.abs(p - q).sum())


#: Rows at most this wide are stored as they are and always counted whole;
#: wider rows also get a copy padded for bisection (:func:`_step_table`).
_LINEAR_COUNT_WIDTH = 32

#: A padded table is bisected once a step's whole-row count compares this
#: many values (rows x unpadded width).  The measured crossover, T = 200,
#: lies between 6,000 and 20,000 for L = 50 .. 1000, growing with L.
_BISECT_MIN_GATHER = 1 << 13


@dataclass(frozen=True)
class _StepTable:
    """The inverse-CDF table one sampling step reads.

    ``rows`` holds non-decreasing rows, ``(n, width)`` or, per step,
    ``(T - 1, n, width)``.  A row at uniform ``u`` moves to the count of
    its entries ``<= u``, or to ``successors[row, count]`` when set
    (``(n, width + 1)``).  Rows wider than 32 live in ``padded``, each
    padded with ``+inf`` to a power of two wider than ``width`` (the
    layout bisection needs); ``rows`` is then a view of it.
    """

    rows: np.ndarray
    padded: np.ndarray | None = None
    successors: np.ndarray | None = None

    def next_state(self, state: int, u: float, step: int = 0) -> int:
        """One step of one row: a ``searchsorted`` over ``state``'s row."""
        row = self.rows[step, state] if self.rows.ndim == 3 else self.rows[state]
        count = int(np.searchsorted(row, u, side="right"))
        return count if self.successors is None else int(self.successors[state, count])


def _step_table(
    cumulative: np.ndarray, successors: np.ndarray | None = None
) -> _StepTable:
    """The step table of non-decreasing rows, padded when wider than 32."""
    width = cumulative.shape[-1]
    if width <= _LINEAR_COUNT_WIDTH:
        return _StepTable(cumulative, None, successors)
    padded = np.full((*cumulative.shape[:-1], 1 << width.bit_length()), np.inf)
    padded[..., :width] = cumulative
    return _StepTable(padded[..., :width], padded, successors)


def _walk(
    table: _StepTable, initial: np.ndarray, uniforms: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Fill ``out`` (``(R, T)``) from ``initial`` states and ``(R, T - 1)`` uniforms.

    One row takes a ``searchsorted`` per step.  Otherwise the count
    compares each state's whole unpadded row with ``u``, or the bisection
    descends a padded row by halves: after the probes at offsets
    ``W/2 .. 1`` it sits at the count of entries ``<= u`` (``+inf`` is
    never counted, and ``W`` exceeds the row's width, so every count is
    reachable).
    """
    if out.shape[0] == 1:
        out[0, 0] = state = int(initial[0])
        for t, u in enumerate(uniforms[0].tolist(), start=1):
            out[0, t] = state = table.next_state(state, u, t - 1)
        return out
    rows, successors = table.rows, table.successors
    per_step = rows.ndim == 3
    n_rows, width = rows.shape[-2:]
    padded = table.padded
    probes: list[tuple[int, np.ndarray]] = []
    if padded is not None and out.shape[0] * width >= _BISECT_MIN_GATHER:
        width = padded.shape[-1]
        flat = padded.reshape(-1)  # contiguous, so a view
        halves = [width >> shift for shift in range(1, width.bit_length())]
        probes = [(half, flat[half - 1 :]) for half in halves]
    out[:, 0] = states = initial
    for t in range(1, out.shape[1]):
        u = uniforms[:, t - 1]
        if probes:
            base = states * width
            if per_step:
                base += (t - 1) * n_rows * width
            index = base.copy()
            u = np.ascontiguousarray(u)
            for half, probe in probes:
                index += (probe[index] <= u) * half
            counts = index - base
        else:
            step_rows = rows[t - 1] if per_step else rows
            counts = (step_rows[states] <= u[:, None]).sum(axis=1)
        states = counts if successors is None else successors[states, counts]
        out[:, t] = states
    return out


@dataclass
class MarkovChain:
    """An ergodic discrete-time Markov chain over cell indices.

    Parameters
    ----------
    transition_matrix:
        Row-stochastic matrix ``P`` with ``P[i, j] = P(j | i)``.
    initial_distribution:
        Distribution of the first state.  Defaults to the stationary
        distribution, matching the paper's steady-state assumption.

    Examples
    --------
    >>> import numpy as np
    >>> chain = MarkovChain(np.array([[0.9, 0.1], [0.2, 0.8]]))
    >>> chain.n_states
    2
    >>> trajectory = chain.sample_trajectory(5, rng=np.random.default_rng(0))
    >>> len(trajectory)
    5
    """

    #: Whether the transition matrix is stored sparsely (CSR).  The sparse
    #: subclass flips this; the trellis kernels dispatch on it.
    is_sparse: ClassVar[bool] = False

    transition_matrix: np.ndarray
    initial_distribution: np.ndarray | None = None
    _stationary: np.ndarray = field(init=False, repr=False)
    _log_transition: np.ndarray = field(init=False, repr=False)
    _cumulative_transition: np.ndarray = field(init=False, repr=False)
    #: The chain's own step table (:meth:`_static_steps`), built on first
    #: use and left out of pickles (:meth:`__getstate__`).
    _sampling_cache: "_StepTable | None" = field(
        init=False, repr=False, default=None
    )
    #: One-entry memo of the last transition stack's step table, keyed by
    #: object identity (the fleet passes the same immutable stack for
    #: every user of every run, so the table is built once).
    _stack_cumulative: "tuple[object, _StepTable] | None" = field(
        init=False, repr=False, default=None
    )
    #: Lazily-built cumulative initial distribution the initial states
    #: are drawn from (:meth:`_initial_states`).
    _cumulative_initial: "np.ndarray | None" = field(
        init=False, repr=False, default=None
    )
    #: Per-``top_k`` memo of the trellis predecessor structure, populated
    #: lazily by :func:`repro.core.trellis._predecessor_structure`.
    _trellis_predecessors: (
        "dict[int | None, tuple[np.ndarray, np.ndarray, np.ndarray]] | None"
    ) = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        self.transition_matrix = validate_transition_matrix(self.transition_matrix)
        self._stationary = stationary_distribution(self.transition_matrix)
        self._log_transition = safe_log(self.transition_matrix)
        self._cumulative_transition = np.cumsum(self.transition_matrix, axis=1)
        if self.initial_distribution is None:
            self.initial_distribution = self._stationary.copy()
        else:
            init = np.asarray(self.initial_distribution, dtype=float)
            if init.shape != (self.n_states,):
                raise ValueError(
                    "initial distribution shape does not match number of states"
                )
            if np.any(init < 0) or not np.isclose(init.sum(), 1.0, atol=1e-6):
                raise ValueError("initial distribution must be a probability vector")
            self.initial_distribution = init / init.sum()

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        """Number of cells (the paper's ``L``)."""
        return self.transition_matrix.shape[0]

    @property
    def stationary(self) -> np.ndarray:
        """Stationary distribution ``pi`` of the chain."""
        return self._stationary

    @property
    def log_stationary(self) -> np.ndarray:
        """Natural log of the stationary distribution (floored)."""
        return safe_log(self._stationary)

    @property
    def log_transition_matrix(self) -> np.ndarray:
        """Natural log of the transition matrix (floored)."""
        return self._log_transition

    def is_ergodic(self) -> bool:
        """Whether the chain is irreducible and aperiodic."""
        return is_ergodic(self.transition_matrix)

    # ------------------------------------------------------------------
    # Backend-agnostic accessors
    # ------------------------------------------------------------------
    # Scorers, strategies and bounds read the transition structure through
    # these methods instead of indexing ``transition_matrix`` directly, so
    # the sparse backend can serve the same queries from CSR storage.

    def log_transition_entries(
        self, previous: np.ndarray, current: np.ndarray
    ) -> np.ndarray:
        """Floored ``log P(current | previous)`` for aligned index arrays.

        The gather every scorer uses: dense chains fancy-index the
        precomputed log matrix; the sparse subclass looks the pairs up in
        CSR storage without densifying.  Missing (zero-probability)
        transitions score ``log(LOG_FLOOR)`` in both backends.
        """
        previous = np.asarray(previous, dtype=np.int64)
        current = np.asarray(current, dtype=np.int64)
        return self._log_transition[previous, current]

    def transition_row(self, state: int) -> np.ndarray:
        """Row ``P(. | state)`` as a dense 1-D array (treat as read-only)."""
        self._check_state(state)
        return self.transition_matrix[state]

    def dense_transition(self) -> np.ndarray:
        """The full transition matrix as a dense array (treat as read-only).

        The accessor call sites outside ``mobility/`` use when they
        genuinely need the whole ``(L, L)`` matrix (per-slot world stacks,
        the CML pair-chain construction).  Dense chains return their
        storage directly; the sparse backend materialises behind the
        :data:`~repro.mobility.sparse.DENSE_MATERIALISE_LIMIT` guard, so a
        city-scale chain fails loudly here instead of silently allocating
        O(L^2).
        """
        return self.transition_matrix

    def transition_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero transitions as ``(rows, cols, probabilities)``.

        Row-major with ascending column order per row — the iteration
        order of CSR storage — in both backends, so edge-iterating
        kernels (the sparsity-aware Viterbi) are backend-agnostic.
        """
        rows, cols = np.nonzero(self.transition_matrix)
        return rows, cols, self.transition_matrix[rows, cols]

    def transition_diagonal(self) -> np.ndarray:
        """Self-transition probabilities ``P(i | i)`` as a 1-D array."""
        return np.diagonal(self.transition_matrix).copy()

    def positive_transition_extrema(self) -> tuple[float, float, float]:
        """``(p_min, p_max, p_2)`` over the transition matrix.

        ``p_min`` / ``p_max`` are the smallest / largest strictly positive
        entries and ``p_2`` is the smallest second-largest full-row entry
        (zeros included), the three constants the Section V-C2 likelihood
        gap bounds are built from.
        """
        P = self.transition_matrix
        positive = P[P > 0]
        second = np.sort(P, axis=1)[:, -2]
        return float(positive.min()), float(positive.max()), float(second.min())

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _initial_states(self, draws: np.ndarray) -> np.ndarray:
        """Initial states of uniform ``draws`` by inverse CDF.

        The cumulative initial distribution is cached and renormalised by
        its last entry: the same draw, and the same float comparisons, as
        ``rng.choice(n, p=...)``.
        """
        cumulative = self._cumulative_initial
        if cumulative is None:
            cumulative = np.cumsum(self.initial_distribution)
            cumulative /= cumulative[-1]
            self._cumulative_initial = cumulative
        return np.minimum(
            np.searchsorted(cumulative, draws, side="right"), self.n_states - 1
        )

    def _static_steps(self) -> _StepTable:
        """The step table of this chain's own matrix, built on first use.

        Row ``i`` holds the running sums of ``P[i]`` without the last one,
        so the count of entries ``<= u`` is the next state, clamped to
        ``L - 1`` for a ``u`` at or above the row total."""
        if self._sampling_cache is None:
            self._sampling_cache = _step_table(self._cumulative_transition[:, :-1])
        return self._sampling_cache

    def __getstate__(self) -> dict[str, object]:
        """Pickle without the step table (up to 2x the matrix); it is rebuilt."""
        state = dict(self.__dict__)
        state.pop("_sampling_cache", None)
        return state

    def sample_next_state(self, state: int, rng: np.random.Generator) -> int:
        """Draw the next state given the current ``state`` (one uniform)."""
        self._check_state(state)
        return self._static_steps().next_state(state, rng.random())

    def sample_trajectory(
        self,
        length: int,
        rng: np.random.Generator,
        *,
        initial_state: int | None = None,
        transition_stack: np.ndarray | None = None,
    ) -> np.ndarray:
        """Sample a trajectory of ``length`` states.

        The one-row case of :meth:`sample_trajectories_batch` (one
        ``searchsorted`` per step, :meth:`_StepTable.next_state`): the
        generator draws ``length`` uniforms (``length - 1`` with a fixed
        ``initial_state``), the first of which picks the initial state
        from the initial distribution.

        ``transition_stack`` is an optional ``(T - 1, L, L)`` stack of
        per-step matrices of a time-varying chain; step ``t - 1`` governs
        the transition into slot ``t``.  The randomness consumed is the
        same as on the stationary path, which is what keeps empty-timeline
        dynamic runs bit-identical to static ones.
        """
        return self.sample_trajectories_batch(
            length,
            [rng],
            start_cells=None if initial_state is None else [initial_state],
            transition_stack=transition_stack,
        )[0]

    def sample_trajectories(
        self, count: int, length: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample ``count`` independent trajectories as a ``(count, length)`` array.

        One generator filling ``count`` rows: bit-identical to stacking
        ``count`` scalar :meth:`sample_trajectory` calls on ``rng``.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        return self.sample_trajectories_batch(length, [rng], per_rng=count)

    def sample_trajectories_batch(
        self,
        length: int,
        rngs: Sequence[np.random.Generator],
        *,
        per_rng: int = 1,
        start_cells: "Sequence[int] | np.ndarray | None" = None,
        transition_stack: np.ndarray | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Sample ``per_rng`` trajectories per generator, rows in generator order.

        Generator ``g`` fills rows ``[g * per_rng, (g + 1) * per_rng)`` of
        one ``(R, length)`` uniform buffer with a single
        ``rng.random(out=...)`` call; every column 0 then maps to an
        initial state through one ``searchsorted``, and the other columns
        drive :meth:`evolve_from_uniforms`.  For a fresh generator
        ``random()`` followed by ``random(T - 1)`` equals ``random(T)``,
        and ``random((k, T))`` equals ``k`` calls of ``random(T)``, so
        every row consumes its generator exactly like a scalar
        :meth:`sample_trajectory` call would.

        ``start_cells`` fixes each row's first state; each generator then
        draws only ``(per_rng, length - 1)`` uniforms.  ``transition_stack``
        makes the evolution time-varying (see :meth:`evolve_from_uniforms`)
        without changing the draw order.  ``out`` is an ``(R, length)``
        int64 destination written in place (a slice of a larger plane,
        possibly a memmap); it is also what is returned.
        """
        rngs = list(rngs)
        if not rngs:
            raise ValueError("need at least one generator")
        if per_rng <= 0:
            raise ValueError("per_rng must be positive")
        if length <= 0:
            raise ValueError("trajectory length must be positive")
        rows = len(rngs) * per_rng
        if out is None:
            out = np.empty((rows, length), dtype=np.int64)
        elif out.shape != (rows, length):
            raise ValueError(f"out must be ({rows}, {length}), got {out.shape}")
        fixed = start_cells is not None
        draws = np.empty((rows, length - fixed))
        for index, rng in enumerate(rngs):
            rng.random(out=draws[index * per_rng : (index + 1) * per_rng])
        if fixed:
            initial = np.asarray(start_cells, dtype=np.int64)
            if initial.shape != (rows,):
                raise ValueError(f"need {rows} start cells, got {initial.shape}")
            if rows and (initial.min() < 0 or initial.max() >= self.n_states):
                raise ValueError("start cells out of range")
        else:
            initial, draws = self._initial_states(draws[:, 0]), draws[:, 1:]
        return _walk(self._steps(transition_stack, length), initial, draws, out)

    def _validate_transition_stack(
        self, stack: np.ndarray, length: int
    ) -> np.ndarray:
        """Shape-check a per-step ``(T - 1, L, L)`` transition stack.

        The matrices themselves are trusted (they come out of validated
        :class:`MarkovChain` instances via the world layer); only the
        dimensions are checked so the per-slot kernels stay cheap.
        """
        arr = np.asarray(stack, dtype=float)
        n = self.n_states
        if arr.ndim != 3 or arr.shape[1:] != (n, n):
            raise ValueError(
                f"transition_stack must be (T - 1, {n}, {n}), got {arr.shape}"
            )
        if arr.shape[0] != length - 1:
            raise ValueError(
                f"transition_stack covers {arr.shape[0]} steps but the "
                f"trajectory has {length - 1}"
            )
        return arr

    def _cumulative_stack(self, stack: np.ndarray, length: int) -> _StepTable:
        """The per-step table of a transition stack, memoized.

        The memo holds a strong reference to the stack object and is keyed
        by identity, so repeated sampling calls against one simulation's
        (immutable) stack pay the cumsum exactly once.
        """
        cached = self._stack_cumulative
        if (
            cached is not None
            and cached[0] is stack
            and cached[1].rows.shape[0] == length - 1
        ):
            return cached[1]
        cumulative = np.cumsum(
            self._validate_transition_stack(stack, length), axis=2
        )
        steps = _step_table(cumulative[..., :-1])
        self._stack_cumulative = (stack, steps)
        return steps

    def _steps(self, transition_stack: np.ndarray | None, length: int) -> _StepTable:
        if transition_stack is None:
            return self._static_steps()
        return self._cumulative_stack(transition_stack, length)

    def evolve_from_uniforms(
        self,
        initial_states: np.ndarray,
        uniforms: np.ndarray,
        *,
        transition_stack: np.ndarray | None = None,
    ) -> np.ndarray:
        """Evolve many trajectories from initial states and uniform draws.

        ``initial_states`` has shape ``(R,)`` and ``uniforms`` shape
        ``(R, T - 1)``; returns an ``(R, T)`` int64 array.  Step ``t``
        moves a row at state ``s`` with uniform ``u`` to the number of
        running sums of ``P[s]`` that are ``<= u`` (the last sum left out,
        which clamps a ``u`` at or above the row total to ``L - 1``).  The
        sums of a row never decrease, so that count is what
        ``searchsorted(..., side="right")`` returns, and any way of
        counting gives the same state bit for bit.  The width of the rows
        and their number ``R`` pick the way.  One row takes a
        ``searchsorted`` per step.  Rows of at most 32 entries are compared
        whole (``R x width`` values per step).  Wider rows are also kept
        padded with ``+inf`` to a power of two ``W``; they are bisected
        (``log2 W`` gathers of ``R`` values per step) once ``R x width``
        reaches ``2**13``, and compared whole, without the padding, below.

        With ``transition_stack`` (a ``(T - 1, L, L)`` stack of per-step
        matrices, e.g. from
        :meth:`repro.world.timeline.WorldSchedule.transition_stack`), step
        ``t`` uses ``transition_stack[t - 1]`` instead of this chain's
        matrix: the evolution follows the true time-varying chain while
        consuming the exact same uniforms.
        """
        initial = np.asarray(initial_states, dtype=np.int64)
        u = np.asarray(uniforms, dtype=float)
        if initial.ndim != 1 or u.ndim != 2 or u.shape[0] != initial.size:
            raise ValueError("initial_states must be (R,) and uniforms (R, T - 1)")
        if initial.size and (initial.min() < 0 or initial.max() >= self.n_states):
            raise ValueError("initial states out of range")
        length = u.shape[1] + 1
        out = np.empty((initial.size, length), dtype=np.int64)
        return _walk(self._steps(transition_stack, length), initial, u, out)

    # ------------------------------------------------------------------
    # Likelihood
    # ------------------------------------------------------------------
    def log_likelihood(self, trajectory: Sequence[int] | np.ndarray) -> float:
        """Log-likelihood of a trajectory under this chain (Eq. 1's objective).

        ``log pi(x_1) + sum_t log P(x_t | x_{t-1})``; the initial term uses
        the stationary distribution, matching the paper's ML detector.
        """
        traj = np.asarray(trajectory, dtype=np.int64)
        if traj.ndim != 1 or traj.size == 0:
            raise ValueError("trajectory must be a non-empty 1-D sequence")
        self._check_state(int(traj.min()))
        self._check_state(int(traj.max()))
        value = float(self.log_stationary[traj[0]])
        if traj.size > 1:
            value += float(self.log_transition_entries(traj[:-1], traj[1:]).sum())
        return value

    def log_likelihoods(
        self,
        trajectories: np.ndarray,
        *,
        transition_stack: np.ndarray | None = None,
    ) -> np.ndarray:
        """Log-likelihood of every trajectory in an ``(..., T)`` array.

        The time axis is last; any number of leading batch axes is
        supported (``(N, T)`` for one episode's observations, ``(R, N, T)``
        for a whole Monte-Carlo batch).  Computed by vectorised
        log-probability indexing, one shot for the entire tensor.

        With ``transition_stack`` the step into slot ``t`` is scored under
        ``transition_stack[t - 1]`` instead of this chain's matrix, so
        detectors and trackers evaluate observations against the *true*
        time-varying chain of a dynamic world.  The initial term stays
        ``log pi(x_1)`` under this chain's stationary distribution (the
        eavesdropper's steady-state prior).
        """
        traj = np.asarray(trajectories, dtype=np.int64)
        if traj.ndim < 1 or traj.size == 0:
            raise ValueError("trajectories must be a non-empty array")
        self._check_state(int(traj.min()))
        self._check_state(int(traj.max()))
        scores = self.log_stationary[traj[..., 0]].astype(float)
        if traj.shape[-1] > 1:
            if transition_stack is None:
                step_logs = self.log_transition_entries(
                    traj[..., :-1], traj[..., 1:]
                )
            else:
                stack = self._validate_transition_stack(
                    transition_stack, traj.shape[-1]
                )
                step_logs = safe_log(stack)[
                    np.arange(traj.shape[-1] - 1), traj[..., :-1], traj[..., 1:]
                ]
            scores = scores + step_logs.sum(axis=-1)
        return scores

    def stepwise_log_likelihood(self, trajectory: Sequence[int] | np.ndarray) -> np.ndarray:
        """Per-slot log-likelihood contributions of a trajectory.

        Element 0 is ``log pi(x_1)`` and element ``t`` is
        ``log P(x_{t+1} | x_t)``.
        """
        traj = np.asarray(trajectory, dtype=np.int64)
        if traj.ndim != 1 or traj.size == 0:
            raise ValueError("trajectory must be a non-empty 1-D sequence")
        out = np.empty(traj.size, dtype=float)
        out[0] = self.log_stationary[traj[0]]
        if traj.size > 1:
            out[1:] = self.log_transition_entries(traj[:-1], traj[1:])
        return out

    def likelihood(self, trajectory: Sequence[int] | np.ndarray) -> float:
        """Likelihood (probability) of a trajectory under this chain."""
        return float(np.exp(self.log_likelihood(trajectory)))

    # ------------------------------------------------------------------
    # Information-theoretic quantities
    # ------------------------------------------------------------------
    def entropy_rate(self) -> float:
        """Entropy rate ``H(X_t | X_{t-1})`` in nats under stationarity."""
        P = self.transition_matrix
        # The floored log equals the raw log on the positive entries the
        # mask keeps, and needs no errstate guard on the zeros it drops.
        logs = np.where(P > 0, safe_log(P), 0.0)
        row_entropies = -(P * logs).sum(axis=1)
        return float(self._stationary @ row_entropies)

    def stationary_collision_probability(self) -> float:
        """``sum_x pi(x)^2`` — the probability two independent stationary
        copies coincide, which drives the IM-strategy floor (Eq. 11)."""
        return float(np.sum(self._stationary**2))

    def kl_row_distance_matrix(self) -> np.ndarray:
        """Pairwise KL divergences between rows of the transition matrix.

        The paper uses the average of these distances as a measure of
        temporal skewness (Section VII-A1).
        """
        P = self.transition_matrix
        n = self.n_states
        out = np.zeros((n, n), dtype=float)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                out[i, j] = _kl_divergence(P[i], P[j])
        return out

    def mean_kl_row_distance(self) -> float:
        """Average KL distance between distinct rows (temporal skewness)."""
        n = self.n_states
        if n < 2:
            return 0.0
        distances = self.kl_row_distance_matrix()
        return float(distances.sum() / (n * (n - 1)))

    # ------------------------------------------------------------------
    # Mixing
    # ------------------------------------------------------------------
    def mixing_time(self, epsilon: float = 0.25, *, max_steps: int = 10_000) -> int:
        """Smallest ``t`` with ``max_x ||P^t(x, .) - pi||_TV <= epsilon``.

        Returns ``max_steps`` if the bound is not reached within the cap
        (callers treat that as "slow mixing").
        """
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        P = self.transition_matrix
        pi = self._stationary
        power = np.eye(self.n_states)
        for t in range(1, max_steps + 1):
            power = power @ P
            distance = 0.5 * np.abs(power - pi[None, :]).sum(axis=1).max()
            if distance <= epsilon:
                return t
        return max_steps

    def n_step_matrix(self, steps: int) -> np.ndarray:
        """The ``steps``-step transition matrix ``P^steps``."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        return np.linalg.matrix_power(self.transition_matrix, steps)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _check_state(self, state: int) -> None:
        if not 0 <= state < self.n_states:
            raise ValueError(f"state {state} out of range [0, {self.n_states})")

    def top_two_successors(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-state best and second-best successor cells.

        ``top1[i]`` is ``restricted_argmax_row(i)`` and ``top2[i]`` is
        ``restricted_argmax_row(i, {top1[i]})`` for every state at once —
        the lookup tables the vectorised MO / CML controllers index
        instead of recomputing argmaxes per slot.  Tie-breaking (first
        maximum) matches the scalar helpers exactly.
        """
        P = self.transition_matrix
        top1 = np.argmax(P, axis=1)
        masked = P.copy()
        masked[np.arange(self.n_states), top1] = -np.inf
        top2 = np.argmax(masked, axis=1)
        return top1, top2

    def top_two_stationary(self) -> tuple[int, int]:
        """Best and second-best stationary cells (same tie-breaking as
        :meth:`restricted_argmax_stationary`)."""
        top1 = int(np.argmax(self._stationary))
        weights = self._stationary.copy()
        weights[top1] = -np.inf
        top2 = int(np.argmax(weights))
        return top1, top2

    def restricted_argmax_row(self, state: int, excluded: Iterable[int] = ()) -> int:
        """Most likely next state from ``state`` excluding ``excluded`` cells.

        Used by the CML / MO strategies which repeatedly need the best and
        second-best successor cells.
        """
        self._check_state(state)
        row = self.transition_matrix[state].copy()
        for cell in excluded:
            self._check_state(int(cell))
            row[int(cell)] = -np.inf
        best = int(np.argmax(row))
        if row[best] == -np.inf:
            raise ValueError("all successor states are excluded")
        return best

    def restricted_argmax_stationary(self, excluded: Iterable[int] = ()) -> int:
        """Most likely stationary cell excluding ``excluded`` cells."""
        weights = self._stationary.copy()
        for cell in excluded:
            self._check_state(int(cell))
            weights[int(cell)] = -np.inf
        best = int(np.argmax(weights))
        if weights[best] == -np.inf:
            raise ValueError("all states are excluded")
        return best


def _kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL divergence D(p || q) in nats with 0 log 0 = 0 convention.

    Entries where ``p > 0`` but ``q == 0`` contribute a large finite
    penalty (log of the floor) rather than infinity so that averages over
    many rows stay finite, mirroring common practice when estimating KL
    from empirical matrices.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0
    # p[mask] is strictly positive, so the floored log is the raw log.
    return float(np.sum(p[mask] * (safe_log(p[mask]) - safe_log(q[mask]))))
