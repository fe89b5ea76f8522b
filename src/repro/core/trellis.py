"""Time-expanded trellis graph of Fig. 2 and most-likely-trajectory solvers.

The ML chaff strategy (Section IV-B) and its robust variant reduce to a
shortest-path problem on a trellis whose layer ``t`` holds one vertex per
cell, with edge costs ``-log pi(x)`` from the virtual source into layer 1
and ``-log P(x' | x)`` between consecutive layers.  The minimum-cost path
is the most likely trajectory of length ``T``.

Two solvers are provided:

* :func:`most_likely_trajectory` — a Viterbi-style dynamic program,
  ``O(T L^2)``, used by the library;
* :func:`most_likely_trajectory_dijkstra` — an explicit shortest path on
  the networkx trellis graph, used to cross-validate the DP in tests and
  to stay faithful to the paper's description (Dijkstra on Fig. 2).

Both support an ``allowed`` mask of shape ``(T, L)`` marking which cells a
trajectory may visit at each slot, which is how the robust (RML/ROO)
strategies carve out their exclusion sets.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx
import numpy as np

from ..mobility.markov import MarkovChain
from ..numerics import LOG_FLOOR, safe_log

__all__ = [
    "InfeasibleTrellisError",
    "trajectory_cost",
    "validate_allowed_mask",
    "most_likely_trajectory",
    "most_likely_trajectories",
    "most_likely_trajectory_dijkstra",
    "build_trellis_graph",
]

#: Cost used for structurally forbidden moves; large but finite so that
#: numpy reductions stay well-defined.
_INF = np.inf

#: What the dense DP charges for traversing a zero-probability edge: the
#: floored log of zero.  The sparse kernel adds this as an explicit
#: fallback candidate so pruned/missing edges cost exactly what the dense
#: log matrix charges them.
_FLOOR_COST = float(-np.log(LOG_FLOOR))


class InfeasibleTrellisError(RuntimeError):
    """Raised when no feasible trajectory exists under the given mask."""


def trajectory_cost(chain: MarkovChain, trajectory: Sequence[int] | np.ndarray) -> float:
    """Cost of a trajectory on the trellis (= negative log-likelihood)."""
    return -chain.log_likelihood(trajectory)


def validate_allowed_mask(
    allowed: np.ndarray | None, horizon: int, n_cells: int
) -> np.ndarray:
    """Normalise/validate an ``allowed`` mask; default is all-cells-allowed."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if allowed is None:
        return np.ones((horizon, n_cells), dtype=bool)
    mask = np.asarray(allowed, dtype=bool)
    if mask.shape != (horizon, n_cells):
        raise ValueError(
            f"allowed mask must have shape ({horizon}, {n_cells}), got {mask.shape}"
        )
    if not mask.any(axis=1).all():
        bad = int(np.argmin(mask.any(axis=1)))
        raise InfeasibleTrellisError(f"no allowed cell at slot {bad}")
    return mask


def _predecessor_structure(
    chain: MarkovChain, top_k: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Successor-major (CSC) edge structure ``(indptr, prev_rows, neg_log_w)``.

    Column ``j``'s slice holds the predecessor states with a nonzero
    transition into ``j`` (ascending, so position order matches the dense
    argmin's first-index tie-break) and the corresponding ``-log P`` edge
    costs.  With ``top_k``, each state keeps only its ``top_k``
    highest-probability successors (ties broken toward smaller columns);
    pruned edges fall back to the floor cost like structural zeros.

    Memoised per ``(chain, top_k)`` on the chain instance.
    """
    cache = chain._trellis_predecessors
    if cache is not None and top_k in cache:
        return cache[top_k]
    n = chain.n_states
    rows, cols, probs = chain.transition_edges()
    if top_k is not None:
        if top_k < 1:
            raise ValueError("top_k must be at least 1")
        order = np.lexsort((cols, -probs, rows))
        counts = np.bincount(rows, minlength=n)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        rank_in_row = np.arange(rows.size) - np.repeat(starts, counts)
        keep = order[rank_in_row < top_k]
        rows, cols, probs = rows[keep], cols[keep], probs[keep]
    order = np.lexsort((rows, cols))
    prev_rows = rows[order].astype(np.int64)
    neg_log_w = -safe_log(probs[order])
    col_counts = np.bincount(cols[order], minlength=n)
    indptr = np.concatenate([[0], np.cumsum(col_counts)]).astype(np.int64)
    structure = (indptr, prev_rows, neg_log_w)
    if cache is None:
        cache = {}
        chain._trellis_predecessors = cache
    cache[top_k] = structure
    return structure


def _sparse_viterbi(
    chain: MarkovChain,
    horizon: int,
    masks: np.ndarray,
    top_k: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched Viterbi over nonzero-predecessor edges only.

    Produces exactly the dense DP's trajectories (values *and* first-argmin
    tie-breaks): per successor the best nonzero-edge candidate competes
    with a floor-fallback candidate ``min(cost) + _FLOOR_COST`` — what the
    dense kernel charges the cheapest predecessor for a zero edge.  Since
    every stored edge costs at most ``_FLOOR_COST``, the fallback wins
    strictly only when the dense argmin would land on a zero edge, and
    exact ties resolve to the smaller predecessor index, as dense argmin
    does.  Work per step is O(R * nnz) instead of O(R * L^2).
    """
    indptr, prev_rows, neg_w = _predecessor_structure(chain, top_k)
    n_batch = masks.shape[0]
    n = chain.n_states
    nnz = prev_rows.size
    col_counts = np.diff(indptr)
    empty = col_counts == 0
    starts = indptr[:-1]
    positions = np.arange(nnz)
    prev_ext = np.append(prev_rows, n)
    batch_idx = np.arange(n_batch)
    pad_inf = np.full((n_batch, 1), _INF)
    pad_pos = np.full((n_batch, 1), nnz, dtype=np.int64)

    neg_log_pi = -chain.log_stationary
    cost = np.where(masks[:, 0], neg_log_pi[None, :], _INF)
    backpointers = np.zeros((n_batch, horizon, n), dtype=np.int64)
    for t in range(1, horizon):
        candidate = cost[:, prev_rows] + neg_w[None, :]
        nz_best = np.minimum.reduceat(
            np.concatenate([candidate, pad_inf], axis=1), starts, axis=1
        )
        nz_best[:, empty] = _INF
        matches = candidate == np.repeat(nz_best, col_counts, axis=1)
        masked_pos = np.where(matches, positions[None, :], nnz)
        first_pos = np.minimum.reduceat(
            np.concatenate([masked_pos, pad_pos], axis=1), starts, axis=1
        )
        first_pos[:, empty] = nnz
        nz_prev = prev_ext[first_pos]
        floor_prev = np.argmin(cost, axis=1)[:, None]
        floor_best = cost[batch_idx, floor_prev[:, 0]][:, None] + _FLOOR_COST
        use_floor = floor_best < nz_best
        best = np.where(use_floor, floor_best, nz_best)
        prev = np.where(use_floor, floor_prev, nz_prev)
        prev = np.where(
            floor_best == nz_best, np.minimum(nz_prev, floor_prev), prev
        )
        backpointers[:, t] = prev
        cost = np.where(masks[:, t], best, _INF)
    final = np.argmin(cost, axis=1)
    infeasible = ~np.isfinite(cost[batch_idx, final])
    trajectories = np.empty((n_batch, horizon), dtype=np.int64)
    trajectories[:, -1] = final
    for t in range(horizon - 1, 0, -1):
        trajectories[:, t - 1] = backpointers[batch_idx, t, trajectories[:, t]]
    return trajectories, infeasible


def most_likely_trajectory(
    chain: MarkovChain,
    horizon: int,
    *,
    allowed: np.ndarray | None = None,
    top_k: int | None = None,
) -> np.ndarray:
    """Most likely trajectory of length ``horizon`` (Viterbi DP).

    Solves Eq. (2)/(3) of the paper: the trajectory maximising
    ``pi(x_1) * prod_t P(x_t | x_{t-1})`` subject to the optional
    per-slot ``allowed`` mask.

    Sparse chains (and any chain when ``top_k`` successor pruning is
    requested) run the edge-iterating kernel, which matches the dense DP's
    paths exactly; dense chains keep the reference ``O(T L^2)`` DP.

    Returns an integer array of length ``horizon``.
    """
    mask = validate_allowed_mask(allowed, horizon, chain.n_states)
    if getattr(chain, "is_sparse", False) or top_k is not None:
        trajectories, infeasible = _sparse_viterbi(
            chain, horizon, mask[None], top_k
        )
        if infeasible[0]:
            raise InfeasibleTrellisError("no feasible trajectory under the mask")
        return trajectories[0]
    neg_log_pi = -chain.log_stationary
    # Successor-major, so each step's argmin runs over a contiguous row.
    neg_log_P_T = np.ascontiguousarray(-chain.log_transition_matrix.T)
    n_cells = chain.n_states
    row_starts = np.arange(0, n_cells * n_cells, n_cells)

    cost = np.where(mask[0], neg_log_pi, _INF)
    backpointers = np.zeros((horizon, n_cells), dtype=np.int64)
    for t in range(1, horizon):
        # candidate[x_next, x_prev] = neg_log_P[x_prev, x_next] + cost[x_prev]
        candidate = neg_log_P_T + cost
        best_prev = candidate.argmin(axis=1)
        best_cost = candidate.take(row_starts + best_prev)
        best_cost[~mask[t]] = _INF
        backpointers[t] = best_prev
        cost = best_cost
    final = int(np.argmin(cost))
    if not np.isfinite(cost[final]):
        raise InfeasibleTrellisError("no feasible trajectory under the mask")
    trajectory = np.empty(horizon, dtype=np.int64)
    trajectory[-1] = final
    for t in range(horizon - 1, 0, -1):
        trajectory[t - 1] = backpointers[t, trajectory[t]]
    return trajectory


def most_likely_trajectories(
    chain: MarkovChain,
    horizon: int,
    allowed_batch: np.ndarray,
    *,
    top_k: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched Viterbi: one masked most-likely trajectory per batch row.

    ``allowed_batch`` has shape ``(R, horizon, L)``; the DP of
    :func:`most_likely_trajectory` runs for all ``R`` masks simultaneously,
    with identical tie-breaking (first argmin).  Returns ``(trajectories,
    infeasible)`` where ``trajectories`` is ``(R, horizon)`` int64 and
    ``infeasible`` a boolean vector marking rows with no feasible path
    (those rows' trajectories are meaningless); batched callers handle
    infeasible rows instead of raising, so one bad mask cannot abort a
    whole Monte-Carlo batch.

    Sparse chains (and ``top_k`` pruning) use the edge-iterating kernel
    instead of materialising ``(R, L, L)`` candidate tensors.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    masks = np.asarray(allowed_batch, dtype=bool)
    n_cells = chain.n_states
    if masks.ndim != 3 or masks.shape[1:] != (horizon, n_cells):
        raise ValueError(
            f"allowed_batch must have shape (R, {horizon}, {n_cells}), "
            f"got {masks.shape}"
        )
    n_batch = masks.shape[0]
    if n_batch == 0:
        raise ValueError("allowed_batch must contain at least one mask")
    if getattr(chain, "is_sparse", False) or top_k is not None:
        return _sparse_viterbi(chain, horizon, masks, top_k)
    neg_log_pi = -chain.log_stationary
    # Successor-major, so each step's argmin runs over a contiguous row.
    neg_log_P_T = np.ascontiguousarray(-chain.log_transition_matrix.T)
    row_starts = np.arange(0, n_batch * n_cells * n_cells, n_cells).reshape(
        n_batch, n_cells
    )

    cost = np.where(masks[:, 0], neg_log_pi[None, :], _INF)
    backpointers = np.zeros((n_batch, horizon, n_cells), dtype=np.int64)
    for t in range(1, horizon):
        # candidate[r, x_next, x_prev] = neg_log_P[x_prev, x_next] + cost[r, x_prev]
        candidate = neg_log_P_T + cost[:, None, :]
        best_prev = candidate.argmin(axis=2)
        best_cost = candidate.take(row_starts + best_prev)
        best_cost[~masks[:, t]] = _INF
        backpointers[:, t] = best_prev
        cost = best_cost
    final = np.argmin(cost, axis=1)
    infeasible = ~np.isfinite(cost[np.arange(n_batch), final])
    trajectories = np.empty((n_batch, horizon), dtype=np.int64)
    trajectories[:, -1] = final
    rows = np.arange(n_batch)
    for t in range(horizon - 1, 0, -1):
        trajectories[:, t - 1] = backpointers[rows, t, trajectories[:, t]]
    return trajectories, infeasible


def build_trellis_graph(
    chain: MarkovChain,
    horizon: int,
    *,
    allowed: np.ndarray | None = None,
) -> tuple[nx.DiGraph, str, str]:
    """Build the explicit Fig. 2 trellis as a networkx digraph.

    Vertices are ``(t, cell)`` for ``t in 1..horizon`` plus the virtual
    source ``"source"`` and sink ``"sink"``.  Edge weights follow the
    paper: ``-log pi`` out of the source, ``-log P`` between layers, and
    zero into the sink.  Forbidden (slot, cell) pairs are simply omitted.
    """
    mask = validate_allowed_mask(allowed, horizon, chain.n_states)
    graph = nx.DiGraph()
    source, sink = "source", "sink"
    graph.add_node(source)
    graph.add_node(sink)
    neg_log_pi = -chain.log_stationary
    neg_log_P = -chain.log_transition_matrix
    for cell in range(chain.n_states):
        if mask[0, cell]:
            graph.add_edge(source, (1, cell), weight=float(neg_log_pi[cell]))
    for t in range(2, horizon + 1):
        for prev in range(chain.n_states):
            if not mask[t - 2, prev]:
                continue
            for cell in range(chain.n_states):
                if not mask[t - 1, cell]:
                    continue
                weight = float(neg_log_P[prev, cell])
                if np.isfinite(weight):
                    graph.add_edge((t - 1, prev), (t, cell), weight=weight)
    for cell in range(chain.n_states):
        if mask[horizon - 1, cell]:
            graph.add_edge((horizon, cell), sink, weight=0.0)
    return graph, source, sink


def most_likely_trajectory_dijkstra(
    chain: MarkovChain,
    horizon: int,
    *,
    allowed: np.ndarray | None = None,
) -> np.ndarray:
    """Most likely trajectory via Dijkstra on the explicit trellis graph.

    Functionally identical to :func:`most_likely_trajectory`; kept as the
    literal implementation of the paper's algorithm and as a test oracle.
    """
    graph, source, sink = build_trellis_graph(chain, horizon, allowed=allowed)
    try:
        path = nx.dijkstra_path(graph, source, sink, weight="weight")
    except nx.NetworkXNoPath as exc:
        raise InfeasibleTrellisError("no feasible trajectory under the mask") from exc
    cells = [node[1] for node in path if isinstance(node, tuple)]
    return np.asarray(cells, dtype=np.int64)
