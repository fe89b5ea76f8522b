"""Test-only oracle: Algorithm 1 solved one trajectory at a time.

:func:`~repro.core.strategies.optimal_offline.solve_optimal_offline` runs
the layered dynamic program over a whole ``(B, T)`` stack of user
trajectories at once.  This module keeps the original per-trajectory
loop over (layer, slot), with its full ``(L, L)`` lower-layer candidate
matrix and one unconstrained Viterbi solve per call, as the reference the
batched kernel must reproduce in trajectory, intersections, both costs
and ``strict``, and in which inputs raise
:class:`~repro.core.trellis.InfeasibleTrellisError`.
"""

from __future__ import annotations

import numpy as np

from repro.core.strategies.optimal_offline import OptimalOfflineResult
from repro.core.trellis import (
    InfeasibleTrellisError,
    most_likely_trajectory,
    trajectory_cost,
    validate_allowed_mask,
)
from repro.mobility.markov import MarkovChain

__all__ = ["solve_optimal_offline_loop"]

_INF = np.inf


def _terminal_layer(
    n_cells: int, allowed_last: np.ndarray, user_last: int, layer: int
) -> np.ndarray:
    """Cost-to-go at the final slot for intersection budget ``layer``."""
    costs = np.where(allowed_last, 0.0, _INF)
    if layer == 0:
        costs = costs.copy()
        costs[user_last] = _INF
    return costs


def solve_optimal_offline_loop(
    chain: MarkovChain,
    user_trajectory: np.ndarray,
    *,
    allowed: np.ndarray | None = None,
    tolerance: float = 1e-9,
) -> OptimalOfflineResult:
    """Run Algorithm 1 and return the optimal chaff trajectory.

    Parameters
    ----------
    chain:
        User mobility model.
    user_trajectory:
        The user's realised trajectory (length ``T``).
    allowed:
        Optional boolean mask of shape ``(T, L)``; the chaff may only visit
        cells marked ``True`` (used by the ROO strategy).
    tolerance:
        Numerical slack when comparing path costs.
    """
    user = np.asarray(user_trajectory, dtype=np.int64)
    if user.ndim != 1 or user.size == 0:
        raise ValueError("user trajectory must be a non-empty 1-D sequence")
    horizon = user.size
    n_cells = chain.n_states
    mask = validate_allowed_mask(allowed, horizon, n_cells)

    neg_log_pi = -chain.log_stationary
    neg_log_P = -chain.log_transition_matrix
    user_cost = trajectory_cost(chain, user)

    # Decide whether a strictly better path exists at all (unconstrained in
    # intersections); this fixes the comparison used for i*.
    best_unconstrained = most_likely_trajectory(chain, horizon, allowed=mask)
    best_cost = trajectory_cost(chain, best_unconstrained)
    strict = best_cost < user_cost - tolerance

    def beats_user(cost: float) -> bool:
        if strict:
            return cost < user_cost - tolerance
        return cost <= user_cost + tolerance

    previous_costs: list[np.ndarray] | None = None  # K^{i-1}_t for all t
    next_hops_by_layer: list[np.ndarray] = []  # n^i_t arrays, indexed by i
    start_by_layer: list[int] = []
    total_by_layer: list[float] = []

    max_layers = horizon + 1
    chosen_layer: int | None = None
    for layer in range(max_layers):
        costs = [np.empty(0)] * horizon  # K^layer_t, each (L,)
        hops = np.full((horizon, n_cells), -1, dtype=np.int64)
        costs[horizon - 1] = _terminal_layer(
            n_cells, mask[horizon - 1], int(user[horizon - 1]), layer
        )
        for t in range(horizon - 2, -1, -1):
            next_same = costs[t + 1]
            candidate_same = neg_log_P + next_same[None, :]
            best_next_same = np.argmin(candidate_same, axis=1)
            best_cost_same = candidate_same[np.arange(n_cells), best_next_same]
            if layer >= 1 and previous_costs is not None:
                next_lower = previous_costs[t + 1]
                candidate_lower = neg_log_P + next_lower[None, :]
                best_next_lower = np.argmin(candidate_lower, axis=1)
                best_cost_lower = candidate_lower[np.arange(n_cells), best_next_lower]
            else:
                best_next_lower = np.zeros(n_cells, dtype=np.int64)
                best_cost_lower = np.full(n_cells, _INF)
            layer_cost = best_cost_same.copy()
            layer_hop = best_next_same.copy()
            user_cell = int(user[t])
            layer_cost[user_cell] = best_cost_lower[user_cell]
            layer_hop[user_cell] = best_next_lower[user_cell]
            layer_cost[~mask[t]] = _INF
            costs[t] = layer_cost
            hops[t] = layer_hop
        start_costs = neg_log_pi + costs[0]
        start_cell = int(np.argmin(start_costs))
        total_cost = float(start_costs[start_cell])

        next_hops_by_layer.append(hops)
        start_by_layer.append(start_cell)
        total_by_layer.append(total_cost)
        previous_costs = costs

        if np.isfinite(total_cost) and beats_user(total_cost):
            chosen_layer = layer
            break

    if chosen_layer is None:
        raise InfeasibleTrellisError(
            "optimal offline DP found no trajectory at least as likely as the user's"
        )

    # Backtrack: consume one unit of intersection budget whenever the chaff
    # sits on the user's cell.
    trajectory = np.empty(horizon, dtype=np.int64)
    budget = chosen_layer
    trajectory[0] = start_by_layer[chosen_layer]
    for t in range(horizon - 1):
        current = int(trajectory[t])
        # The stored next hop for budget ``b`` already accounts for an
        # intersection at slot ``t`` (it reads the lower layer when the chaff
        # sits on the user's cell), so look up first, then decrement.
        trajectory[t + 1] = next_hops_by_layer[budget][t, current]
        if current == int(user[t]):
            budget -= 1
        if budget < 0:  # pragma: no cover - guarded by DP construction
            raise RuntimeError("intersection budget went negative during backtracking")

    intersections = int(np.sum(trajectory == user))
    chaff_cost = trajectory_cost(chain, trajectory)
    return OptimalOfflineResult(
        trajectory=trajectory,
        intersections=intersections,
        chaff_cost=chaff_cost,
        user_cost=user_cost,
        strict=strict,
    )
