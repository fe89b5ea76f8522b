"""Optimal offline (OO) chaff strategy — Algorithm 1 of the paper.

Given the user's *entire* trajectory, the OO strategy computes a chaff
trajectory that

* has likelihood at least as high as the user's (so the ML detector picks
  the chaff instead of the user), and
* among such trajectories, coincides with the user's trajectory in as few
  slots as possible (minimising the eavesdropper's tracking accuracy).

The paper solves this by dynamic programming over the trellis of Fig. 2
with an extra "remaining intersections" dimension ``i``.  We compute the
DP layer by layer in ``i`` (``i = 0, 1, 2, ...``) and stop at the first
layer whose optimal cost beats the user's path cost, which is equivalent
to the paper's ``O(T^2 L^2)`` formulation but typically far cheaper since
the optimal number of intersections ``i*`` is small.

:func:`solve_optimal_offline` takes one user trajectory or a ``(B, T)``
stack of them and runs the DP for the whole stack at once: each
(layer, slot) step is one ``(B, L, L)`` argmin, the lower-layer
candidate is gathered on the user's cell only, and a member leaves the
stack at the first layer that beats its user.  Members are independent,
so a large stack is solved in chunks that bound the DP's working memory;
a member with no qualifying trajectory is flagged in the returned
:class:`OptimalOfflineBatch` rather than raised.  An optional ``allowed``
mask of per-slot permitted cells (``(T, L)``, or ``(B, T, L)`` for a
stack) is how the robust ROO variant injects its random exclusion sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ...mobility.markov import MarkovChain
from ..trellis import (
    InfeasibleTrellisError,
    most_likely_trajectories,
    most_likely_trajectory,
    trajectory_cost,
    validate_allowed_mask,
)
from .base import ChaffStrategy, register_strategy

__all__ = [
    "OptimalOfflineBatch",
    "OptimalOfflineResult",
    "OptimalOfflineStrategy",
    "solve_optimal_offline",
]

_INF = np.inf
#: Float elements one DP chunk may hold across its ``(B, L, L)`` candidate
#: and ``(T, B, L)`` tables (32 MB); larger stacks are solved in chunks.
_DP_ELEMENTS = 1 << 22
_NO_QUALIFYING_CHAFF = (
    "optimal offline DP found no trajectory at least as likely as the user's"
)


@dataclass(frozen=True)
class OptimalOfflineResult:
    """Outcome of the OO dynamic program.

    Attributes
    ----------
    trajectory:
        The chaff trajectory of length ``T``.
    intersections:
        Optimal value ``i*`` — number of slots where chaff and user coincide.
    chaff_cost:
        Trellis cost (negative log-likelihood) of the chaff trajectory.
    user_cost:
        Trellis cost of the user's trajectory.
    strict:
        ``True`` if the chaff's likelihood strictly exceeds the user's;
        ``False`` if only a tie was achievable (the detector then guesses).
    """

    trajectory: np.ndarray
    intersections: int
    chaff_cost: float
    user_cost: float
    strict: bool


@dataclass(frozen=True)
class OptimalOfflineBatch:
    """Outcome of the OO dynamic program for a ``(B, T)`` stack of users.

    Member ``b`` of each array holds what :class:`OptimalOfflineResult`
    holds for user ``b``.  ``infeasible[b]`` flags a member with no
    trajectory at least as likely as its user's under its mask; its
    trajectory row is ``-1`` and its ``chaff_cost`` is ``nan``.
    """

    trajectories: np.ndarray
    intersections: np.ndarray
    chaff_cost: np.ndarray
    user_cost: np.ndarray
    strict: np.ndarray
    infeasible: np.ndarray


def solve_optimal_offline(
    chain: MarkovChain,
    user_trajectory: np.ndarray,
    *,
    allowed: np.ndarray | None = None,
    tolerance: float = 1e-9,
) -> OptimalOfflineResult | OptimalOfflineBatch:
    """Run Algorithm 1 and return the optimal chaff trajectory.

    Parameters
    ----------
    chain:
        User mobility model.
    user_trajectory:
        The user's realised trajectory (length ``T``), or a ``(B, T)``
        stack of them.
    allowed:
        Optional boolean mask of shape ``(T, L)`` (``(B, T, L)`` for a
        stack); the chaff may only visit cells marked ``True`` (used by
        the ROO strategy).
    tolerance:
        Numerical slack when comparing path costs.

    Returns
    -------
    OptimalOfflineResult or OptimalOfflineBatch
        One result for a 1-D user, raising
        :class:`~repro.core.trellis.InfeasibleTrellisError` when no
        trajectory qualifies; a batch for a stack, with such members
        flagged in ``infeasible`` instead.
    """
    users = np.asarray(user_trajectory, dtype=np.int64)
    if users.ndim not in (1, 2) or users.size == 0:
        raise ValueError(
            "user trajectory must be a non-empty 1-D sequence or (B, T) stack"
        )
    n_cells = chain.n_states
    if users.ndim == 2:
        masks = None
        if allowed is not None:
            masks = np.asarray(allowed, dtype=bool)
            if masks.shape != (*users.shape, n_cells):
                raise ValueError(
                    f"allowed mask must have shape {(*users.shape, n_cells)}, "
                    f"got {masks.shape}"
                )
        return _solve_stack(chain, users, masks, tolerance)
    if allowed is not None:
        allowed = validate_allowed_mask(allowed, users.size, n_cells)[None]
    batch = _solve_stack(chain, users[None], allowed, tolerance)
    if batch.infeasible[0]:
        raise InfeasibleTrellisError(_NO_QUALIFYING_CHAFF)
    return OptimalOfflineResult(
        trajectory=batch.trajectories[0],
        intersections=int(batch.intersections[0]),
        chaff_cost=float(batch.chaff_cost[0]),
        user_cost=float(batch.user_cost[0]),
        strict=bool(batch.strict[0]),
    )


def _solve_stack(
    chain: MarkovChain,
    users: np.ndarray,
    masks: np.ndarray | None,
    tolerance: float,
) -> OptimalOfflineBatch:
    """Algorithm 1 for a ``(B, T)`` stack of users and optional masks."""
    n_batch, horizon = users.shape
    n_cells = chain.n_states
    user_cost = -chain.log_likelihoods(users)
    # Decide per member whether a strictly better path exists at all
    # (unconstrained in intersections); this fixes the comparison used
    # for i*.  Without masks every member shares one Viterbi solve.
    if masks is None:
        best_cost = trajectory_cost(chain, most_likely_trajectory(chain, horizon))
        reachable = np.ones(n_batch, dtype=bool)
    else:
        best, unreachable = most_likely_trajectories(chain, horizon, masks)
        best_cost = -chain.log_likelihoods(best)
        reachable = ~unreachable
    strict = best_cost < user_cost - tolerance
    # Cost to beat: at most ``bound``, strictly below it when ``strict``.
    bound = np.where(strict, user_cost - tolerance, user_cost + tolerance)

    neg_log_pi = -chain.log_stationary
    neg_log_P = -chain.log_transition_matrix
    trajectories = np.full((n_batch, horizon), -1, dtype=np.int64)
    # Members are independent; chunks bound the DP's (B, L, L) candidate
    # and (T, B, L) per-layer tables.
    chunk = max(1, _DP_ELEMENTS // (n_cells * (n_cells + 3 * horizon)))
    for start in range(0, n_batch, chunk):
        part = slice(start, start + chunk)
        trajectories[part] = _layered_dp(
            neg_log_pi,
            neg_log_P,
            users[part],
            None if masks is None else masks[part],
            reachable[part],
            bound[part],
            strict[part],
        )
    infeasible = trajectories[:, 0] < 0
    chaff_cost = np.full(n_batch, np.nan)
    if not infeasible.all():
        chaff_cost[~infeasible] = -chain.log_likelihoods(trajectories[~infeasible])
    return OptimalOfflineBatch(
        trajectories=trajectories,
        intersections=np.sum(trajectories == users, axis=1),
        chaff_cost=chaff_cost,
        user_cost=user_cost,
        strict=strict,
        infeasible=infeasible,
    )


def _layered_dp(
    neg_log_pi: np.ndarray,
    neg_log_P: np.ndarray,
    users: np.ndarray,
    masks: np.ndarray | None,
    reachable: np.ndarray,
    bound: np.ndarray,
    strict: np.ndarray,
) -> np.ndarray:
    """The layered DP over intersection budgets for one chunk of members.

    Returns the ``(B, T)`` chaff trajectories, ``-1`` rows for members no
    layer qualifies (and for unreachable ones, which never enter).
    """
    n_batch, horizon = users.shape
    n_cells = neg_log_P.shape[0]
    # Time-major copies, so every per-slot slice below is contiguous.
    slot_users = np.ascontiguousarray(users.T)
    forbidden = (
        None if masks is None else np.ascontiguousarray(~masks.transpose(1, 0, 2))
    )

    chosen_layer = np.full(n_batch, -1, dtype=np.int64)
    start_cell = np.zeros(n_batch, dtype=np.int64)
    # hops_by_layer[i] holds n^i_t, shaped (T, active, L), for the members
    # still active at layer i; row_of[i, b] is member b's row in those
    # arrays concatenated along the member axis.  A tie with the user can
    # take up to T layers, so hops are kept in the narrowest cell dtype.
    hop_dtype = np.min_scalar_type(n_cells - 1)
    hops_by_layer: list[np.ndarray] = []
    row_of = np.full((horizon + 1, n_batch), -1, dtype=np.int64)
    n_rows = 0
    active = np.flatnonzero(reachable)
    previous_costs: np.ndarray | None = None  # K^{i-1}_t of the active members
    for layer in range(horizon + 1):
        if active.size == 0:
            break
        members = np.arange(active.size)
        layer_users = slot_users[:, active]
        layer_forbidden = None if forbidden is None else forbidden[:, active]
        costs = np.zeros((horizon, active.size, n_cells))
        hops = np.empty(costs.shape, dtype=hop_dtype)
        hop = np.empty((active.size, n_cells), dtype=np.intp)
        candidate = np.empty((active.size, n_cells, n_cells))
        # Flat offset of candidate[b, x, 0]: gathering at the argmin is
        # much cheaper than a second reduction over the short last axis.
        row_starts = np.arange(0, candidate.size, n_cells).reshape(-1, n_cells)
        if layer_forbidden is not None:
            costs[-1][layer_forbidden[-1]] = _INF
        if layer == 0:
            costs[-1, members, layer_users[-1]] = _INF
        for t in range(horizon - 2, -1, -1):
            cost = costs[t]
            np.add(neg_log_P, costs[t + 1, :, None, :], out=candidate)
            candidate.argmin(axis=2, out=hop)
            candidate.take(row_starts + hop, out=cost)
            # On the user's cell the chaff spends one intersection, so its
            # cost-to-go reads the lower layer; layer 0 has none, and a
            # path of finite cost never reads the hop stored there.
            cells = layer_users[t]
            if previous_costs is None:
                cost[members, cells] = _INF
            else:
                lower = neg_log_P[cells] + previous_costs[t + 1]
                lower_hop = lower.argmin(axis=1)
                cost[members, cells] = lower[members, lower_hop]
                hop[members, cells] = lower_hop
            if layer_forbidden is not None:
                cost[layer_forbidden[t]] = _INF
            hops[t] = hop
        start_costs = neg_log_pi + costs[0]
        starts = start_costs.argmin(axis=1)
        totals = start_costs[members, starts]
        beats = np.where(
            strict[active], totals < bound[active], totals <= bound[active]
        )

        hops_by_layer.append(hops)
        row_of[layer, active] = n_rows + members
        n_rows += active.size
        chosen_layer[active[beats]] = layer
        start_cell[active[beats]] = starts[beats]
        active = active[~beats]
        previous_costs = costs[:, ~beats]

    # Backtrack every solved member at once: consume one unit of
    # intersection budget whenever the chaff sits on the user's cell.
    trajectories = np.full((n_batch, horizon), -1, dtype=np.int64)
    solved = np.flatnonzero(chosen_layer >= 0)
    if solved.size == 0:
        return trajectories
    all_hops = np.concatenate(hops_by_layer, axis=1)
    solved_users = slot_users[:, solved]
    budget = chosen_layer[solved]
    rows = row_of[budget, solved]
    path = np.empty((horizon, solved.size), dtype=np.int64)
    path[0] = start_cell[solved]
    for t in range(horizon - 1):
        # The stored next hop for budget ``b`` already accounts for an
        # intersection at slot ``t`` (it reads the lower layer when the
        # chaff sits on the user's cell), so look up first, then decrement.
        path[t + 1] = all_hops[t, rows, path[t]]
        intersect = path[t] == solved_users[t]
        if intersect.any():
            budget = budget - intersect
            rows = row_of[budget, solved]
    trajectories[solved] = path.T
    return trajectories


@register_strategy
class OptimalOfflineStrategy(ChaffStrategy):
    """Optimal offline strategy: one optimal chaff (extra budget replicates it)."""

    name = "OO"
    is_online = False
    is_deterministic = True

    def generate(
        self,
        chain: MarkovChain,
        user_trajectory: np.ndarray,
        n_chaffs: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        user = self._validate_inputs(chain, user_trajectory, n_chaffs)
        # A deterministic detector is already defeated by the single optimal
        # chaff (Section IV-C); extra budget is spent on replicas, matching
        # the paper's observation that deterministic strategies cannot
        # benefit from more chaffs.
        chaff = solve_optimal_offline(chain, user).trajectory
        return np.tile(chaff, (n_chaffs, 1))

    def generate_batch(
        self,
        chain: MarkovChain,
        user_trajectories: np.ndarray,
        n_chaffs: int,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Vectorised batch: one Algorithm 1 solve over all ``R`` users.

        The strategy consumes no randomness; extra budget replicates the
        single chaff as in the scalar path.
        """
        users, rngs = self._validate_batch_inputs(
            chain, user_trajectories, n_chaffs, rngs
        )
        solved = solve_optimal_offline(chain, users)
        if solved.infeasible.any():
            raise InfeasibleTrellisError(_NO_QUALIFYING_CHAFF)
        return np.repeat(solved.trajectories[:, None, :], n_chaffs, axis=1)
