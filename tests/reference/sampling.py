"""Test-only oracle: trajectory sampling one generator and one count at a time.

The library draws every trajectory's randomness with one
``rng.random(out=...)`` call per generator and evolves a whole stack of
trajectories through one step kernel that counts, or bisects, the
cumulative transition rows
(:meth:`~repro.mobility.markov.MarkovChain.sample_trajectories_batch`,
:meth:`~repro.mobility.markov.MarkovChain.evolve_from_uniforms`).  The
obvious versions it is checked against live here:

* :func:`sample_trajectory_randomness` draws one trajectory's randomness
  in the canonical order — one scalar uniform for the initial state,
  then a block of ``length - 1`` uniforms;
* :func:`evolve_linear` evolves trajectories by counting, at every step,
  how many entries of the current state's full cumulative row are
  ``<= u`` and clamping the count to ``L - 1`` — on the dense matrix,
  whichever backend the chain uses, or on a ``(T - 1, L, L)`` stack;
* :func:`sample_trajectories_reference` stacks the two, one generator
  and one row at a time.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.mobility.markov import MarkovChain

__all__ = [
    "evolve_linear",
    "initial_state",
    "sample_trajectories_reference",
    "sample_trajectory_randomness",
]


def initial_state(chain: MarkovChain, uniform: float) -> int:
    """The initial state of one uniform: ``rng.choice(n, p=...)``'s comparisons."""
    cumulative = np.cumsum(chain.initial_distribution)
    cumulative /= cumulative[-1]
    count = int(np.searchsorted(cumulative, uniform, side="right"))
    return min(count, chain.n_states - 1)


def sample_trajectory_randomness(
    chain: MarkovChain, length: int, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """One trajectory's ``(initial state, (length - 1,) uniforms)``."""
    if length <= 0:
        raise ValueError("trajectory length must be positive")
    first = initial_state(chain, rng.random())
    uniforms = rng.random(length - 1) if length > 1 else np.empty(0, dtype=float)
    return first, uniforms


def evolve_linear(
    chain: MarkovChain,
    initial_states: np.ndarray,
    uniforms: np.ndarray,
    *,
    transition_stack: np.ndarray | None = None,
) -> np.ndarray:
    """``(R, T)`` trajectories from ``(R,)`` states and ``(R, T - 1)`` uniforms."""
    initial = np.asarray(initial_states, dtype=np.int64)
    u = np.asarray(uniforms, dtype=float)
    length = u.shape[1] + 1
    if transition_stack is None:
        cumulative = np.cumsum(chain.dense_transition(), axis=1)
        per_step = None
    else:
        cumulative = None
        per_step = np.cumsum(np.asarray(transition_stack, dtype=float), axis=2)
    trajectories = np.empty((initial.size, length), dtype=np.int64)
    trajectories[:, 0] = initial
    last = chain.n_states - 1
    states = initial
    for t in range(1, length):
        rows = cumulative[states] if per_step is None else per_step[t - 1, states]
        states = np.minimum((rows <= u[:, t - 1, None]).sum(axis=1), last)
        trajectories[:, t] = states
    return trajectories


def sample_trajectories_reference(
    chain: MarkovChain,
    length: int,
    rngs: Sequence[np.random.Generator],
    *,
    per_rng: int = 1,
    start_cells: Sequence[int] | None = None,
    transition_stack: np.ndarray | None = None,
) -> np.ndarray:
    """``per_rng`` trajectories per generator, drawn row by row."""
    rows = len(rngs) * per_rng
    initial = np.empty(rows, dtype=np.int64)
    uniforms = np.empty((rows, length - 1), dtype=float)
    for row in range(rows):
        rng = rngs[row // per_rng]
        if start_cells is None:
            initial[row], uniforms[row] = sample_trajectory_randomness(
                chain, length, rng
            )
        else:
            initial[row] = start_cells[row]
            uniforms[row] = rng.random(length - 1)
    return evolve_linear(chain, initial, uniforms, transition_stack=transition_stack)
