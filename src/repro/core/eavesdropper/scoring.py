"""Eq. (1): the one trajectory scorer and the one tie-break rule.

Every privacy number in the repo comes from the ML eavesdropper of
Eq. (1): score each observed trajectory by its log-likelihood, keep every
score within ``tolerance`` of the best and break the tie uniformly at
random.  The detectors, the adversary layer and all three fleet
evaluations (in-memory, run-stacked and streamed) go through the two
functions here: :func:`eq1_scores` scores an observation plane fed as
slot windows, and :func:`eq1_decide` turns the scores into one decision
per generator.  A row's score is its plain log-likelihood
``log pi(x_1) + sum_t log P(x_t, x_{t+1})`` when its plane is fully
visible, and otherwise its per-observed-slot *rate* — ``log pi`` of its
first visible cell plus the transitions whose two slots are both
visible, divided by its visible slot count — so rows observed over
different slots stay comparable.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

import numpy as np

from ...mobility.markov import MarkovChain
from ...numerics import safe_log

if TYPE_CHECKING:
    from ...adversary.score_cache import ScoreComponentCache

__all__ = ["eq1_scores", "eq1_decide"]


def _shifted(
    tail: np.ndarray | None, window: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A window's transition pairs; ``tail`` is the previous window's last slot."""
    if tail is None:
        return window[..., :-1], window[..., 1:]
    return np.concatenate([tail, window[..., :-1]], axis=-1), window


def _step_terms(
    chain: MarkovChain,
    previous: np.ndarray,
    current: np.ndarray,
    stack: np.ndarray | None,
    hidden: bool = False,
) -> np.ndarray:
    """``log P(current | previous)`` per step, under ``stack`` when set.

    With ``hidden`` the pairs may hold ``-1`` cells, which read cell 0.
    """
    if hidden:
        previous, current = np.clip(previous, 0, None), np.clip(current, 0, None)
    if stack is None:
        return chain.log_transition_entries(previous, current)
    return safe_log(stack)[np.arange(stack.shape[0]), previous, current]


def _plain_terms(
    chain: MarkovChain,
    cells: np.ndarray,
    previous: np.ndarray,
    current: np.ndarray,
    stack: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """``log pi`` of a visible window's first cells and its step-term sums."""
    head = chain.log_stationary[cells[..., 0]].astype(float)
    return head, _step_terms(chain, previous, current, stack).sum(axis=-1)


def _stationary_terms(chain: MarkovChain, cells: np.ndarray) -> np.ndarray:
    """``log pi`` of every cell (``-1`` cells read cell 0)."""
    return chain.log_stationary[np.clip(cells, 0, None)].astype(float)


def eq1_scores(
    chain: MarkovChain,
    windows: Iterable[tuple[np.ndarray, np.ndarray | None]],
    *,
    transition_stack: np.ndarray | None = None,
    cache: ScoreComponentCache | None = None,
) -> np.ndarray:
    """Eq. (1) scores of an ``(..., N, T)`` plane, window by window.

    ``windows`` yields ``(cells, mask)`` pairs covering consecutive slot
    ranges of ``[0, T)`` in order: ``cells`` is the ``(..., N, width)``
    integer slice and ``mask`` its boolean visibility, or ``None`` when
    every slot is visible (hidden cells may hold ``-1``).  A whole plane
    is the single window ``[(plane, mask)]``.

    Returns the ``(..., N)`` scores: plain log-likelihoods for every
    ``(N, T)`` plane that is visible everywhere, per-observed-slot rates
    for the others.  Several windows score what one window scores, up to
    float summation order.

    ``transition_stack`` scores the step into slot ``t`` under
    ``transition_stack[t - 1]`` (a ``(T - 1, L, L)`` time-varying chain)
    instead of ``chain``'s matrix.  ``cache`` memoises the gather tables
    of a whole-plane call, keyed by content digests of the chain, the
    stack and the plane; the tables never depend on the mask, so every
    coverage of one plane shares them.
    """
    n_states = chain.n_states
    stack = None if transition_stack is None else np.asarray(transition_stack, float)
    if stack is not None and stack.shape[1:] != (n_states, n_states):
        raise ValueError(
            f"transition_stack must be (T - 1, {n_states}, {n_states}),"
            f" got {stack.shape}"
        )

    def lookup(key: tuple[str, ...], compute: Callable[[], Any]) -> Any:
        return compute() if cache is None else cache.get_or_compute(key, compute)

    stat: np.ndarray | None = None  # log pi of each row's first visible cell
    steps: np.ndarray | None = None  # sum of the counted transition terms
    visible: np.ndarray | int = 0  # visible slots per row
    masked = False  # whether any window so far hid a slot
    tail_cells: np.ndarray | None = None  # the previous window's last slot
    tail_mask: np.ndarray | None = None
    slots = 0
    for window, window_mask in windows:
        cells = np.asarray(window, dtype=np.int64)
        start, slots = slots, slots + cells.shape[-1]
        mask = None if window_mask is None or window_mask.all() else window_mask
        masked = masked or mask is not None
        if masked and mask is None:
            mask = np.ones(cells.shape, dtype=bool)
        previous, current = _shifted(tail_cells, cells)
        stack_w = None if stack is None else stack[max(start, 1) - 1 : slots - 1]
        if stack_w is not None and stack_w.shape[0] != current.shape[-1]:
            raise ValueError(f"transition_stack has too few steps for slot {slots}")
        keys: tuple[str, ...] = ()
        if cache is not None:
            if start > 0:
                raise ValueError("a score cache serves whole-plane scoring only")
            # Deferred: the adversary package imports the detectors.
            from ...adversary.score_cache import array_digest, chain_digest

            keys = (chain_digest(chain), array_digest(stack), array_digest(cells))
        window_steps: np.ndarray | None = None
        if mask is None:
            # Every slot so far is visible: plain log-likelihood terms.
            head, window_steps = lookup(
                ("ll_full", *keys),
                partial(_plain_terms, chain, cells, previous, current, stack_w),
            )
            stat = head if stat is None else stat
            visible = visible + cells.shape[-1]
        else:
            counts = mask.sum(axis=-1)
            first = np.argmax(mask, axis=-1)[..., None]
            if cache is None:
                first_cells = np.take_along_axis(cells, first, axis=-1)[..., 0]
                head = _stationary_terms(chain, first_cells)
            else:
                table = lookup(
                    ("stat", keys[0], keys[2]), partial(_stationary_terms, chain, cells)
                )
                head = np.take_along_axis(table, first, axis=-1)[..., 0]
            # A row's stationary term is read at its first visible slot.
            if stat is None:
                stat = head
            else:
                stat = np.where((counts > 0) & (visible == 0), head, stat)
            visible = visible + counts
            if current.shape[-1]:
                terms = lookup(
                    ("steps", *keys),
                    partial(_step_terms, chain, previous, current, stack_w, True),
                )
                valid = np.logical_and(*_shifted(tail_mask, mask))
                window_steps = np.where(valid, terms, 0.0).sum(axis=-1)
        if window_steps is not None:
            steps = window_steps if steps is None else steps + window_steps
        tail_cells = cells[..., -1:]
        tail_mask = np.ones_like(tail_cells, bool) if mask is None else mask[..., -1:]
    if stat is None:
        raise ValueError("need at least one non-empty slot window")
    if stack is not None and stack.shape[0] != slots - 1:
        raise ValueError(f"transition_stack has {stack.shape[0]} steps, not {slots - 1}")
    scores = stat.copy() if steps is None else stat + steps
    if not masked:
        return scores
    full = np.all(visible == slots, axis=-1, keepdims=True)
    rates = np.where(visible > 0, scores / np.maximum(visible, 1), -np.inf)
    return np.where(full, scores, rates)


def eq1_decide(
    scores: np.ndarray,
    rngs: Sequence[np.random.Generator],
    tolerance: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Eq. (1)'s decision over one score vector, once per generator.

    Keeps every row scoring within ``tolerance`` of the best, then each
    generator, in order, makes exactly one draw
    ``candidates[rng.integers(0, candidates.size)]`` — the stream
    ``rng.choice(candidates)`` consumes, so the draw order is part of the
    seeding contract.  When every score is ``-inf`` (nothing visible,
    every row ruled out, or a guesser that scores nothing) every row is a
    candidate, so the draw is a uniform guess ``rng.integers(0, N)``.

    Returns ``(chosen, candidates)``: the length-``len(rngs)`` chosen
    rows and the candidate rows they were drawn from.
    """
    if len(rngs) == 0:
        raise ValueError("need at least one generator")
    best = float(scores.max())
    candidates: np.ndarray
    if best == -np.inf:
        candidates = np.arange(scores.size)
    else:
        candidates = np.flatnonzero(scores >= best - tolerance)
    size = candidates.size
    chosen = np.array(
        [candidates[rng.integers(0, size)] for rng in rngs], dtype=np.int64
    )
    return chosen, candidates
