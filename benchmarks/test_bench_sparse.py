"""Dense-vs-sparse crossover benchmarks for the Markov kernels.

The sparse backend exists for city-scale state spaces: on a grid of
``L`` cells the chain has ~5 nonzeros per row, so CSR kernels cost
``O(T nnz)`` where dense costs ``O(T L^2)``.  These benchmarks time the
four hot kernels — batch sampling, trajectory scoring, the Viterbi solve
and the stationary solve — at ``L = 10, 10^2, 10^3, 10^4``.  Dense
numbers stop at ``10^3``: a dense ``10^4 x 10^4`` transition matrix is
800 MB before a single kernel runs, which is exactly the point.

``test_sparse_crossover_at_thousand_cells`` asserts the headline claim
(sparse at least 5x faster end to end at ``L = 10^3``), so a kernel
regression that erases the crossover fails CI rather than only shifting
a chart.  ``test_step_kernel_beats_linear_count_oracle`` times the
sampling step kernel (whole-row count up to 32 entries, bisection above
once rows x width reaches ``2**13``) against the one-count-per-row oracle
of ``tests/reference/sampling.py``; it asserts the bisection's gain at
``L = 400`` and that neither side of the count/bisection switch falls
far behind the oracle.  Every timing lands in ``BENCH_sparse.json``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.trellis import most_likely_trajectory
from repro.mobility import (
    GridTopology,
    MarkovChain,
    SparseMarkovChain,
    grid_random_walk,
    stationary_distribution,
)

from reference.sampling import evolve_linear

#: (rows, cols) grid factorisations of the swept state-space sizes.
GRID_SIZES = {10: (2, 5), 100: (10, 10), 1_000: (25, 40), 10_000: (100, 100)}
#: Largest L at which the dense baseline is still benchmarked.
DENSE_LIMIT = 1_000

_RUNS = 32
_HORIZON = 64


def _grid_pair(n_cells: int):
    """The grid walk at ``n_cells`` as ``(dense | None, sparse)`` chains."""
    topology = GridTopology(*GRID_SIZES[n_cells])
    sparse = grid_random_walk(topology, backend="sparse")
    dense = grid_random_walk(topology) if n_cells <= DENSE_LIMIT else None
    return dense, sparse


@pytest.fixture(scope="module", params=sorted(GRID_SIZES), ids=lambda n: f"L={n}")
def grid_pair(request):
    return request.param, *_grid_pair(request.param)


def _sample(chain):
    return chain.sample_trajectories(_RUNS, _HORIZON, np.random.default_rng(0))


def _score(chain, batch):
    return chain.log_likelihoods(batch)


def _viterbi(chain):
    # Memoised trellis structure is part of what is being measured: drop it.
    chain.__dict__.pop("_trellis_predecessors", None)
    return most_likely_trajectory(chain, _HORIZON)


def _record_mean(benchmark, bench_record, name: str) -> None:
    stats = getattr(benchmark, "stats", None)
    if stats is not None:
        bench_record("sparse")[name] = {"mean_s": float(stats.stats.mean)}


def test_bench_sampling_dense(benchmark, grid_pair, bench_record):
    n_cells, dense, _ = grid_pair
    if dense is None:
        pytest.skip(f"dense baseline not built above L = {DENSE_LIMIT}")
    assert benchmark(_sample, dense).shape == (_RUNS, _HORIZON)
    _record_mean(benchmark, bench_record, f"sampling_dense_L{n_cells}")


def test_bench_sampling_sparse(benchmark, grid_pair, bench_record):
    n_cells, _, sparse = grid_pair
    assert benchmark(_sample, sparse).shape == (_RUNS, _HORIZON)
    _record_mean(benchmark, bench_record, f"sampling_sparse_L{n_cells}")


def test_bench_scoring_dense(benchmark, grid_pair):
    n_cells, dense, _ = grid_pair
    if dense is None:
        pytest.skip(f"dense baseline not built above L = {DENSE_LIMIT}")
    batch = _sample(dense)
    assert benchmark(_score, dense, batch).shape == (_RUNS,)


def test_bench_scoring_sparse(benchmark, grid_pair):
    _, _, sparse = grid_pair
    batch = _sample(sparse)
    assert benchmark(_score, sparse, batch).shape == (_RUNS,)


def test_bench_viterbi_dense(benchmark, grid_pair):
    n_cells, dense, _ = grid_pair
    if dense is None:
        pytest.skip(f"dense baseline not built above L = {DENSE_LIMIT}")
    assert benchmark(_viterbi, dense).shape == (_HORIZON,)


def test_bench_viterbi_sparse(benchmark, grid_pair):
    _, _, sparse = grid_pair
    assert benchmark(_viterbi, sparse).shape == (_HORIZON,)


def test_bench_stationary_dense(benchmark, grid_pair):
    n_cells, dense, _ = grid_pair
    if dense is None:
        pytest.skip(f"dense baseline not built above L = {DENSE_LIMIT}")
    pi = benchmark(stationary_distribution, dense.transition_matrix)
    assert pi.shape == (n_cells,)


def test_bench_stationary_sparse(benchmark, grid_pair):
    n_cells, _, sparse = grid_pair
    pi = benchmark(
        stationary_distribution, sparse.transition_matrix, method="power"
    )
    assert pi.shape == (n_cells,)


def _kernel_sweep_seconds(chain) -> float:
    """One pass over the three simulation kernels, wall-clock seconds."""
    start = time.perf_counter()
    batch = _sample(chain)
    _score(chain, batch)
    _viterbi(chain)
    return time.perf_counter() - start


def test_sparse_crossover_at_thousand_cells():
    """The headline guarantee: sparse wins >= 5x at L = 10^3.

    Measured over the simulation kernels (sampling + scoring + Viterbi)
    with a warm-up pass each, best of three, so one scheduler hiccup
    cannot fail the assertion.
    """
    dense, sparse = _grid_pair(1_000)
    _kernel_sweep_seconds(dense)  # warm-up: caches, allocator
    _kernel_sweep_seconds(sparse)
    dense_s = min(_kernel_sweep_seconds(dense) for _ in range(3))
    sparse_s = min(_kernel_sweep_seconds(sparse) for _ in range(3))
    assert sparse_s * 5.0 <= dense_s, (
        f"sparse kernels took {sparse_s:.4f}s vs dense {dense_s:.4f}s at "
        f"L=1000 (speed-up {dense_s / sparse_s:.1f}x < 5x)"
    )


def test_city_scale_runs_without_dense_arrays():
    """L = 10^4 end to end: construct, sample, score, solve — all sparse."""
    _, sparse = _grid_pair(10_000)
    assert isinstance(sparse, SparseMarkovChain)
    batch = _sample(sparse)
    scores = _score(sparse, batch)
    assert np.all(np.isfinite(scores))
    path = most_likely_trajectory(sparse, 20, top_k=4)
    assert path.shape == (20,)
    with pytest.raises(ValueError):
        _ = sparse.log_transition_matrix  # never densify 800 MB silently


#: The step-kernel sweep: widths on both sides of the 32-entry split, a
#: fleet's row count (one run stack of users) and a large batch.
KERNEL_STATES = (10, 25, 100, 400, 1_000)
KERNEL_ROWS = (50, 4_000)
#: Row counts around the count/bisection switch at ``L = 100`` (rows x
#: width 6,336, then 12,672, 27,225 and 50,688 against ``2**13``).
SWITCH_STATES = 100
SWITCH_ROWS = (64, 128, 275, 512)
KERNEL_HORIZON = 200


def _best_seconds(fn, repeats: int):
    """``(best wall seconds, last result)`` over ``repeats`` calls."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_step_kernel_beats_linear_count_oracle(bench_record):
    """The step kernel against the linear-count oracle, bit for bit.

    Rows of at most 32 entries take the same whole-row count as the
    oracle, so at ``L = 10, 25`` the ratio is about 1; wider rows are
    bisected once a step's whole-row count reaches ``2**13`` values.
    The assertions, best of three on both sides: at least 3x at
    ``L = 400``, ``R = 4000``, and at least 0.6x at every point around
    the switch (the count's side runs the oracle's own algorithm, the
    bisection's side is past the measured crossover).
    """
    rng = np.random.default_rng(2017)
    record = {}
    points = [(n, rows) for n in KERNEL_STATES for rows in KERNEL_ROWS]
    points += [(SWITCH_STATES, rows) for rows in SWITCH_ROWS]
    chains = {}
    for n_states, rows in points:
        if n_states not in chains:
            weights = rng.random((n_states, n_states))
            chain = MarkovChain(weights / weights.sum(axis=1, keepdims=True))
            chain.evolve_from_uniforms(np.zeros(1, dtype=np.int64), np.zeros((1, 1)))
            chains[n_states] = chain
        chain = chains[n_states]
        initial = rng.integers(0, n_states, rows)
        uniforms = rng.random((rows, KERNEL_HORIZON - 1))
        switch = n_states == SWITCH_STATES and rows in SWITCH_ROWS
        repeats = 3 if switch or (n_states, rows) == (400, 4_000) else 1
        kernel_s, got = _best_seconds(
            lambda: chain.evolve_from_uniforms(initial, uniforms), repeats
        )
        oracle_s, expected = _best_seconds(
            lambda: evolve_linear(chain, initial, uniforms), repeats
        )
        assert np.array_equal(got, expected), (n_states, rows)
        record[f"L{n_states}_R{rows}"] = {
            "kernel_s": kernel_s,
            "oracle_s": oracle_s,
            "speedup": oracle_s / kernel_s,
        }
    bench_record("sparse")["step_kernel"] = record
    speedup = record["L400_R4000"]["speedup"]
    assert speedup >= 3.0, f"step kernel only {speedup:.2f}x the oracle at L=400"
    for rows in SWITCH_ROWS:
        speedup = record[f"L{SWITCH_STATES}_R{rows}"]["speedup"]
        assert speedup >= 0.6, f"step kernel {speedup:.2f}x the oracle at R={rows}"
