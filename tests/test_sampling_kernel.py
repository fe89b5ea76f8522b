"""The sampling kernel against the one-count-at-a-time oracle.

:meth:`MarkovChain.evolve_from_uniforms` counts the entries ``<= u`` of a
cumulative row by a ``searchsorted`` for a single row, otherwise by
comparing the whole row or, for padded rows wider than 32 entries, by
bisection.  All must return exactly the count the oracle
(:mod:`reference.sampling`, the full-row linear count clamped to
``L - 1``) returns, on dense, sparse and per-step-stack chains, for
every awkward uniform: ``u = 0``, ``u`` equal to a
cumulative value, and ``u`` above a row total that ends below 1.  The
``kernel`` fixture forces one way or the other, so every width above 32
is checked both ways whatever the row count.

The draw side is checked too: one ``rng.random(out=...)`` per generator
must give the rows, and leave every generator in the state, the
per-trajectory scalar draws do.  Last, the fleet sampler's three block
layouts (user ranges, packed runs, the whole stack) must give the same
planes and metrics.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.mec.fleet as fleet_module
import repro.mobility.markov as markov_module
from repro.core.eavesdropper.detector import MaximumLikelihoodDetector
from repro.core.strategies import get_strategy
from repro.mec.fleet import FleetSimulation, FleetSimulationConfig
from repro.mec.topology import MECTopology
from repro.mobility.grid import GridTopology
from repro.mobility.markov import MarkovChain
from repro.mobility.models import paper_synthetic_models
from repro.mobility.sparse import SparseMarkovChain
from repro.world import RegimeSwitch, Timeline

from reference.sampling import (
    evolve_linear,
    sample_trajectories_reference,
    sample_trajectory_randomness,
)

_FUZZ = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

#: Widths on both sides of the 32-entry split and of powers of two.
_EDGE_WIDTHS = (2, 3, 31, 32, 33, 34, 63, 64, 65, 100, 128, 129, 257, 300)


@pytest.fixture(params=["count", "bisect"])
def kernel(request, monkeypatch):
    """Force the whole-row count or (for padded rows) the bisection."""
    threshold = 0 if request.param == "bisect" else 1 << 62
    monkeypatch.setattr(markov_module, "_BISECT_MIN_GATHER", threshold)
    return request.param


def _matrix(n: int, zeros: float, rng: np.random.Generator) -> np.ndarray:
    """A random row-stochastic matrix, each entry zero with chance ``zeros``."""
    weights = rng.random((n, n)) * (rng.random((n, n)) >= zeros)
    # A ring keeps every row non-empty and the chain irreducible.
    weights[np.arange(n), (np.arange(n) + 1) % n] += 0.05
    return weights / weights.sum(axis=1, keepdims=True)


@st.composite
def matrices(draw, max_states: int = 300) -> np.ndarray:
    """Row-stochastic matrices with zero entries, from 2 to 300 states."""
    n = draw(
        st.one_of(
            st.sampled_from([w for w in _EDGE_WIDTHS if w <= max_states]),
            st.integers(2, max_states),
        )
    )
    zeros = draw(st.sampled_from([0.0, 0.5, 0.95]))
    seed = draw(st.integers(0, 2**32 - 1))
    return _matrix(n, zeros, np.random.default_rng(seed))


def _adversarial_uniforms(
    chain: MarkovChain,
    initial: np.ndarray,
    length: int,
    rng: np.random.Generator,
    stack: np.ndarray | None = None,
) -> np.ndarray:
    """Uniforms that hit the edge cases along the oracle's own trajectory.

    Each step draws, per row, one of: an exact cumulative value of the
    current state's row, ``0.0``, the next float above the row total
    (the clamp to ``L - 1``), or a plain uniform.
    """
    n = chain.n_states
    if stack is None:
        tables = [np.cumsum(chain.dense_transition(), axis=1)] * (length - 1)
    else:
        tables = list(np.cumsum(stack, axis=2))
    rows_idx = np.arange(initial.size)
    uniforms = np.empty((initial.size, length - 1))
    states = initial
    for t in range(1, length):
        rows = tables[t - 1][states]
        kind = rng.integers(0, 4, initial.size)
        exact = rows[rows_idx, rng.integers(0, n, initial.size)]
        above = np.nextafter(rows[:, -1], np.inf)
        plain = rng.random(rows_idx.size)
        u = np.select([kind == 0, kind == 1, kind == 2], [exact, 0.0, above], plain)
        uniforms[:, t - 1] = u
        states = np.minimum((rows <= u[:, None]).sum(axis=1), n - 1)
    return uniforms


class TestKernelAgainstOracle:
    @_FUZZ
    @given(
        matrix=matrices(),
        rows=st.integers(1, 40),
        length=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dense_and_sparse_chains(self, kernel, matrix, rows, length, seed):
        dense = MarkovChain(matrix)
        sparse = SparseMarkovChain.from_chain(dense)
        rng = np.random.default_rng(seed)
        initial = rng.integers(0, dense.n_states, rows)
        uniforms = _adversarial_uniforms(dense, initial, length, rng)
        expected = evolve_linear(dense, initial, uniforms)
        for chain in (dense, sparse):
            got = chain.evolve_from_uniforms(initial, uniforms)
            assert np.array_equal(got, expected)
            # The first row alone takes the one-row path.
            one = chain.evolve_from_uniforms(initial[:1], uniforms[:1])
            assert np.array_equal(one, expected[:1])

    @_FUZZ
    @given(
        matrix=matrices(max_states=150),
        zeros=st.sampled_from([0.0, 0.5, 0.95]),
        rows=st.integers(1, 30),
        length=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_per_step_stacks(self, kernel, matrix, zeros, rows, length, seed):
        n = matrix.shape[0]
        rng = np.random.default_rng(seed)
        stack = np.empty((length - 1, n, n))
        for step in range(length - 1):
            stack[step] = _matrix(n, zeros, rng)
        dense = MarkovChain(matrix)
        sparse = SparseMarkovChain.from_chain(dense)
        initial = rng.integers(0, n, rows)
        uniforms = _adversarial_uniforms(dense, initial, length, rng, stack)
        expected = evolve_linear(dense, initial, uniforms, transition_stack=stack)
        for chain in (dense, sparse):
            got = chain.evolve_from_uniforms(initial, uniforms, transition_stack=stack)
            assert np.array_equal(got, expected)
            one = chain.evolve_from_uniforms(
                initial[:1], uniforms[:1], transition_stack=stack
            )
            assert np.array_equal(one, expected[:1])

    @pytest.mark.parametrize("n", [10, 21, 33, 65])
    def test_row_total_below_one_clamps_to_last_state(self, kernel, n):
        dense = MarkovChain(np.full((n, n), 1.0 / n))
        totals = np.cumsum(dense.transition_matrix, axis=1)[:, -1]
        assert np.all(totals < 1.0)  # the premise: rounding left a gap
        sparse = SparseMarkovChain.from_chain(dense)
        initial = np.arange(n)
        cumulative = np.cumsum(dense.transition_matrix, axis=1)
        edges = cumulative[initial, initial % (n - 1)]
        cases = {
            "above total": (np.nextafter(totals, 1.0), np.full(n, n - 1)),
            "zero": (np.zeros(n), np.zeros(n, dtype=np.int64)),
            "exact cumulative": (edges, initial % (n - 1) + 1),
        }
        for name, (u, want) in cases.items():
            expected = evolve_linear(dense, initial, u[:, None])
            assert np.array_equal(expected[:, 1], want), name
            for chain in (dense, sparse):
                got = chain.evolve_from_uniforms(initial, u[:, None])
                assert np.array_equal(got, expected), name

    def test_padded_table_shapes(self):
        # A dense table leaves out each row's last running sum: L - 1 wide.
        for n, padded in [(34, 64), (64, 64), (65, 128), (100, 128), (300, 512)]:
            table = MarkovChain(np.full((n, n), 1.0 / n))._static_steps()
            assert table.padded is not None
            assert table.padded.shape == (n, padded)
            assert table.padded.flags.c_contiguous
            assert np.all(np.isinf(table.padded[:, n - 1 :]))
            # The count reads the same memory without the padding.
            assert table.rows.shape == (n, n - 1)
            assert np.shares_memory(table.rows, table.padded)
        table = MarkovChain(np.full((33, 33), 1 / 33))._static_steps()
        assert table.padded is None and table.rows.shape == (33, 32)


    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_pickles_leave_the_step_table_behind(self, backend):
        chain = MarkovChain(np.full((40, 40), 1 / 40))
        if backend == "sparse":
            chain = SparseMarkovChain.from_chain(chain)
        before = chain.sample_trajectories(300, 20, np.random.default_rng(1))
        assert chain._sampling_cache is not None
        clone = pickle.loads(pickle.dumps(chain))
        assert "_sampling_cache" not in vars(clone)
        after = clone.sample_trajectories(300, 20, np.random.default_rng(1))
        assert np.array_equal(before, after)


class TestDraws:
    @_FUZZ
    @given(
        matrix=matrices(max_states=80),
        generators=st.integers(1, 5),
        per_rng=st.integers(1, 4),
        length=st.integers(1, 10),
        fixed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_draw_matches_scalar_draws(
        self, kernel, matrix, generators, per_rng, length, fixed, seed
    ):
        chain = MarkovChain(matrix)
        starts = None
        if fixed:
            cells = np.random.default_rng(seed).integers(0, chain.n_states, 64)
            starts = cells[: generators * per_rng].tolist()
        batched = [np.random.default_rng([seed, g]) for g in range(generators)]
        scalar = [np.random.default_rng([seed, g]) for g in range(generators)]
        got = chain.sample_trajectories_batch(
            length, batched, per_rng=per_rng, start_cells=starts
        )
        expected = sample_trajectories_reference(
            chain, length, scalar, per_rng=per_rng, start_cells=starts
        )
        assert np.array_equal(got, expected)
        for a, b in zip(batched, scalar):
            assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("n", [10, 100])
    def test_scalar_sampling_is_the_one_row_case(self, backend, n):
        chain = paper_synthetic_models(n, seed=5)["temporally-skewed"]
        if backend == "sparse":
            chain = SparseMarkovChain.from_chain(chain)
        for seed in range(4):
            got = chain.sample_trajectory(30, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            first, uniforms = sample_trajectory_randomness(chain, 30, rng)
            expected = evolve_linear(chain, np.array([first]), uniforms[None])[0]
            assert np.array_equal(got, expected)
            pinned = chain.sample_trajectory(
                30, np.random.default_rng(seed), initial_state=3
            )
            rng = np.random.default_rng(seed)
            expected = evolve_linear(chain, np.array([3]), rng.random((1, 29)))[0]
            assert np.array_equal(pinned, expected)
            step = chain.sample_next_state(seed, np.random.default_rng(seed))
            u = np.random.default_rng(seed).random((1, 1))
            assert step == evolve_linear(chain, np.array([seed]), u)[0, 1]

    def test_many_trajectories_from_one_generator(self):
        chain = paper_synthetic_models(40, seed=3)["non-skewed"]
        got = chain.sample_trajectories(7, 15, np.random.default_rng(9))
        expected = sample_trajectories_reference(
            chain, 15, [np.random.default_rng(9)], per_rng=7
        )
        assert np.array_equal(got, expected)


# ----------------------------------------------------------------------
# Fleet block layouts
# ----------------------------------------------------------------------

_USERS, _HORIZON, _RUNS = 7, 12, 5
_BUDGETS = (1, 2, 0, 1, 3, 1, 2)


def _fleet(dynamic: bool, starts: bool) -> FleetSimulation:
    models = paper_synthetic_models(9, seed=2017)
    timeline = None
    if dynamic:
        timeline = Timeline(
            events=(RegimeSwitch(slot=5, regime=1),),
            regime_chains=(models["temporally-skewed"],),
        )
    return FleetSimulation(
        MECTopology.from_grid(GridTopology(3, 3), capacity=8),
        models["non-skewed"],
        strategy=get_strategy("IM"),
        config=FleetSimulationConfig(
            n_users=_USERS,
            horizon=_HORIZON,
            n_chaffs=_BUDGETS,
            start_cells=(0, 4, 8, 2, 6, 1, 3) if starts else None,
        ),
        timeline=timeline,
    )


_N_SERVICES = _USERS + sum(_BUDGETS)
#: Block target -> expected number of sampling blocks for ``_RUNS`` runs.
_LAYOUTS = {
    # A run (19 services x 12 slots) does not fit: user ranges of
    # 2 users (widest user: 4 services x 12 slots = 48 elements).
    "user ranges": (100, _RUNS * 4),
    # Two whole runs per block: 3 blocks for 5 runs.
    "packed runs": (2 * _N_SERVICES * _HORIZON, 3),
    "whole stack": (1 << 20, 1),
}


class TestBlockLayouts:
    def _sample(self, sim, monkeypatch, target, seeds):
        """``run_stacked``'s outcome, the sampled planes and the block count."""
        monkeypatch.setattr(fleet_module, "_BLOCK_TARGET_ELEMS", target)
        outcome = sim.run_stacked(seeds, engine="batch")
        blocks = []
        original = FleetSimulation._sample_block

        def counting(self, *args):
            blocks.append(args)
            return original(self, *args)

        monkeypatch.setattr(FleetSimulation, "_sample_block", counting)
        users = np.empty((len(seeds) * _USERS, _HORIZON), dtype=np.int64)
        plans = np.empty((len(seeds) * _N_SERVICES, _HORIZON), dtype=np.int64)
        sim._sample_runs(
            [sim._episode_streams(seed)[0] for seed in seeds], users, plans
        )
        monkeypatch.setattr(FleetSimulation, "_sample_block", original)
        return outcome, users, plans, len(blocks)

    @pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
    @pytest.mark.parametrize("starts", [False, True], ids=["drawn", "start-cells"])
    def test_layouts_give_identical_planes_and_metrics(
        self, monkeypatch, dynamic, starts
    ):
        sim = _fleet(dynamic, starts)
        seeds = list(range(100, 100 + _RUNS))
        detector = MaximumLikelihoodDetector()
        results = {}
        for name, (target, expected_blocks) in _LAYOUTS.items():
            outcome, users, plans, blocks = self._sample(
                sim, monkeypatch, target, seeds
            )
            assert blocks == expected_blocks, name
            results[name] = (outcome, users, plans)
        base_outcome, base_users, base_plans = results["whole stack"]
        base_metrics = base_outcome.to_metrics(detector)
        for name, (outcome, users, plans) in results.items():
            assert np.array_equal(users, base_users), name
            assert np.array_equal(plans, base_plans), name
            assert np.array_equal(outcome.users_st, base_users), name
            assert np.array_equal(outcome.histories_st, base_outcome.histories_st)
            for got, want in zip(outcome.to_metrics(detector), base_metrics):
                for a, b in zip(got, want):
                    assert np.array_equal(a, b), name
        # Each run alone, sampled whole, is the same as any stacked layout.
        single = sim.run(seeds[2])
        rows = slice(2 * _USERS, 3 * _USERS)
        assert np.array_equal(single.user_trajectories, base_users[rows])
