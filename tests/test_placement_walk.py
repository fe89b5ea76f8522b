"""The first-hit placement walk against the rescanning oracle.

:class:`~repro.mec.placement.PlacementEngine` resolves contended slots
with a first-hit walk over each cell's precomputed hop order, on
plain-list loads.  These tests pin all four walks (initial placement,
voluntary moves, evictions, mid-episode arrivals) to the
``flatnonzero`` / ``argmin`` walk kept in
``tests/reference/`` — placed cells, final loads and every
:class:`~repro.mec.placement.PlacementStats` field — on random ring,
complete and grid topologies with random (zero included) capacities and
start loads that may exceed them.  They also pin the movers' input check
of :meth:`~repro.mec.placement.PlacementEngine.resolve_moves`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mec.placement import PlacementEngine
from repro.mec.topology import MECTopology
from repro.mobility.grid import GridTopology

from reference import ReferencePlacementEngine

_FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _topology(kind: str, size: int) -> MECTopology:
    if kind == "ring":
        return MECTopology.ring(size + 1, capacity=1)
    if kind == "complete":
        return MECTopology.complete(size, capacity=1)
    return MECTopology.from_grid(GridTopology(2, size), capacity=1)


def _engine_pair(
    kind: str, size: int, seed: int
) -> tuple[PlacementEngine, ReferencePlacementEngine, np.random.Generator]:
    """Engine and oracle on one topology with equal random caps and loads.

    Capacities include zeros (failed sites); start loads may exceed
    them (a shrunk site awaiting eviction, or a stranded arrival).
    """
    topology = _topology(kind, size)
    rng = np.random.default_rng(seed)
    n_cells = topology.n_cells
    caps = rng.integers(0, 4, size=n_cells)
    load = rng.integers(0, 5, size=n_cells)
    engine = PlacementEngine(topology)
    oracle = ReferencePlacementEngine(topology)
    for each in (engine, oracle):
        each.set_capacities(caps)
        each.load[:] = load
    return engine, oracle, rng


def _assert_same_state(engine: PlacementEngine, oracle: PlacementEngine) -> None:
    assert engine.load.tolist() == oracle.load.tolist()
    assert engine.stats.as_dict() == oracle.stats.as_dict()


_topologies = dict(
    kind=st.sampled_from(["ring", "complete", "grid"]),
    size=st.integers(2, 7),
    seed=st.integers(0, 2**32 - 1),
)


class TestWalksMatchOracle:
    @_FUZZ
    @given(
        n_services=st.integers(1, 24),
        n_slots=st.integers(1, 4),
        **_topologies,
    )
    def test_resolve_moves(self, kind, size, seed, n_services, n_slots):
        engine, oracle, rng = _engine_pair(kind, size, seed)
        n_cells = engine.topology.n_cells
        current = rng.integers(0, n_cells, size=n_services)
        for _ in range(n_slots):
            desired = current.copy()
            movers = rng.random(n_services) < rng.random()
            desired[movers] = rng.integers(0, n_cells, size=int(movers.sum()))
            before = engine.stats.requests
            placed = engine.resolve_moves(current, desired)
            expected = oracle.resolve_moves(current, desired)
            assert placed.tolist() == expected.tolist()
            _assert_same_state(engine, oracle)
            assert engine.stats.requests - before == int(
                np.count_nonzero(desired != current)
            )
            current = placed

    @_FUZZ
    @given(n_services=st.integers(0, 24), **_topologies)
    def test_place_initial(self, kind, size, seed, n_services):
        engine, oracle, rng = _engine_pair(kind, size, seed)
        desired = rng.integers(0, engine.topology.n_cells, size=n_services)
        try:
            expected = oracle.place_initial(desired)
        except ValueError:
            with pytest.raises(ValueError, match="deployment is full"):
                engine.place_initial(desired)
        else:
            assert engine.place_initial(desired).tolist() == expected.tolist()
            assert engine.stats.requests == n_services
        _assert_same_state(engine, oracle)

    @_FUZZ
    @given(n_services=st.integers(0, 24), **_topologies)
    def test_admit_arrivals(self, kind, size, seed, n_services):
        engine, oracle, rng = _engine_pair(kind, size, seed)
        desired = rng.integers(0, engine.topology.n_cells, size=n_services)
        placed = engine.admit_arrivals(desired)
        assert placed.tolist() == oracle.admit_arrivals(desired).tolist()
        _assert_same_state(engine, oracle)
        stats = engine.stats
        assert stats.admitted + stats.spilled + stats.stranded == n_services

    @_FUZZ
    @given(n_services=st.integers(0, 24), **_topologies)
    def test_evict_overloaded(self, kind, size, seed, n_services):
        engine, oracle, rng = _engine_pair(kind, size, seed)
        cells = rng.integers(0, engine.topology.n_cells, size=n_services)
        placed = rng.random(n_services) < 0.8
        new_cells, moved = engine.evict_overloaded(cells, placed)
        expected_cells, expected_moved = oracle.evict_overloaded(cells, placed)
        assert new_cells.tolist() == expected_cells.tolist()
        assert moved.tolist() == expected_moved.tolist()
        _assert_same_state(engine, oracle)


class TestResolveMovesInputCheck:
    def test_negative_current_cell_of_a_mover_raises(self):
        engine = PlacementEngine(MECTopology.ring(4, capacity=1))
        engine.place_initial(np.array([0, 1, 2, 3]))
        with pytest.raises(ValueError, match="current_cells"):
            # Slow path (every site full): -1 used to decrement cell 3.
            engine.resolve_moves(np.array([-1, 1]), np.array([0, 2]))
        assert engine.load.tolist() == [1, 1, 1, 1]

    def test_out_of_range_desired_cell_of_a_mover_raises(self):
        engine = PlacementEngine(MECTopology.ring(4, capacity=2))
        engine.place_initial(np.array([0, 1]))
        with pytest.raises(ValueError, match="desired_cells"):
            engine.resolve_moves(np.array([0, 1]), np.array([4, 1]))
        assert engine.load.tolist() == [1, 1, 0, 0]

    def test_only_movers_are_checked(self):
        # A service that stays put is never read, whatever its cell says.
        engine = PlacementEngine(MECTopology.ring(4, capacity=2))
        engine.place_initial(np.array([0, 1]))
        placed = engine.resolve_moves(np.array([0, 7]), np.array([2, 7]))
        assert placed.tolist() == [2, 7]
