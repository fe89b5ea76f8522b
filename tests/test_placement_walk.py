"""The first-hit placement walk against the rescanning oracle.

:class:`~repro.mec.placement.PlacementEngine` resolves contended slots
with a first-hit walk over each cell's precomputed hop order, on
plain-list loads.  These tests pin all four walks (initial placement,
voluntary moves, evictions, mid-episode arrivals) and the sharded
engine's residue walk to the ``flatnonzero`` / ``argmin`` walk kept in
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

from repro.mec.placement import PlacementEngine, placement_engine
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
    kind: str, size: int, seed: int, *, regions: int = 1, workers: int = 1
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
    engine = placement_engine(topology, regions=regions, workers=workers)
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
        regions=st.sampled_from([1, 2, 3]),
        workers=st.sampled_from([1, 2]),
        **_topologies,
    )
    def test_resolve_moves(
        self, kind, size, seed, n_services, n_slots, regions, workers
    ):
        engine, oracle, rng = _engine_pair(
            kind, size, seed, regions=regions, workers=workers
        )
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
    @given(
        rows=st.integers(2, 4),
        cols=st.integers(3, 6),
        regions=st.integers(2, 4),
        workers=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sharded_regions(self, rows, cols, regions, workers, seed):
        # Movers mostly stay inside their region, so most slots settle as
        # clean regions (their spill scans fenced at foreign cells) plus a
        # small cross-region residue, instead of falling back.
        topology = MECTopology.from_grid(GridTopology(rows, cols), capacity=1)
        rng = np.random.default_rng(seed)
        n_cells = topology.n_cells
        caps = rng.integers(0, 4, size=n_cells)
        engine = placement_engine(topology, regions=regions, workers=workers)
        oracle = ReferencePlacementEngine(topology)
        for each in (engine, oracle):
            each.set_capacities(caps)
        labels = engine.partition.labels
        initial = rng.integers(0, n_cells, size=int(caps.sum()) * 3 // 4)
        current = oracle.place_initial(initial)
        assert engine.place_initial(initial).tolist() == current.tolist()
        for _ in range(4):
            desired = current.copy()
            for row in np.flatnonzero(rng.random(current.size) < 0.6):
                same = np.flatnonzero(labels == labels[current[row]])
                cells = same if rng.random() < 0.9 else np.arange(n_cells)
                desired[row] = rng.choice(cells)
            placed = engine.resolve_moves(current, desired)
            assert placed.tolist() == oracle.resolve_moves(current, desired).tolist()
            _assert_same_state(engine, oracle)
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


class TestShardedResidue:
    def test_full_deployment_residue_defers_to_serial_walk(self):
        # ring(6) in 3 regions: {0, 5}, {2, 3, 4}, {1}.  Cell 2 starts
        # overloaded and cell 4 free.  Service 1 settles inside the clean
        # region {2, 3, 4} (2 -> 4) and leaves every site full, but in the
        # serial id order service 0 (1 -> 0, crossing regions) comes first
        # and spills into the still-free cell 4.  The residue walk must
        # not reject it: it falls back to the serial walk instead.
        topology = MECTopology.ring(6, capacity=1)
        engine = placement_engine(topology, regions=3)
        oracle = ReferencePlacementEngine(topology)
        assert engine.partition.labels.tolist() == [0, 2, 1, 1, 1, 0]
        for each in (engine, oracle):
            each.load[:] = [1, 1, 2, 1, 0, 1]
        current = np.array([1, 2, 0, 2, 3, 5])
        desired = np.array([0, 4, 0, 2, 3, 5])
        placed = engine.resolve_moves(current, desired)
        assert placed.tolist() == [4, 1, 0, 2, 3, 5]
        assert placed.tolist() == oracle.resolve_moves(current, desired).tolist()
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

    def test_sharded_engine_checks_movers_too(self):
        engine = placement_engine(MECTopology.ring(6, capacity=1), regions=2)
        engine.place_initial(np.arange(6))
        with pytest.raises(ValueError, match="desired_cells"):
            engine.resolve_moves(np.array([0, 1]), np.array([0, 6]))
