"""Tests for the dynamic-world layer: Timeline, generators, time-indexed
mobility operators, per-slot capacity views and the masked fleet kernels.

The two load-bearing contracts:

* **Golden seeds** — an empty timeline is bit-identical to the
  pre-refactor static path in both engines (digests captured from the
  code before the world layer existed);
* **Engine equivalence** — batch == the looped oracle of
  ``tests/reference/`` bit-identically under any timeline (regimes +
  failures/capacity shocks + churn), and the fleet Monte-Carlo stays
  worker-count independent.

The worker count for sharded tests comes from ``REPRO_TEST_WORKERS``
(default 2) so CI can pin the process-pool path.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest

from repro.core.eavesdropper.detector import (
    MaximumLikelihoodDetector,
    RandomGuessDetector,
    trajectory_log_likelihoods,
)
from repro.core.strategies import get_strategy
from repro.mec.costs import CostModel
from repro.mec.fleet import (
    FleetSimulation,
    FleetSimulationConfig,
    run_fleet_monte_carlo,
)
from repro.mec.placement import PlacementEngine
from repro.mec.policies import DistanceThresholdPolicy
from repro.mec.topology import MECTopology
from repro.mobility.grid import GridTopology
from repro.mobility.models import paper_synthetic_models
from repro.sim.cache import ResultCache
from repro.sim.config import DynamicExperimentConfig
from repro.experiments.registry import run_experiment
from repro.world import (
    CapacityChange,
    RegimeSwitch,
    SiteDown,
    SiteUp,
    Timeline,
    UserArrival,
    UserDeparture,
    dynamic_timeline,
    periodic_regime_events,
    poisson_site_failures,
    random_user_churn,
)

from reference import loop_engine, run_fleet, run_fleet_loop

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))


@pytest.fixture(scope="module")
def chain9():
    return paper_synthetic_models(9, seed=2017)["non-skewed"]


@pytest.fixture(scope="module")
def regime9():
    return paper_synthetic_models(9, seed=2017)["temporally-skewed"]


@pytest.fixture(scope="module")
def grid9():
    return MECTopology.from_grid(GridTopology(3, 3), capacity=4)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _rich_timeline(regime) -> Timeline:
    return Timeline(
        events=(
            RegimeSwitch(slot=8, regime=1),
            RegimeSwitch(slot=16, regime=0),
            SiteDown(slot=5, cell=4),
            SiteUp(slot=12, cell=4),
            CapacityChange(slot=10, cell=0, capacity=1),
            SiteDown(slot=18, cell=1),
            UserArrival(slot=4, user=2),
            UserDeparture(slot=22, user=2),
            UserDeparture(slot=15, user=0),
            UserArrival(slot=9, user=5),
        ),
        regime_chains=(regime,),
    )


# ----------------------------------------------------------------------
# Timeline compilation semantics
# ----------------------------------------------------------------------


class TestTimelineCompile:
    def test_empty_timeline_is_static(self, chain9, grid9):
        schedule = Timeline().compile(
            horizon=10,
            n_cells=9,
            n_users=3,
            base_capacities=grid9.base_capacities(),
            base_chain=chain9,
        )
        assert schedule.is_static
        assert schedule.transition_stack() is None
        assert np.all(schedule.capacities == 4)
        assert np.all(schedule.user_windows == [0, 10])

    def test_compiled_views(self, chain9, regime9, grid9):
        schedule = _rich_timeline(regime9).compile(
            horizon=30,
            n_cells=9,
            n_users=6,
            base_capacities=grid9.base_capacities(),
            base_chain=chain9,
        )
        assert not schedule.is_static
        assert schedule.has_regime_switches
        assert schedule.has_capacity_events
        assert schedule.has_churn
        # regimes: 0 until slot 8, 1 until 16, 0 after
        assert schedule.regimes[7] == 0
        assert schedule.regimes[8] == 1
        assert schedule.regimes[16] == 0
        # capacities: site 4 down on [5, 12), site 0 shrunk from 10 on
        assert schedule.capacities[4, 4] == 4
        assert schedule.capacities[5, 4] == 0
        assert schedule.capacities[12, 4] == 4
        assert schedule.capacities[10, 0] == 1
        assert schedule.capacities[29, 1] == 0
        # windows
        assert list(schedule.user_windows[0]) == [0, 15]
        assert list(schedule.user_windows[2]) == [4, 22]
        assert list(schedule.user_windows[5]) == [9, 30]
        assert list(schedule.user_windows[1]) == [0, 30]
        active = schedule.active_users()
        assert active.shape == (6, 30)
        assert not active[2, 3] and active[2, 4] and not active[2, 22]

    def test_transition_stack_matches_regimes(self, chain9, regime9, grid9):
        schedule = _rich_timeline(regime9).compile(
            horizon=30,
            n_cells=9,
            n_users=6,
            base_capacities=grid9.base_capacities(),
            base_chain=chain9,
        )
        stack = schedule.transition_stack()
        assert stack.shape == (29, 9, 9)
        # step into slot 8 follows regime 1; step into slot 7 the base
        assert np.array_equal(stack[6], chain9.transition_matrix)
        assert np.array_equal(stack[7], regime9.transition_matrix)

    def test_sparse_chains_compile_to_dense_stack(self, chain9, regime9, grid9):
        """Regression: ``compile`` densifies through ``dense_transition()``,
        so sparse base/regime chains yield the same per-slot stack as their
        dense twins instead of leaking CSR objects into ``matrices``."""
        from repro.mobility import SparseMarkovChain

        events = (RegimeSwitch(slot=5, regime=1),)
        kwargs = dict(
            horizon=12,
            n_cells=9,
            n_users=4,
            base_capacities=grid9.base_capacities(),
        )
        sparse_schedule = Timeline(
            events=events,
            regime_chains=(SparseMarkovChain.from_chain(regime9),),
        ).compile(base_chain=SparseMarkovChain.from_chain(chain9), **kwargs)
        dense_schedule = Timeline(
            events=events, regime_chains=(regime9,)
        ).compile(base_chain=chain9, **kwargs)
        for matrix in sparse_schedule.matrices:
            assert isinstance(matrix, np.ndarray)
        assert np.array_equal(
            sparse_schedule.transition_stack(), dense_schedule.transition_stack()
        )

    def test_siteup_restores_declared_capacity(self, chain9, grid9):
        timeline = Timeline(
            events=(
                CapacityChange(slot=2, cell=0, capacity=7),
                SiteDown(slot=4, cell=0),
                SiteUp(slot=6, cell=0),
            )
        )
        schedule = timeline.compile(
            horizon=10,
            n_cells=9,
            n_users=1,
            base_capacities=grid9.base_capacities(),
            base_chain=chain9,
        )
        assert schedule.capacities[3, 0] == 7
        assert schedule.capacities[5, 0] == 0
        assert schedule.capacities[6, 0] == 7

    def test_events_beyond_horizon_are_inert(self, chain9, grid9):
        timeline = Timeline(events=(SiteDown(slot=50, cell=0),))
        schedule = timeline.compile(
            horizon=10,
            n_cells=9,
            n_users=1,
            base_capacities=grid9.base_capacities(),
            base_chain=chain9,
        )
        assert schedule.is_static

    @pytest.mark.parametrize(
        "events, message",
        [
            ((UserArrival(slot=50, user=0),), "never be active"),
            (
                (UserArrival(slot=3, user=0), UserArrival(slot=5, user=0)),
                "more than one",
            ),
            ((UserDeparture(slot=0, user=0),), "empty activity window"),
            (
                (UserArrival(slot=5, user=0), UserDeparture(slot=3, user=0)),
                "empty activity window",
            ),
            ((SiteDown(slot=1, cell=99),), "outside the topology"),
            ((UserDeparture(slot=1, user=7),), "outside the fleet"),
            ((RegimeSwitch(slot=1, regime=3),), "undefined"),
        ],
    )
    def test_compile_rejects_bad_timelines(self, chain9, grid9, events, message):
        with pytest.raises(ValueError, match=message):
            Timeline(events=events).compile(
                horizon=10,
                n_cells=9,
                n_users=2,
                base_capacities=grid9.base_capacities(),
                base_chain=chain9,
            )

    def test_regime_chain_state_count_validated(self, chain9, grid9):
        other = paper_synthetic_models(10, seed=1)["non-skewed"]
        with pytest.raises(ValueError, match="states"):
            Timeline(
                events=(RegimeSwitch(slot=1, regime=1),), regime_chains=(other,)
            ).compile(
                horizon=10,
                n_cells=9,
                n_users=1,
                base_capacities=grid9.base_capacities(),
                base_chain=chain9,
            )


class TestGenerators:
    def test_periodic_regimes(self):
        events = periodic_regime_events(100, 25, 2)
        assert [(e.slot, e.regime) for e in events] == [(25, 1), (50, 0), (75, 1)]

    def test_poisson_failures_deterministic_and_paired(self):
        events = poisson_site_failures(60, 9, 0.3, seed=5, mean_downtime=4)
        assert events == poisson_site_failures(60, 9, 0.3, seed=5, mean_downtime=4)
        downs = [e for e in events if isinstance(e, SiteDown)]
        ups = [e for e in events if isinstance(e, SiteUp)]
        assert downs, "expected some failures at rate 0.3 over 60 slots"
        assert len(ups) <= len(downs)
        for up in ups:
            assert any(d.cell == up.cell and d.slot < up.slot for d in downs)

    def test_zero_rates_produce_no_events(self):
        assert poisson_site_failures(50, 9, 0.0, seed=1) == ()
        assert random_user_churn(50, 10, 0.0, seed=1) == ()

    def test_churn_windows_always_non_empty(self, chain9, grid9):
        events = random_user_churn(40, 30, 1.0, seed=9)
        schedule = Timeline(events=events).compile(
            horizon=40,
            n_cells=9,
            n_users=30,
            base_capacities=grid9.base_capacities(),
            base_chain=chain9,
        )
        assert np.all(schedule.user_windows[:, 1] > schedule.user_windows[:, 0])

    def test_dynamic_timeline_deterministic(self, regime9):
        kwargs = dict(
            horizon=50,
            n_cells=9,
            n_users=10,
            seed=3,
            regime_chains=(regime9,),
            regime_period=10,
            failure_rate=0.2,
            churn_rate=0.5,
        )
        assert dynamic_timeline(**kwargs) == dynamic_timeline(**kwargs)


# ----------------------------------------------------------------------
# Time-indexed mobility operators
# ----------------------------------------------------------------------


class TestTimeVaryingChain:
    def test_base_stack_matches_static_sampling(self, chain9):
        stack = np.repeat(chain9.transition_matrix[None], 19, axis=0)
        t_static = chain9.sample_trajectory(20, np.random.default_rng(0))
        t_stack = chain9.sample_trajectory(
            20, np.random.default_rng(0), transition_stack=stack
        )
        assert np.array_equal(t_static, t_stack)
        initial = np.array([0, 3, 5])
        uniforms = np.random.default_rng(1).random((3, 19))
        assert np.array_equal(
            chain9.evolve_from_uniforms(initial, uniforms),
            chain9.evolve_from_uniforms(initial, uniforms, transition_stack=stack),
        )

    def test_scalar_and_batch_agree_under_stack(self, chain9, regime9):
        stack = np.stack(
            [
                (regime9 if t % 2 else chain9).transition_matrix
                for t in range(1, 25)
            ]
        )
        scalar = chain9.sample_trajectory(
            25, np.random.default_rng(7), transition_stack=stack
        )
        batched = chain9.sample_trajectories_batch(
            25, [np.random.default_rng(7)], transition_stack=stack
        )[0]
        assert np.array_equal(scalar, batched)

    def test_log_likelihoods_score_the_true_chain(self, chain9, regime9):
        stack = np.repeat(regime9.transition_matrix[None], 9, axis=0)
        traj = chain9.sample_trajectory(10, np.random.default_rng(3))
        scored = chain9.log_likelihoods(traj[None], transition_stack=stack)[0]
        expected = float(chain9.log_stationary[traj[0]]) + float(
            regime9.log_transition_matrix[traj[:-1], traj[1:]].sum()
        )
        assert scored == pytest.approx(expected)

    def test_stack_shape_validated(self, chain9):
        with pytest.raises(ValueError, match="transition_stack"):
            chain9.sample_trajectory(
                10,
                np.random.default_rng(0),
                transition_stack=np.eye(9)[None],
            )

    def test_ml_detector_uses_the_stack(self, chain9, regime9):
        # Two observations: one sampled from the base chain, one from the
        # regime chain.  Scoring under the regime stack must rank the
        # regime-generated row higher than scoring under the base chain
        # ranks it.
        rng = np.random.default_rng(11)
        base_row = chain9.sample_trajectory(60, rng)
        regime_row = regime9.sample_trajectory(60, rng)
        observed = np.stack([base_row, regime_row])
        stack = np.repeat(regime9.transition_matrix[None], 59, axis=0)
        static_scores = trajectory_log_likelihoods(chain9, observed)
        stacked_scores = trajectory_log_likelihoods(chain9, observed, stack)
        assert (stacked_scores[1] - stacked_scores[0]) > (
            static_scores[1] - static_scores[0]
        )
        detector = MaximumLikelihoodDetector()
        outcome = detector.detect(
            chain9, observed, np.random.default_rng(0), transition_stack=stack
        )
        assert outcome.scores == pytest.approx(stacked_scores)


# ----------------------------------------------------------------------
# Placement: per-slot capacity views, evictions, churn primitives
# ----------------------------------------------------------------------


class TestDynamicPlacement:
    def test_set_capacities_and_evict(self, grid9):
        engine = PlacementEngine(grid9)
        cells = engine.place_initial(np.array([0, 0, 0, 1]))
        assert list(cells) == [0, 0, 0, 1]
        engine.set_capacities(np.array([1, 4, 4, 4, 4, 4, 4, 4, 4]))
        new_cells, moved = engine.evict_overloaded(
            cells, np.ones(4, dtype=bool)
        )
        # rows 1 and 2 (latest placed on site 0) are pushed to the
        # nearest free site (cell 1: one hop, lowest index, room for
        # both); row 0 keeps its slot.
        assert list(moved) == [1, 2]
        assert new_cells[0] == 0
        assert list(new_cells[[1, 2]]) == [1, 1]
        assert engine.stats.evicted == 2
        assert engine.load[0] == 1
        assert engine.load[1] == 3

    def test_eviction_strands_when_world_is_full(self, chain9):
        topology = MECTopology.ring(3, capacity=1)
        engine = PlacementEngine(topology)
        cells = engine.place_initial(np.array([0, 1, 2]))
        engine.set_capacities(np.array([0, 1, 1]))
        new_cells, moved = engine.evict_overloaded(cells, np.ones(3, dtype=bool))
        assert moved.size == 0
        assert list(new_cells) == [0, 1, 2]
        assert engine.stats.stranded == 1
        assert engine.load[0] == 1  # still on the dead site

    def test_admit_arrivals_spills_and_strands(self):
        topology = MECTopology.ring(3, capacity=1)
        engine = PlacementEngine(topology)
        engine.place_initial(np.array([0]))
        placed = engine.admit_arrivals(np.array([0]))
        assert placed[0] in (1, 2)
        assert engine.stats.spilled == 1
        engine.admit_arrivals(np.array([3 - placed[0]]))  # the last free site
        # deployment now full: a further arrival strands at its request
        stranded = engine.admit_arrivals(np.array([0]))
        assert stranded[0] == 0
        assert engine.stats.stranded == 1
        assert engine.load[0] == 2

    def test_release_frees_slots(self, grid9):
        engine = PlacementEngine(grid9)
        cells = engine.place_initial(np.array([0, 0]))
        engine.release(cells)
        assert engine.load.sum() == 0
        with pytest.raises(ValueError, match="released more"):
            engine.release(np.array([0]))


# ----------------------------------------------------------------------
# Golden seeds: empty timeline == pre-refactor static path, bit for bit
# ----------------------------------------------------------------------

#: Digests pinning the static-path behaviour (same seeds, same configs,
#: both engines and the empty-timeline path all agree).  Regenerated when
#: ``paper_synthetic_models`` moved to SeedSequence-spawned generators
#: (the old ``default_rng(seed + offset)`` streams violated the seeding
#: contract), which re-drew the synthetic chains for every seed.
GOLDEN = {
    "case1": {
        "users": "bbcef84a8897757b",
        "plane": "5ad2a3e8e054c138",
        "cost": "fbacbfe3ea8d5f0e",
        "migrations": 396,
        "placement": {"admitted": 384, "spilled": 28, "rejected": 3},
        "tracking": "6071faff562d4b93",
        "detection": "f5a5fd42d16a2030",
        "total_cost": "1100.0",
    },
    "case2": {
        "users": "f7fc2e9a3fdd3168",
        "plane": "c81e8ac51256ac6f",
        "cost": "5269a1b15bd7fa0b",
        "migrations": 231,
        "placement": {"admitted": 175, "spilled": 68, "rejected": 3},
        "tracking": "a4c9a49169f54437",
        "detection": "17b0761f87b081d5",
        "total_cost": "561.7000000000002",
    },
}


def _golden_case(name: str, chain, topology) -> tuple[FleetSimulation, int]:
    if name == "case1":
        simulation = FleetSimulation(
            topology,
            chain,
            strategy=get_strategy("IM"),
            config=FleetSimulationConfig(n_users=8, horizon=30, n_chaffs=1),
        )
        return simulation, 123
    simulation = FleetSimulation(
        topology,
        chain,
        strategy=get_strategy("ML"),
        policy=DistanceThresholdPolicy(threshold=1),
        cost_model=CostModel(
            migration_cost_per_hop=0.7,
            migration_cost_fixed=0.3,
            communication_cost_per_hop=1.1,
            chaff_running_cost=0.25,
        ),
        config=FleetSimulationConfig(
            n_users=6,
            horizon=25,
            n_chaffs=(0, 1, 2, 1, 0, 2),
            start_cells=(0, 1, 2, 3, 4, 5),
        ),
    )
    return simulation, 777


class TestGoldenSeeds:
    @pytest.mark.parametrize("case", ["case1", "case2"])
    @pytest.mark.parametrize("engine", ["batch", "loop"])
    @pytest.mark.parametrize("timeline", [None, Timeline()])
    def test_empty_timeline_matches_pre_refactor_golden(
        self, chain9, grid9, case, engine, timeline
    ):
        simulation, seed = _golden_case(case, chain9, grid9)
        if timeline is not None:
            simulation = FleetSimulation(
                grid9,
                chain9,
                strategy=simulation.strategies[0],
                policy=simulation.policy,
                cost_model=simulation.cost_model,
                config=simulation.config,
                timeline=timeline,
            )
        report = run_fleet(simulation, seed, engine)
        evaluation = report.evaluate(chain9, MaximumLikelihoodDetector())
        golden = GOLDEN[case]
        assert _digest(report.user_trajectories) == golden["users"]
        assert (
            _digest(
                report.observations.trajectories,
                report.observations.service_ids,
                report.observations.owner_ids,
                report.observations.real_rows,
            )
            == golden["plane"]
        )
        assert _digest(report.per_user_cost) == golden["cost"]
        assert report.total_migrations == golden["migrations"]
        stats = report.placement.as_dict()
        for key, value in golden["placement"].items():
            assert stats[key] == value
        assert stats["evicted"] == 0 and stats["stranded"] == 0
        assert _digest(evaluation.tracking_per_user) == golden["tracking"]
        assert _digest(evaluation.detected_per_user) == golden["detection"]
        assert repr(report.total_cost) == golden["total_cost"]
        assert report.windows is None
        assert report.transition_stack is None

    def test_golden_case2_respects_per_user_strategies(self, chain9, grid9):
        # sanity: the heterogeneous case really exercises mixed budgets
        simulation, seed = _golden_case("case2", chain9, grid9)
        report = simulation.run(seed)
        budgets = simulation.config.chaffs_per_user()
        owners = report.observations.owner_ids
        for user, budget in enumerate(budgets):
            assert int((owners == user).sum()) == 1 + budget


# ----------------------------------------------------------------------
# Engine equivalence under dynamic worlds
# ----------------------------------------------------------------------


def _assert_reports_identical(batch, loop):
    assert np.array_equal(batch.user_trajectories, loop.user_trajectories)
    assert np.array_equal(
        batch.observations.trajectories, loop.observations.trajectories
    )
    assert np.array_equal(batch.observations.real_rows, loop.observations.real_rows)
    assert np.array_equal(batch.windows, loop.windows)
    assert batch.placement.as_dict() == loop.placement.as_dict()
    assert batch.total_migrations == loop.total_migrations
    for ledger_b, ledger_l in zip(batch.ledgers, loop.ledgers, strict=True):
        assert ledger_b.migration_total == ledger_l.migration_total
        assert ledger_b.communication_total == ledger_l.communication_total
        assert ledger_b.chaff_total == ledger_l.chaff_total
        assert ledger_b.migrations == ledger_l.migrations
        assert ledger_b.per_slot_totals == ledger_l.per_slot_totals


class TestDynamicEngineEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 42, 999])
    def test_batch_equals_loop_under_rich_timeline(
        self, chain9, regime9, seed
    ):
        topology = MECTopology.from_grid(GridTopology(3, 3), capacity=3)
        simulation = FleetSimulation(
            topology,
            chain9,
            strategy=get_strategy("IM"),
            config=FleetSimulationConfig(n_users=6, horizon=30, n_chaffs=1),
            timeline=_rich_timeline(regime9),
        )
        batch = simulation.run(seed, engine="batch")
        loop = run_fleet_loop(simulation, seed)
        _assert_reports_identical(batch, loop)
        assert batch.placement.evicted > 0  # the timeline actually bites
        for detector in (MaximumLikelihoodDetector(), RandomGuessDetector()):
            eval_b = batch.evaluate(chain9, detector)
            eval_l = loop.evaluate(chain9, detector)
            assert np.array_equal(eval_b.chosen_rows, eval_l.chosen_rows)
            assert np.array_equal(
                eval_b.tracking_per_user, eval_l.tracking_per_user
            )
            assert np.array_equal(
                eval_b.detected_per_user, eval_l.detected_per_user
            )

    def test_batch_equals_loop_under_generated_timeline(self, chain9, regime9):
        topology = MECTopology.from_grid(GridTopology(3, 3), capacity=3)
        timeline = dynamic_timeline(
            horizon=25,
            n_cells=9,
            n_users=5,
            seed=3,
            regime_chains=(regime9,),
            regime_period=6,
            failure_rate=0.3,
            churn_rate=0.6,
        )
        simulation = FleetSimulation(
            topology,
            chain9,
            strategy=get_strategy("IM"),
            config=FleetSimulationConfig(n_users=5, horizon=25, n_chaffs=1),
            timeline=timeline,
        )
        _assert_reports_identical(
            simulation.run(11, engine="batch"), run_fleet_loop(simulation, 11)
        )

    def test_histories_masked_exactly_on_windows(self, chain9, regime9):
        topology = MECTopology.from_grid(GridTopology(3, 3), capacity=3)
        simulation = FleetSimulation(
            topology,
            chain9,
            strategy=get_strategy("IM"),
            config=FleetSimulationConfig(n_users=6, horizon=30, n_chaffs=1),
            timeline=_rich_timeline(regime9),
        )
        report = simulation.run(0)
        slots = np.arange(30)
        live = (report.windows[:, :1] <= slots) & (slots < report.windows[:, 1:])
        assert np.all((report.observations.trajectories >= 0) == live)

    def test_inactive_slots_accrue_no_cost(self, chain9, regime9):
        topology = MECTopology.from_grid(GridTopology(3, 3), capacity=4)
        timeline = Timeline(
            events=(UserArrival(slot=10, user=0), UserDeparture(slot=20, user=0))
        )
        simulation = FleetSimulation(
            topology,
            chain9,
            strategy=get_strategy("IM"),
            config=FleetSimulationConfig(n_users=3, horizon=30, n_chaffs=1),
            timeline=timeline,
        )
        report = simulation.run(2)
        per_slot = report.ledgers[0].per_slot_totals
        assert per_slot[9] == 0.0  # nothing before arrival
        assert per_slot[29] == per_slot[20]  # nothing after departure
        assert report.ledgers[0].total > 0  # but the window itself is charged

    def test_monte_carlo_sharding_under_timeline(self, chain9, regime9):
        topology = MECTopology.from_grid(GridTopology(3, 3), capacity=3)
        simulation = FleetSimulation(
            topology,
            chain9,
            strategy=get_strategy("IM"),
            config=FleetSimulationConfig(n_users=5, horizon=25, n_chaffs=1),
            timeline=dynamic_timeline(
                horizon=25,
                n_cells=9,
                n_users=5,
                seed=3,
                regime_chains=(regime9,),
                regime_period=6,
                failure_rate=0.3,
                churn_rate=0.6,
            ),
        )
        serial = run_fleet_monte_carlo(simulation, n_runs=6, seed=5, workers=1)
        sharded = run_fleet_monte_carlo(
            simulation, n_runs=6, seed=5, workers=WORKERS
        )
        assert np.array_equal(serial.tracking_runs, sharded.tracking_runs)
        assert np.array_equal(serial.detection_runs, sharded.detection_runs)
        assert np.array_equal(serial.cost_runs, sharded.cost_runs)
        assert np.array_equal(serial.evicted_runs, sharded.evicted_runs)
        assert np.array_equal(serial.stranded_runs, sharded.stranded_runs)

    def test_infeasible_initial_world_rejected(self, chain9):
        topology = MECTopology.from_grid(GridTopology(3, 3), capacity=1)
        timeline = Timeline(
            events=(SiteDown(slot=0, cell=0), SiteDown(slot=0, cell=1))
        )
        with pytest.raises(ValueError, match="slot 0"):
            FleetSimulation(
                topology,
                chain9,
                strategy=get_strategy("IM"),
                config=FleetSimulationConfig(n_users=4, horizon=10, n_chaffs=1),
                timeline=timeline,
            )

    def test_late_arrivals_relax_initial_feasibility(self, chain9):
        # 4 users x 2 services on 8 slots fits only because one user
        # arrives after another departed.
        topology = MECTopology.from_grid(GridTopology(2, 2), capacity=2)
        timeline = Timeline(
            events=(UserArrival(slot=6, user=3), UserDeparture(slot=4, user=0))
        )
        simulation = FleetSimulation(
            topology,
            paper_synthetic_models(4, seed=2017)["non-skewed"],
            strategy=get_strategy("IM"),
            config=FleetSimulationConfig(n_users=4, horizon=12, n_chaffs=1),
            timeline=timeline,
        )
        _assert_reports_identical(
            simulation.run(1, engine="batch"), run_fleet_loop(simulation, 1)
        )


# ----------------------------------------------------------------------
# The registered dynamic experiment
# ----------------------------------------------------------------------


def _small_dynamic_config(**overrides) -> DynamicExperimentConfig:
    base = dict(
        n_users=6,
        n_cells=9,
        site_capacity=3,
        horizon=16,
        n_runs=2,
        regime_period=5,
        failure_sweep=(0.0, 0.3),
        churn_sweep=(0.0, 0.5),
    )
    base.update(overrides)
    return DynamicExperimentConfig(**base)


class TestDynamicExperiment:
    def test_runs_and_reports_both_sweeps(self):
        result = run_experiment("dynamic", _small_dynamic_config())
        assert result.experiment_id == "dynamic"
        assert len(result.groups) == 2
        for series_list in result.groups.values():
            labels = [series.label for series in series_list]
            assert "detection-accuracy" in labels
            assert "forced-evictions" in labels
        assert "detection_at_max_failure_rate" in result.scalars

    def test_engine_and_workers_equivalence(self):
        base = run_experiment("dynamic", _small_dynamic_config())
        with loop_engine():
            loop = run_experiment("dynamic", _small_dynamic_config())
        pooled = run_experiment("dynamic", _small_dynamic_config(workers=WORKERS))
        assert base.scalars == loop.scalars
        assert base.scalars == pooled.scalars
        for name in base.groups:
            for series_b, series_o in zip(base.groups[name], loop.groups[name], strict=True):
                assert series_b.values == series_o.values
            for series_b, series_o in zip(base.groups[name], pooled.groups[name], strict=True):
                assert series_b.values == series_o.values

    def test_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = _small_dynamic_config()
        first = run_experiment("dynamic", config, cache=cache)
        assert cache.misses == 1
        again = run_experiment("dynamic", config, cache=cache)
        assert cache.hits == 1
        assert again.scalars == first.scalars

    def test_config_round_trip_and_validation(self):
        config = _small_dynamic_config()
        assert DynamicExperimentConfig.from_dict(config.to_dict()) == config
        with pytest.raises(ValueError, match="churn_rate"):
            DynamicExperimentConfig(churn_rate=1.5)
        with pytest.raises(ValueError, match="service slots"):
            DynamicExperimentConfig(n_users=500, n_cells=4, site_capacity=2)

    def test_cli_fleet_flags_switch_to_dynamic(self, capsys):
        from repro.cli import main

        code = main(
            [
                "fleet",
                "--users",
                "6",
                "--cells",
                "9",
                "--capacity",
                "3",
                "--runs",
                "1",
                "--horizon",
                "12",
                "--failure-rate",
                "0.2",
                "--churn-rate",
                "0.3",
                "--no-cache",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[dynamic]" in out
        assert "failure-rate" in out


class TestReviewRegressions:
    """Regressions for review findings on the dynamic-world refactor."""

    def test_stack_unaware_detector_raises_cleanly(self, chain9, regime9):
        # A regime-only (unmasked) report handed to the Section VI-A
        # eavesdropper: it scores the time-varying chain and evaluates
        # cleanly.  (Every detector is a row_scores transform that takes
        # the transition stack, so a stack-unaware detector cannot be
        # defined any more.)
        from repro.core.eavesdropper.advanced import StrategyAwareDetector

        topology = MECTopology.from_grid(GridTopology(3, 3), capacity=4)
        simulation = FleetSimulation(
            topology,
            chain9,
            strategy=get_strategy("IM"),
            config=FleetSimulationConfig(n_users=3, horizon=12, n_chaffs=1),
            timeline=Timeline(
                events=(RegimeSwitch(slot=4, regime=1),), regime_chains=(regime9,)
            ),
        )
        report = simulation.run(0)
        assert report.transition_stack is not None
        evaluation = report.evaluate(
            chain9, StrategyAwareDetector(get_strategy("IM"))
        )
        assert evaluation.chosen_rows.shape == (3,)

    def test_fleet_subcommand_enables_only_requested_dynamics(self):
        # `fleet --failure-rate X` alone must not drag in regime
        # switching or the dynamic experiment's default churn.
        from repro.cli import build_parser, _build_config

        parser = build_parser()
        args = parser.parse_args(
            ["fleet", "--users", "6", "--cells", "9", "--capacity", "3",
             "--failure-rate", "0.1"]
        )
        config = _build_config(args, "dynamic")
        assert config.failure_rate == 0.1
        assert config.churn_rate == 0.0
        assert config.regime_period is None
        assert config.regime_model is None
        # ...while `run dynamic` keeps the experiment's defaults.
        args = parser.parse_args(["run", "dynamic"])
        defaults = DynamicExperimentConfig()
        config = _build_config(args, "dynamic")
        assert config.churn_rate == defaults.churn_rate
        assert config.regime_period == defaults.regime_period

    def test_explicit_zero_rate_still_opts_into_dynamic(self):
        # Flag presence (even at 0) opts into the dynamic experiment;
        # the resulting world simply has no failures.
        from repro.cli import build_parser, _wants_dynamic_world

        parser = build_parser()
        args = parser.parse_args(["fleet", "--failure-rate", "0"])
        assert _wants_dynamic_world(args)
        args = parser.parse_args(["fleet"])
        assert not _wants_dynamic_world(args)

    def test_unsorted_sweeps_report_true_max_scalars(self):
        # With a *descending* sweep the max-rate point is first, not
        # last: the "at_max" scalars must follow the rates, not the
        # listing position.
        result = run_experiment(
            "dynamic", _small_dynamic_config(failure_sweep=(0.3, 0.0),
                                             churn_sweep=(0.5, 0.0))
        )
        failure_group = next(
            series_list
            for name, series_list in result.groups.items()
            if name.startswith("failure-rate")
        )
        by_label = {series.label: series for series in failure_group}
        assert by_label["detection-accuracy"].index[0] == 0.3
        assert (
            result.scalars["detection_at_max_failure_rate"]
            == by_label["detection-accuracy"].values[0]
        )
        assert (
            result.scalars["evictions_at_max_failure_rate"]
            == by_label["forced-evictions"].values[0]
        )
        assert result.scalars["failure_privacy_shift"] == (
            by_label["detection-accuracy"].values[0]
            - by_label["detection-accuracy"].values[1]
        )
        churn_group = next(
            series_list
            for name, series_list in result.groups.items()
            if name.startswith("churn-rate")
        )
        churn_by_label = {series.label: series for series in churn_group}
        assert (
            result.scalars["detection_at_max_churn"]
            == churn_by_label["detection-accuracy"].values[0]
        )
        assert (
            result.scalars["cost_at_max_churn"]
            == churn_by_label["per-user-cost"].values[0]
        )

    def test_cumulative_stack_memoized(self, chain9, regime9):
        stack = np.repeat(regime9.transition_matrix[None], 9, axis=0)
        first = chain9._cumulative_stack(stack, 10)
        assert chain9._cumulative_stack(stack, 10) is first
        other = stack.copy()
        assert chain9._cumulative_stack(other, 10) is not first
