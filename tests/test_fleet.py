"""Tests for the multi-user, capacity-aware fleet layer.

Covers the placement engine (admit / spill / reject semantics, capacity-1
edge cases), simulation-scoped service-id allocation, the corrected
migration-count semantics under zero-cost models, fleet determinism
(batch == the looped oracle of ``tests/reference/``, serial == sharded
Monte-Carlo), per-user
detection scoring against the merged observation plane, and the fleet
experiment + CLI wiring.

The worker count for the sharded-equivalence tests is taken from
``REPRO_TEST_WORKERS`` (default 2) so CI can pin the process-pool path.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.eavesdropper.detector import (
    MaximumLikelihoodDetector,
    RandomGuessDetector,
)
from repro.core.strategies import get_strategy
from repro.experiments.fleet import grid_dimensions, run_fleet_experiment
from repro.experiments.registry import run_experiment
from repro.mec.costs import CostModel
from repro.mec.fleet import (
    FleetObservationPlane,
    FleetSimulation,
    FleetSimulationConfig,
    run_fleet_monte_carlo,
)
from repro.mec.placement import PlacementEngine, _WalkLoads
from repro.mec.service import ServiceInstance, ServiceKind
from repro.mec.topology import MECTopology
from repro.mobility.grid import GridTopology
from repro.mobility.models import paper_synthetic_models
from repro.sim.cache import ResultCache
from repro.sim.config import FleetExperimentConfig

from reference import loop_engine, run_fleet, run_fleet_loop
from reference.single_user import (
    ChaffOrchestrator,
    EavesdropperObserver,
    MECSimulation,
    MECSimulationConfig,
    MigrationEngine,
    ServiceIdAllocator,
)

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))

ZERO_COSTS = CostModel(
    migration_cost_per_hop=0.0,
    migration_cost_fixed=0.0,
    communication_cost_per_hop=0.0,
    chaff_running_cost=0.0,
)


@pytest.fixture(scope="module")
def chain():
    return paper_synthetic_models(10, seed=2017)["non-skewed"]


def _fleet(
    chain,
    *,
    n_users=6,
    horizon=25,
    n_chaffs=1,
    capacity=4,
    strategy="IM",
    cost_model=None,
    **config_kwargs,
):
    topology = MECTopology.from_grid(GridTopology(2, 5), capacity=capacity)
    config = FleetSimulationConfig(
        n_users=n_users, horizon=horizon, n_chaffs=n_chaffs, **config_kwargs
    )
    return FleetSimulation(
        topology,
        chain,
        strategy=get_strategy(strategy) if strategy else None,
        cost_model=cost_model,
        config=config,
    )


class TestPlacementEngine:
    def test_admits_when_capacity_free(self):
        engine = PlacementEngine(MECTopology.ring(4, capacity=2))
        placed = engine.place_initial(np.array([0, 0, 1]))
        assert placed.tolist() == [0, 0, 1]
        assert engine.stats.as_dict() == {
            "admitted": 3,
            "spilled": 0,
            "rejected": 0,
            "evicted": 0,
            "stranded": 0,
        }

    def test_full_site_spills_to_nearest_neighbor(self):
        engine = PlacementEngine(MECTopology.ring(5, capacity=1))
        placed = engine.place_initial(np.array([0, 0]))
        # Ring of 5: cells 1 and 4 are both one hop from 0; ties break
        # towards the lowest cell index.
        assert placed.tolist() == [0, 1]
        assert engine.stats.spilled == 1

    def test_instantiation_raises_when_deployment_full(self):
        engine = PlacementEngine(MECTopology.ring(3, capacity=1))
        with pytest.raises(ValueError, match="deployment is full"):
            engine.place_initial(np.array([0, 1, 2, 0]))

    def test_migration_into_full_site_spills(self):
        engine = PlacementEngine(MECTopology.ring(5, capacity=1))
        current = engine.place_initial(np.array([0, 2]))
        placed = engine.resolve_moves(current, np.array([0, 0]))
        # Service 1 wants full cell 0; nearest free cells from 0 are 1/4,
        # tie towards 1.
        assert placed.tolist() == [0, 1]
        assert engine.stats.spilled == 1
        assert engine.load.tolist() == [1, 1, 0, 0, 0]

    def test_rejected_when_everything_full(self):
        engine = PlacementEngine(MECTopology.ring(3, capacity=1))
        current = engine.place_initial(np.array([0, 1, 2]))
        placed = engine.resolve_moves(current, np.array([1, 1, 1]))
        # All sites full: nobody can move anywhere (the nearest "free"
        # site is never an improvement), so every request is rejected.
        assert placed.tolist() == [0, 1, 2]
        assert engine.stats.rejected == 2  # services 0 and 2 asked to move
        assert engine.load.tolist() == [1, 1, 1]

    def test_greedy_id_order_is_deterministic(self):
        # Two services contend for the single slot on cell 1: the lower
        # service id wins; the loser spills to the nearest free site —
        # cell 0, just vacated by the winner (moves are atomic, so a slot
        # freed by an *earlier* service is visible), beating cell 2 on
        # the tiebreak.
        engine = PlacementEngine(MECTopology.ring(6, capacity=1))
        current = engine.place_initial(np.array([0, 3]))
        placed = engine.resolve_moves(current, np.array([1, 1]))
        assert placed.tolist() == [1, 0]
        assert engine.stats.as_dict() == {
            "admitted": 3,
            "spilled": 1,
            "rejected": 0,
            "evicted": 0,
            "stranded": 0,
        }

    def test_fast_path_matches_sequential_semantics(self):
        # Uncontended slot: every arrival fits, the bincount fast path
        # must leave load identical to per-service resolution.
        engine = PlacementEngine(MECTopology.ring(6, capacity=2))
        current = engine.place_initial(np.array([0, 1, 2, 3]))
        placed = engine.resolve_moves(current, np.array([1, 2, 3, 4]))
        assert placed.tolist() == [1, 2, 3, 4]
        assert engine.load.tolist() == [0, 1, 1, 1, 1, 0]
        assert engine.stats.rejected == 0

    def test_capacity_one_chain_topology(self):
        # Capacity-1 line: a service can only ever sit alone on a site.
        adjacency = np.zeros((3, 3), dtype=bool)
        adjacency[0, 1] = adjacency[1, 0] = True
        adjacency[1, 2] = adjacency[2, 1] = True
        topology = MECTopology(
            sites=[
                type(MECTopology.ring(2).sites[0])(cell=i, capacity=1)
                for i in range(3)
            ],
            adjacency=adjacency,
        )
        engine = PlacementEngine(topology)
        placed = engine.place_initial(np.array([1, 1, 1]))
        assert sorted(placed.tolist()) == [0, 1, 2]
        for slot_load in engine.load:
            assert slot_load == 1


class TestServiceIdAllocator:
    def test_sequential_ids(self):
        allocator = ServiceIdAllocator()
        assert [allocator.allocate() for _ in range(3)] == [0, 1, 2]
        with pytest.raises(ValueError):
            ServiceIdAllocator(next_id=-1)

    def test_orchestrators_share_an_allocator(self, chain, rng):
        allocator = ServiceIdAllocator()
        real_id = allocator.allocate()
        first = ChaffOrchestrator(
            get_strategy("IM"), chain, n_chaffs=2, allocator=allocator
        )
        second = ChaffOrchestrator(
            get_strategy("IM"), chain, n_chaffs=2, allocator=allocator
        )
        topology = MECTopology.complete(chain.n_states)
        from repro.mec.costs import CostModel as _CostModel
        from repro.mec.policies import AlwaysFollowPolicy

        engine = MigrationEngine(
            topology=topology, policy=AlwaysFollowPolicy(), cost_model=_CostModel()
        )
        user = chain.sample_trajectory(5, rng)
        services = first.instantiate(first.plan(0, user, rng), engine)
        services += second.instantiate(second.plan(1, user, rng), engine)
        ids = [real_id] + [service.service_id for service in services]
        assert ids == [0, 1, 2, 3, 4]

    def test_single_user_simulation_ids_stay_compatible(self, chain, rng):
        simulation = MECSimulation(
            MECTopology.complete(chain.n_states),
            chain,
            strategy=get_strategy("IM"),
            config=MECSimulationConfig(horizon=10, n_chaffs=2),
        )
        report = simulation.run(rng)
        assert report.real_service.service_id == 0
        assert [chaff.service_id for chaff in report.chaff_services] == [1, 2]


class TestObserverUniqueIds:
    def test_duplicate_service_ids_rejected(self, rng):
        services = []
        for service_id in (0, 1, 1):
            service = ServiceInstance(service_id, 0, ServiceKind.CHAFF, cell=0)
            service.location_history = [0, 1]
            services.append(service)
        services[0].kind = ServiceKind.REAL
        with pytest.raises(ValueError, match="unique ids"):
            EavesdropperObserver().observe(services, 0, rng)

    def test_fleet_plane_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="unique ids"):
            FleetObservationPlane(
                trajectories=np.zeros((2, 3), dtype=np.int64),
                service_ids=np.array([5, 5]),
                owner_ids=np.array([0, 1]),
                real_rows=np.array([0, 1]),
            )


class TestFleetConfig:
    def test_heterogeneous_budgets(self):
        config = FleetSimulationConfig(n_users=3, n_chaffs=(0, 2, 1))
        assert config.chaffs_per_user() == (0, 2, 1)
        assert config.n_services == 6

    def test_budget_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FleetSimulationConfig(n_users=3, n_chaffs=(1, 1))

    def test_start_cells_length_checked(self):
        with pytest.raises(ValueError):
            FleetSimulationConfig(n_users=2, start_cells=(0,))

    def test_capacity_validated_at_construction(self, chain):
        topology = MECTopology.ring(10, capacity=1)
        with pytest.raises(ValueError, match="service slots"):
            FleetSimulation(
                topology,
                chain,
                strategy=get_strategy("IM"),
                config=FleetSimulationConfig(n_users=10, n_chaffs=1),
            )

    def test_chaffs_require_a_strategy(self, chain):
        topology = MECTopology.ring(10, capacity=8)
        with pytest.raises(ValueError, match="no chaff strategy"):
            FleetSimulation(
                topology,
                chain,
                strategy=None,
                config=FleetSimulationConfig(n_users=2, n_chaffs=1),
            )


class TestFleetSimulation:
    def test_capacity_respected_at_every_slot(self, chain):
        capacity = 2
        simulation = _fleet(
            chain, n_users=8, horizon=30, n_chaffs=1, capacity=capacity
        )
        report = simulation.run(42)
        occupancy = np.stack(
            [service.location_history for service in report.services]
        )
        for slot in range(report.horizon):
            counts = np.bincount(occupancy[:, slot], minlength=10)
            assert counts.max() <= capacity
        assert report.placement.rejected > 0  # 16 services on 20 slots: tight

    def test_batch_and_loop_engines_bit_identical(self, chain):
        simulation = _fleet(
            chain, n_users=7, horizon=20, n_chaffs=(0, 1, 2, 1, 0, 3, 1), capacity=3
        )
        batch = simulation.run(11, engine="batch")
        loop = run_fleet_loop(simulation, 11)
        assert np.array_equal(batch.user_trajectories, loop.user_trajectories)
        assert np.array_equal(
            batch.observations.trajectories, loop.observations.trajectories
        )
        assert np.array_equal(
            batch.observations.real_rows, loop.observations.real_rows
        )
        assert batch.placement.as_dict() == loop.placement.as_dict()
        assert batch.ledgers == loop.ledgers
        assert [s.migration_count for s in batch.services] == [
            s.migration_count for s in loop.services
        ]

    def test_same_seed_sequence_bit_identical(self, chain):
        simulation = _fleet(chain, n_users=5, horizon=15)
        seed = np.random.SeedSequence(321)
        first = simulation.run(seed)
        second = simulation.run(np.random.SeedSequence(321))
        assert np.array_equal(first.user_trajectories, second.user_trajectories)
        assert np.array_equal(
            first.observations.trajectories, second.observations.trajectories
        )
        assert first.ledgers == second.ledgers
        first_eval = first.evaluate(chain, MaximumLikelihoodDetector())
        second_eval = second.evaluate(chain, MaximumLikelihoodDetector())
        assert np.array_equal(first_eval.chosen_rows, second_eval.chosen_rows)

    def test_zero_cost_model_still_counts_migrations(self, chain):
        for engine in ("batch", "loop"):
            simulation = _fleet(
                chain, n_users=5, horizon=20, cost_model=ZERO_COSTS
            )
            report = run_fleet(simulation, 99, engine)
            total_from_services = sum(
                service.migration_count for service in report.services
            )
            assert report.total_migrations == total_from_services
            assert report.total_migrations > 0
            assert report.total_cost == 0.0

    def test_default_cost_model_counts_match_services(self, chain):
        report = _fleet(chain, n_users=5, horizon=20).run(99)
        per_user = {user: 0 for user in range(5)}
        for service in report.services:
            per_user[service.owner_id] += service.migration_count
        for user, ledger in enumerate(report.ledgers):
            assert ledger.migrations == per_user[user]

    def test_start_cells_honoured_when_capacity_allows(self, chain):
        simulation = _fleet(
            chain,
            n_users=4,
            horizon=10,
            n_chaffs=0,
            strategy=None,
            capacity=4,
            start_cells=(3, 1, 4, 1),
        )
        report = simulation.run(5)
        assert report.user_trajectories[:, 0].tolist() == [3, 1, 4, 1]

    def test_per_user_strategies(self, chain):
        topology = MECTopology.from_grid(GridTopology(2, 5), capacity=4)
        config = FleetSimulationConfig(n_users=3, horizon=12, n_chaffs=(1, 2, 0))
        simulation = FleetSimulation(
            topology,
            chain,
            strategy=(get_strategy("IM"), get_strategy("ML"), None),
            config=config,
        )
        batch = simulation.run(8, engine="batch")
        loop = run_fleet_loop(simulation, 8)
        assert np.array_equal(
            batch.observations.trajectories, loop.observations.trajectories
        )
        assert batch.observations.n_services == 6

    def test_observation_plane_ground_truth(self, chain):
        simulation = _fleet(
            chain, n_users=4, horizon=10, shuffle_observations=True
        )
        report = simulation.run(77)
        plane = report.observations
        assert plane.n_services == 8
        assert np.unique(plane.service_ids).size == 8
        for user in range(4):
            row = int(plane.real_rows[user])
            assert plane.owner_ids[row] == user
            assert np.array_equal(
                plane.trajectories[row], report.user_trajectories[user]
            )

    def test_ledger_per_slot_totals(self, chain):
        report = _fleet(chain, n_users=3, horizon=8).run(13)
        for ledger in report.ledgers:
            assert ledger.slots == 8
            assert len(ledger.per_slot_totals) == 8
            assert ledger.per_slot_totals[-1] == pytest.approx(ledger.total)


class TestFleetEvaluation:
    def test_per_user_scoring_against_the_crowd(self, chain):
        simulation = _fleet(chain, n_users=6, horizon=25)
        report = simulation.run(55)
        evaluation = report.evaluate(chain, MaximumLikelihoodDetector())
        assert evaluation.chosen_rows.shape == (6,)
        assert evaluation.tracking_per_user.shape == (6,)
        assert np.all(evaluation.tracking_per_user >= 0)
        assert np.all(evaluation.tracking_per_user <= 1)
        # Detection per user equals "the chosen row is that user's real
        # service" against the merged plane.
        for user in range(6):
            expected = float(
                evaluation.chosen_rows[user]
                == report.observations.real_rows[user]
            )
            assert evaluation.detected_per_user[user] == expected

    def test_crowd_blending_shrinks_detection(self, chain):
        """Per-user detection in a crowd of M statistically identical
        users is ~1/N — far below the single-user 1/2 baseline."""
        topology = MECTopology.from_grid(GridTopology(2, 5), capacity=20)
        config = FleetSimulationConfig(n_users=20, horizon=40, n_chaffs=1)
        simulation = FleetSimulation(
            topology, chain, strategy=get_strategy("IM"), config=config
        )
        stats = run_fleet_monte_carlo(simulation, n_runs=5, seed=3)
        assert stats.mean_detection < 0.25

    def test_detect_crowd_matches_broadcast_batch(self, chain):
        """The ML score-once override must pick the same rows as the
        generic broadcast-into-detect_batch path."""
        from repro.core.eavesdropper.detector import TrajectoryDetector
        from repro.sim.seeding import spawn_generators

        report = _fleet(chain, n_users=5, horizon=15).run(61)
        crowd = report.observations.trajectories
        detector = MaximumLikelihoodDetector()
        fast = detector.detect_crowd(chain, crowd, spawn_generators(4, 5))
        generic = TrajectoryDetector.detect_crowd(
            detector, chain, crowd, spawn_generators(4, 5)
        )
        assert np.array_equal(fast, generic)

    def test_random_guess_detector_supported(self, chain):
        report = _fleet(chain, n_users=4, horizon=10).run(21)
        evaluation = report.evaluate(chain, RandomGuessDetector())
        assert evaluation.chosen_rows.shape == (4,)

    def test_evaluate_requires_a_seed_source(self, chain):
        report = _fleet(chain, n_users=2, horizon=5).run(1)
        report.evaluation_seed = None
        with pytest.raises(ValueError, match="evaluation seed"):
            report.evaluate(chain, MaximumLikelihoodDetector())


class TestFleetMonteCarlo:
    def test_serial_equals_sharded(self, chain):
        simulation = _fleet(chain, n_users=5, horizon=15, capacity=3)
        serial = run_fleet_monte_carlo(simulation, n_runs=6, seed=17, workers=1)
        sharded = run_fleet_monte_carlo(
            simulation, n_runs=6, seed=17, workers=WORKERS
        )
        assert np.array_equal(serial.tracking_runs, sharded.tracking_runs)
        assert np.array_equal(serial.detection_runs, sharded.detection_runs)
        assert np.array_equal(serial.cost_runs, sharded.cost_runs)
        assert np.array_equal(serial.migrations_runs, sharded.migrations_runs)
        assert np.array_equal(serial.rejected_runs, sharded.rejected_runs)

    def test_loop_engine_through_the_shards(self, chain):
        simulation = _fleet(chain, n_users=4, horizon=10)
        batch = run_fleet_monte_carlo(
            simulation, n_runs=4, seed=23, workers=WORKERS, engine="batch"
        )
        with loop_engine():
            loop = run_fleet_monte_carlo(simulation, n_runs=4, seed=23, workers=1)
        assert np.array_equal(batch.tracking_runs, loop.tracking_runs)
        assert np.array_equal(batch.cost_runs, loop.cost_runs)

    def test_aggregate_properties(self, chain):
        simulation = _fleet(chain, n_users=4, horizon=10)
        stats = run_fleet_monte_carlo(simulation, n_runs=3, seed=29)
        assert stats.n_runs == 3
        assert stats.n_users == 4
        assert stats.tracking_per_user.shape == (4,)
        assert stats.mean_cost_per_user == pytest.approx(stats.cost_runs.mean())

    def test_invalid_runs_rejected(self, chain):
        simulation = _fleet(chain, n_users=2, horizon=5)
        with pytest.raises(ValueError):
            run_fleet_monte_carlo(simulation, n_runs=0, seed=1)


class TestFleetExperiment:
    def _config(self) -> FleetExperimentConfig:
        return FleetExperimentConfig(
            n_users=8,
            n_cells=10,
            site_capacity=4,
            horizon=12,
            n_runs=2,
            population_sweep=(4, 8),
            capacity_sweep=(2, 4),
        )

    def test_grid_dimensions(self):
        assert grid_dimensions(25) == (5, 5)
        assert grid_dimensions(10) == (2, 5)
        assert grid_dimensions(7) == (1, 7)
        with pytest.raises(ValueError):
            grid_dimensions(0)

    def test_experiment_shape(self):
        result = run_fleet_experiment(self._config())
        assert result.experiment_id == "fleet"
        assert len(result.groups) == 2
        for series_list in result.groups.values():
            labels = [series.label for series in series_list]
            assert labels == [
                "detection-accuracy",
                "tracking-accuracy",
                "per-user-cost",
                "rejected-migrations",
            ]
        assert "crowd_blending_gain" in result.scalars

    def test_workers_do_not_change_the_numbers(self):
        serial = run_fleet_experiment(self._config())
        config = FleetExperimentConfig.from_dict(
            {**self._config().to_dict(), "workers": WORKERS}
        )
        parallel = run_fleet_experiment(config)
        assert serial.to_dict()["groups"] == parallel.to_dict()["groups"]

    def test_engines_do_not_change_the_numbers(self):
        serial = run_fleet_experiment(self._config())
        with loop_engine():
            looped = run_fleet_experiment(self._config())
        assert serial.to_dict()["groups"] == looped.to_dict()["groups"]

    def test_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = self._config()
        first = run_experiment("fleet", config, cache=cache)
        assert cache.hits == 0
        second = run_experiment("fleet", config, cache=cache)
        assert cache.hits == 1
        assert first.to_dict() == second.to_dict()

    def test_config_round_trip(self):
        config = self._config()
        assert FleetExperimentConfig.from_dict(config.to_dict()) == config

    def test_derived_sweeps_are_feasible(self):
        config = FleetExperimentConfig(n_users=50, n_cells=25, site_capacity=8)
        assert max(config.populations()) == 50
        services = 50 * config.services_per_user
        for capacity in config.capacities():
            assert capacity * config.n_cells >= services

    def test_infeasible_config_rejected(self):
        with pytest.raises(ValueError, match="slots"):
            FleetExperimentConfig(n_users=50, n_cells=9, site_capacity=4)

    def test_derived_population_sweep_clamped_to_n_users(self):
        # Tiny fleets: the derived middle point max(3, M // 2) must not
        # exceed the configured population (it used to, crashing at
        # runtime inside the experiment).
        config = FleetExperimentConfig(n_users=2, n_cells=4, site_capacity=1)
        assert config.populations() == (2,)
        result = run_fleet_experiment(
            FleetExperimentConfig(
                n_users=2, n_cells=4, site_capacity=1, horizon=5, n_runs=1
            )
        )
        assert result.experiment_id == "fleet"

    def test_explicit_sweep_points_validated(self):
        with pytest.raises(ValueError, match="population sweep point"):
            FleetExperimentConfig(
                n_users=8, n_cells=10, site_capacity=2, population_sweep=(8, 80)
            )
        with pytest.raises(ValueError, match="capacity sweep point"):
            FleetExperimentConfig(
                n_users=50, n_cells=25, site_capacity=8, capacity_sweep=(1,)
            )
        with pytest.raises(ValueError, match="non-empty|positive"):
            FleetExperimentConfig(population_sweep=())


class TestFleetCLI:
    def test_fleet_subcommand(self, capsys, tmp_path):
        from repro.cli import main

        code = main(
            [
                "fleet",
                "--users",
                "6",
                "--cells",
                "10",
                "--capacity",
                "3",
                "--runs",
                "2",
                "--horizon",
                "10",
                "--no-cache",
                "--output",
                str(tmp_path / "fleet.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[fleet]" in out
        assert (tmp_path / "fleet.json").exists()

    def test_run_fleet_uses_generic_flags(self, capsys):
        from repro.cli import main

        code = main(["run", "fleet", "--runs", "2", "--horizon", "8", "--no-cache"])
        assert code == 0
        assert "[fleet]" in capsys.readouterr().out


class TestSaturatedTopology:
    """Satellites: a fully saturated deployment, exact stats accounting."""

    def test_every_request_rejected_when_saturated(self):
        # Complete graph, capacity 1, every site occupied: any move
        # request targets a full site and no free site exists, so every
        # single request is rejected and nothing moves.
        topology = MECTopology.complete(4, capacity=1)
        engine = PlacementEngine(topology)
        current = engine.place_initial(np.array([0, 1, 2, 3]))
        assert engine.stats.as_dict() == {
            "admitted": 4,
            "spilled": 0,
            "rejected": 0,
            "evicted": 0,
            "stranded": 0,
        }
        for _slot in range(3):
            desired = np.roll(current, 1)  # everyone wants a neighbour
            placed = engine.resolve_moves(current, desired)
            assert placed.tolist() == current.tolist()
        assert engine.stats.as_dict() == {
            "admitted": 4,
            "spilled": 0,
            "rejected": 12,
            "evicted": 0,
            "stranded": 0,
        }
        assert engine.load.tolist() == [1, 1, 1, 1]

    def test_saturated_fleet_run_accounts_exactly(self, chain):
        # A fleet that exactly fills a capacity-1 deployment: after the
        # initial placement no service can ever move (every site full),
        # so both engines must report zero migrations and rejected
        # accounting must equal the number of distinct move requests.
        topology = MECTopology.complete(10, capacity=1)
        simulation = FleetSimulation(
            topology,
            chain,
            strategy=get_strategy("IM"),
            config=FleetSimulationConfig(n_users=5, horizon=12, n_chaffs=1),
        )
        for engine_name in ("batch", "loop"):
            report = run_fleet(simulation, 3, engine_name)
            assert report.total_migrations == 0
            stats = report.placement.as_dict()
            assert stats["admitted"] + stats["spilled"] == 10  # instantiation
            assert stats["evicted"] == 0 and stats["stranded"] == 0
            # every observed trajectory is frozen at its initial cell
            plane = report.observations.trajectories
            assert np.all(plane == plane[:, :1])
        batch = simulation.run(3, engine="batch")
        loop = run_fleet_loop(simulation, 3)
        assert batch.placement.as_dict() == loop.placement.as_dict()

    def test_nearest_free_tie_breaking_is_deterministic(self):
        # The first-hit helper must break hop-distance ties towards the
        # lowest cell index (the stable hop order): on a ring of 6 with
        # cell 0 full, cells 1 and 5 are both one hop away -> cell 1
        # wins, repeatably.
        def first_free(engine, cell):
            return _WalkLoads(engine).first_free(cell)

        for _ in range(5):
            engine = PlacementEngine(MECTopology.ring(6, capacity=1))
            engine.place_initial(np.array([0]))
            assert first_free(engine, 0) == 1
        # with cell 1 also full the next candidates are 2 and 5 at
        # distances 2 and 1: distance wins over index.
        engine = PlacementEngine(MECTopology.ring(6, capacity=1))
        engine.place_initial(np.array([0, 1]))
        assert first_free(engine, 0) == 5
        # equidistant free sites on a complete graph: lowest index wins.
        engine = PlacementEngine(MECTopology.complete(5, capacity=1))
        engine.place_initial(np.array([0]))
        assert first_free(engine, 0) == 1
        # and the choice is stable under permuted load histories that
        # leave the same free set.
        engine = PlacementEngine(MECTopology.complete(5, capacity=1))
        engine.place_initial(np.array([0, 3]))
        assert first_free(engine, 3) == 1
        # a full deployment answers None without scanning.
        engine = PlacementEngine(MECTopology.complete(3, capacity=1))
        engine.place_initial(np.array([0, 1, 2]))
        assert first_free(engine, 0) is None


class TestSingleUserEquivalence:
    """M=1 empty-timeline fleet == the single-user ``MECSimulation`` oracle.

    The regression anchor of the dynamic-world refactor: one user on an
    uncontended deployment must reproduce the single-user simulator's
    privacy and cost numbers bit-identically (the fleet's user stream is
    child 0 of the run seed; tie-free strategies keep the detector
    decisions deterministic).
    """

    @pytest.mark.parametrize("strategy_name", ["ML", "MO"])
    @pytest.mark.parametrize("engine", ["batch", "loop"])
    def test_m1_fleet_reproduces_single_user_simulation(
        self, chain, strategy_name, engine
    ):
        from repro.sim.seeding import as_seed_sequence

        seed = 424
        topology = MECTopology.from_grid(GridTopology(2, 5), capacity=16)
        strategy = get_strategy(strategy_name)
        fleet = FleetSimulation(
            topology,
            chain,
            strategy=strategy,
            config=FleetSimulationConfig(
                n_users=1, horizon=40, n_chaffs=2, shuffle_observations=False
            ),
        )
        fleet_report = run_fleet(fleet, seed, engine)
        single = MECSimulation(
            topology,
            chain,
            strategy=strategy,
            config=MECSimulationConfig(
                horizon=40, n_chaffs=2, shuffle_observations=False
            ),
        )
        rng = np.random.default_rng(as_seed_sequence(seed).spawn(3)[0])
        single_report = single.run(rng)
        assert np.array_equal(
            fleet_report.user_trajectories[0], single_report.user_trajectory
        )
        assert np.array_equal(
            fleet_report.observations.trajectories,
            single_report.observations.trajectories,
        )
        fleet_ledger = fleet_report.ledgers[0]
        single_ledger = single_report.ledger
        assert fleet_ledger.migration_total == single_ledger.migration_total
        assert fleet_ledger.communication_total == single_ledger.communication_total
        assert fleet_ledger.chaff_total == single_ledger.chaff_total
        assert fleet_ledger.migrations == single_ledger.migrations
        assert fleet_ledger.per_slot_totals == single_ledger.per_slot_totals
        fleet_eval = fleet_report.evaluate(chain, MaximumLikelihoodDetector())
        single_eval = single_report.evaluate(
            chain, MaximumLikelihoodDetector(), np.random.default_rng(0)
        )
        assert fleet_eval.tracking_per_user[0] == single_eval["tracking_accuracy"]
        assert fleet_eval.detected_per_user[0] == single_eval["detection_accuracy"]
        assert fleet_report.total_cost == single_eval["total_cost"]

    def test_m1_no_chaff_fleet_reproduces_single_user(self, chain):
        from repro.sim.seeding import as_seed_sequence

        seed = 99
        topology = MECTopology.from_grid(GridTopology(2, 5), capacity=16)
        fleet = FleetSimulation(
            topology,
            chain,
            config=FleetSimulationConfig(
                n_users=1, horizon=30, n_chaffs=0, shuffle_observations=False
            ),
        )
        fleet_report = fleet.run(seed)
        single = MECSimulation(
            topology,
            chain,
            config=MECSimulationConfig(
                horizon=30, n_chaffs=0, shuffle_observations=False
            ),
        )
        rng = np.random.default_rng(as_seed_sequence(seed).spawn(3)[0])
        single_report = single.run(rng)
        assert np.array_equal(
            fleet_report.user_trajectories[0], single_report.user_trajectory
        )
        assert fleet_report.ledgers[0].per_slot_totals == (
            single_report.ledger.per_slot_totals
        )

    @pytest.mark.parametrize("n_chaffs", [0, 2])
    @pytest.mark.parametrize(
        "policy_name", ["always-follow", "never-migrate", "threshold-1", "mdp"]
    )
    def test_m1_fleet_reproduces_single_user_under_every_policy(
        self, chain, policy_name, n_chaffs
    ):
        """The fleet's vectorised policy decisions == ``policy.decide``.

        ``FleetSimulation._decide_real_targets`` reduces every shipped
        policy to a hop-matrix lookup; the oracle asks the policy object
        slot by slot.
        """
        from repro.mec.policies import (
            AlwaysFollowPolicy,
            DistanceThresholdPolicy,
            MDPMigrationPolicy,
            NeverMigratePolicy,
        )
        from repro.sim.seeding import as_seed_sequence

        topology = MECTopology.ring(10)
        policy = {
            "always-follow": AlwaysFollowPolicy(),
            "never-migrate": NeverMigratePolicy(),
            "threshold-1": DistanceThresholdPolicy(1),
            "mdp": MDPMigrationPolicy(topology, chain, CostModel()),
        }[policy_name]
        strategy = get_strategy("MO") if n_chaffs else None
        fleet = FleetSimulation(
            topology,
            chain,
            strategy=strategy,
            policy=policy,
            config=FleetSimulationConfig(
                n_users=1, horizon=40, n_chaffs=n_chaffs, shuffle_observations=False
            ),
        )
        single = MECSimulation(
            topology,
            chain,
            strategy=strategy,
            policy=policy,
            config=MECSimulationConfig(
                horizon=40, n_chaffs=n_chaffs, shuffle_observations=False
            ),
        )
        for seed in (3, 424, 2017):
            fleet_report = fleet.run(seed)
            rng = np.random.default_rng(as_seed_sequence(seed).spawn(3)[0])
            single_report = single.run(rng)
            assert np.array_equal(
                fleet_report.user_trajectories[0], single_report.user_trajectory
            )
            assert np.array_equal(
                fleet_report.observations.trajectories,
                single_report.observations.trajectories,
            )
            fleet_ledger = fleet_report.ledgers[0]
            single_ledger = single_report.ledger
            assert fleet_ledger.migration_total == single_ledger.migration_total
            assert (
                fleet_ledger.communication_total == single_ledger.communication_total
            )
            assert fleet_ledger.chaff_total == single_ledger.chaff_total
            assert fleet_ledger.migrations == single_ledger.migrations
            assert fleet_ledger.per_slot_totals == single_ledger.per_slot_totals
            assert fleet_report.services[0].migration_count == (
                single_report.real_service.migration_count
            )
            fleet_eval = fleet_report.evaluate(chain, MaximumLikelihoodDetector())
            single_eval = single_report.evaluate(
                chain, MaximumLikelihoodDetector(), np.random.default_rng(0)
            )
            assert fleet_eval.tracking_per_user[0] == single_eval["tracking_accuracy"]
            assert fleet_eval.detected_per_user[0] == single_eval["detection_accuracy"]
            assert fleet_report.total_cost == single_eval["total_cost"]
