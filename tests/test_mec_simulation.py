"""Tests for the single-user MEC oracle: observer, chaff orchestrator and the
end-to-end per-object simulation of ``tests/reference/single_user.py``, which
``tests/test_fleet.py::TestSingleUserEquivalence`` pins the fleet against.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.eavesdropper import MaximumLikelihoodDetector, StrategyAwareDetector
from repro.core.strategies import get_strategy
from repro.mec.costs import CostModel
from repro.mec.policies import AlwaysFollowPolicy
from repro.mec.service import ServiceInstance, ServiceKind
from repro.mec.topology import MECTopology

from reference.single_user import (
    ChaffOrchestrator,
    ChaffPlan,
    EavesdropperObserver,
    MECSimulation,
    MECSimulationConfig,
    MigrationEngine,
    ObservationMatrix,
)


class TestObserver:
    def _services(self, histories):
        services = []
        for index, history in enumerate(histories):
            kind = ServiceKind.REAL if index == 0 else ServiceKind.CHAFF
            service = ServiceInstance(index, 0, kind, cell=history[0])
            service.location_history = list(history)
            services.append(service)
        return services

    def test_observation_shape_and_ground_truth(self, rng):
        services = self._services([[0, 1, 2], [3, 3, 3]])
        observation = EavesdropperObserver(shuffle=False).observe(services, 0, rng)
        assert observation.trajectories.shape == (2, 3)
        assert observation.user_row == 0
        assert np.array_equal(observation.user_trajectory(), [0, 1, 2])

    def test_shuffle_preserves_ground_truth(self):
        services = self._services([[0, 1, 2], [3, 3, 3], [4, 4, 4]])
        rows = set()
        for seed in range(20):
            observation = EavesdropperObserver(shuffle=True).observe(
                services, 0, np.random.default_rng(seed)
            )
            assert np.array_equal(
                observation.trajectories[observation.user_row], [0, 1, 2]
            )
            rows.add(observation.user_row)
        assert len(rows) > 1  # the user's row position actually varies

    def test_rejects_unequal_histories(self, rng):
        services = self._services([[0, 1], [3, 3, 3]])
        with pytest.raises(ValueError):
            EavesdropperObserver().observe(services, 0, rng)

    def test_rejects_unknown_real_service(self, rng):
        services = self._services([[0, 1]])
        with pytest.raises(ValueError):
            EavesdropperObserver().observe(services, 99, rng)

    def test_rejects_empty_histories(self, rng):
        service = ServiceInstance(0, 0, ServiceKind.REAL, cell=0)
        with pytest.raises(ValueError):
            EavesdropperObserver().observe([service], 0, rng)

    def test_observation_matrix_validation(self):
        with pytest.raises(ValueError):
            ObservationMatrix(
                trajectories=np.zeros((2, 3), dtype=np.int64),
                service_ids=np.array([0, 1]),
                user_row=5,
            )


class TestOrchestrator:
    def test_plan_shape(self, random_chain, rng):
        orchestrator = ChaffOrchestrator(get_strategy("IM"), random_chain, n_chaffs=3)
        user = random_chain.sample_trajectory(10, rng)
        plan = orchestrator.plan(owner_id=0, user_trajectory=user, rng=rng)
        assert plan.n_chaffs == 3
        assert plan.horizon == 10

    def test_zero_chaff_plan(self, random_chain, rng):
        orchestrator = ChaffOrchestrator(get_strategy("IM"), random_chain, n_chaffs=0)
        plan = orchestrator.plan(0, random_chain.sample_trajectory(5, rng), rng)
        assert plan.n_chaffs == 0

    def test_instantiate_and_step(self, random_chain, rng):
        topology = MECTopology.complete(random_chain.n_states)
        engine = MigrationEngine(
            topology=topology, policy=AlwaysFollowPolicy(), cost_model=CostModel()
        )
        orchestrator = ChaffOrchestrator(get_strategy("IM"), random_chain, n_chaffs=2)
        user = random_chain.sample_trajectory(6, rng)
        plan = orchestrator.plan(0, user, rng)
        services = orchestrator.instantiate(plan, engine, slot=0)
        assert len(services) == 2
        for slot in range(6):
            orchestrator.step(plan, services, engine, slot)
        for index, service in enumerate(services):
            assert np.array_equal(service.location_history, plan.trajectories[index])

    def test_step_validates_slot(self, random_chain, rng):
        topology = MECTopology.complete(random_chain.n_states)
        engine = MigrationEngine(
            topology=topology, policy=AlwaysFollowPolicy(), cost_model=CostModel()
        )
        orchestrator = ChaffOrchestrator(get_strategy("IM"), random_chain, n_chaffs=1)
        user = random_chain.sample_trajectory(4, rng)
        plan = orchestrator.plan(0, user, rng)
        services = orchestrator.instantiate(plan, engine, slot=0)
        with pytest.raises(ValueError):
            orchestrator.step(plan, services, engine, slot=9)

    def test_step_validates_service_count(self, random_chain, rng):
        topology = MECTopology.complete(random_chain.n_states)
        engine = MigrationEngine(
            topology=topology, policy=AlwaysFollowPolicy(), cost_model=CostModel()
        )
        orchestrator = ChaffOrchestrator(get_strategy("IM"), random_chain, n_chaffs=2)
        user = random_chain.sample_trajectory(4, rng)
        plan = orchestrator.plan(0, user, rng)
        with pytest.raises(ValueError):
            orchestrator.step(plan, [], engine, slot=0)

    def test_chaff_plan_validation(self):
        with pytest.raises(ValueError):
            ChaffPlan(owner_id=-1, trajectories=np.zeros((1, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            ChaffPlan(owner_id=0, trajectories=np.zeros(3, dtype=np.int64))


class TestMECSimulation:
    def test_report_contents(self, random_chain, rng):
        topology = MECTopology.complete(random_chain.n_states)
        simulation = MECSimulation(
            topology,
            random_chain,
            strategy=get_strategy("OO"),
            config=MECSimulationConfig(horizon=20, n_chaffs=1),
        )
        report = simulation.run(rng)
        assert report.horizon == 20
        assert report.observations.n_services == 2
        assert report.total_cost > 0
        assert len(report.chaff_services) == 1
        # The real service follows the user exactly under always-follow.
        assert np.array_equal(
            report.real_service.location_history, report.user_trajectory
        )

    def test_observation_matches_chaff_plan(self, random_chain, rng):
        topology = MECTopology.complete(random_chain.n_states)
        simulation = MECSimulation(
            topology,
            random_chain,
            strategy=get_strategy("CML"),
            config=MECSimulationConfig(horizon=15, n_chaffs=1, shuffle_observations=False),
        )
        report = simulation.run(rng)
        # With shuffling off the first row is the real service.
        assert report.observations.user_row == 0
        chaff_row = report.observations.trajectories[1]
        assert not np.any(chaff_row == report.user_trajectory)  # CML never co-locates

    def test_evaluate_with_basic_detector(self, random_chain, rng):
        topology = MECTopology.complete(random_chain.n_states)
        simulation = MECSimulation(
            topology,
            random_chain,
            strategy=get_strategy("OO"),
            config=MECSimulationConfig(horizon=25, n_chaffs=1),
        )
        report = simulation.run(rng)
        outcome = report.evaluate(random_chain, MaximumLikelihoodDetector(), rng)
        assert set(outcome) == {"tracking_accuracy", "detection_accuracy", "total_cost"}
        assert outcome["tracking_accuracy"] <= 0.2

    def test_evaluate_with_advanced_detector(self, random_chain, rng):
        topology = MECTopology.complete(random_chain.n_states)
        simulation = MECSimulation(
            topology,
            random_chain,
            strategy=get_strategy("OO"),
            config=MECSimulationConfig(horizon=15, n_chaffs=1),
        )
        report = simulation.run(rng)
        detector = StrategyAwareDetector(get_strategy("OO"))
        outcome = report.evaluate(random_chain, detector, rng)
        assert outcome["detection_accuracy"] == 1.0

    def test_external_user_trajectory(self, random_chain, rng):
        topology = MECTopology.complete(random_chain.n_states)
        simulation = MECSimulation(
            topology,
            random_chain,
            strategy=get_strategy("IM"),
            config=MECSimulationConfig(horizon=10, n_chaffs=1),
        )
        user = random_chain.sample_trajectory(12, rng)
        report = simulation.run(rng, user_trajectory=user)
        assert report.horizon == 12
        assert np.array_equal(report.user_trajectory, user)

    def test_rejects_out_of_range_user_trajectory(self, random_chain, rng):
        """Cells outside the topology must fail up front with a clear
        message, not deep inside detection."""
        topology = MECTopology.complete(random_chain.n_states)
        simulation = MECSimulation(
            topology,
            random_chain,
            config=MECSimulationConfig(horizon=10, n_chaffs=0),
        )
        too_large = np.array([0, 1, random_chain.n_states], dtype=np.int64)
        with pytest.raises(ValueError, match="outside the topology"):
            simulation.run(rng, user_trajectory=too_large)
        negative = np.array([0, -1, 1], dtype=np.int64)
        with pytest.raises(ValueError, match="outside the topology"):
            simulation.run(rng, user_trajectory=negative)

    def test_requires_strategy_for_chaffs(self, random_chain):
        topology = MECTopology.complete(random_chain.n_states)
        with pytest.raises(ValueError):
            MECSimulation(
                topology,
                random_chain,
                strategy=None,
                config=MECSimulationConfig(horizon=10, n_chaffs=2),
            )

    def test_topology_model_mismatch(self, random_chain):
        topology = MECTopology.ring(random_chain.n_states + 1)
        with pytest.raises(ValueError):
            MECSimulation(topology, random_chain)

    def test_no_chaff_run(self, random_chain, rng):
        topology = MECTopology.complete(random_chain.n_states)
        simulation = MECSimulation(
            topology,
            random_chain,
            config=MECSimulationConfig(horizon=10, n_chaffs=0),
        )
        report = simulation.run(rng)
        assert report.observations.n_services == 1
        assert report.ledger.chaff_total == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MECSimulationConfig(horizon=0)
        with pytest.raises(ValueError):
            MECSimulationConfig(n_chaffs=-1)
