"""Tests for the MEC substrate: topology, services, costs, policies, migration.

The per-service migration engine exercised here is the single-user oracle
of ``tests/reference/single_user.py``; the library itself migrates services
through the fleet's vectorised slot kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geo.points import GeoPoint
from repro.geo.voronoi import VoronoiQuantizer
from repro.mec.costs import CostLedger, CostModel
from repro.mec.policies import (
    AlwaysFollowPolicy,
    DistanceThresholdPolicy,
    MDPMigrationPolicy,
    NeverMigratePolicy,
)
from repro.mec.service import ServiceInstance, ServiceKind
from repro.mec.topology import EdgeSite, MECTopology
from repro.mobility.grid import GridTopology
from repro.mobility.models import lazy_uniform_model

from reference.single_user import MigrationEngine, MigrationEvent


class TestEdgeSite:
    def test_default_name(self):
        assert EdgeSite(cell=3).name == "mec-3"

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            EdgeSite(cell=0, capacity=0)

    def test_invalid_cell(self):
        with pytest.raises(ValueError):
            EdgeSite(cell=-1)


class TestMECTopology:
    def test_ring_hop_distances(self):
        topology = MECTopology.ring(6)
        assert topology.hop_distance(0, 1) == 1
        assert topology.hop_distance(0, 3) == 3
        assert topology.hop_distance(0, 5) == 1  # wrap-around

    def test_complete_topology_all_one_hop(self):
        topology = MECTopology.complete(5)
        hops = topology.hop_distance_matrix()
        off_diagonal = hops[~np.eye(5, dtype=bool)]
        assert np.all(off_diagonal == 1)

    def test_grid_topology_distances(self):
        topology = MECTopology.from_grid(GridTopology(3, 3))
        assert topology.hop_distance(0, 8) == 4

    def test_from_voronoi(self):
        towers = [
            GeoPoint(37.6, -122.5),
            GeoPoint(37.6, -122.2),
            GeoPoint(37.9, -122.5),
            GeoPoint(37.9, -122.2),
        ]
        topology = MECTopology.from_voronoi(VoronoiQuantizer(towers))
        assert topology.n_cells == 4
        assert topology.hop_distance(0, 3) >= 1

    def test_neighbors(self):
        topology = MECTopology.ring(4)
        assert sorted(topology.neighbors(0)) == [1, 3]

    def test_site_lookup(self):
        topology = MECTopology.ring(4)
        assert topology.site(2).cell == 2
        with pytest.raises(ValueError):
            topology.site(9)

    def test_rejects_asymmetric_adjacency(self):
        adjacency = np.zeros((2, 2), dtype=bool)
        adjacency[0, 1] = True
        with pytest.raises(ValueError):
            MECTopology(sites=[EdgeSite(0), EdgeSite(1)], adjacency=adjacency)

    def test_rejects_self_loops(self):
        adjacency = np.eye(2, dtype=bool)
        with pytest.raises(ValueError):
            MECTopology(sites=[EdgeSite(0), EdgeSite(1)], adjacency=adjacency)

    def test_rejects_misordered_sites(self):
        adjacency = np.zeros((2, 2), dtype=bool)
        with pytest.raises(ValueError):
            MECTopology(sites=[EdgeSite(1), EdgeSite(0)], adjacency=adjacency)

    def test_disconnected_cells_get_large_distance(self):
        adjacency = np.zeros((3, 3), dtype=bool)
        adjacency[0, 1] = adjacency[1, 0] = True
        topology = MECTopology(
            sites=[EdgeSite(0), EdgeSite(1), EdgeSite(2)], adjacency=adjacency
        )
        assert topology.hop_distance(0, 2) == 3  # = n, the "unreachable" marker


class TestServiceInstance:
    def test_migrate_updates_state(self):
        service = ServiceInstance(0, 0, ServiceKind.REAL, cell=2)
        assert service.migrate_to(5)
        assert service.cell == 5
        assert service.migration_count == 1

    def test_migrate_to_same_cell_is_noop(self):
        service = ServiceInstance(0, 0, ServiceKind.REAL, cell=2)
        assert not service.migrate_to(2)
        assert service.migration_count == 0

    def test_record_and_trajectory(self):
        service = ServiceInstance(0, 0, ServiceKind.CHAFF, cell=1)
        service.record_slot()
        service.migrate_to(4)
        service.record_slot()
        assert service.trajectory() == [1, 4]
        assert service.is_chaff

    def test_invalid_ids(self):
        with pytest.raises(ValueError):
            ServiceInstance(-1, 0, ServiceKind.REAL, cell=0)
        with pytest.raises(ValueError):
            ServiceInstance(0, 0, ServiceKind.REAL, cell=-2)


class TestCostModel:
    def test_migration_cost_zero_for_same_cell(self):
        model = CostModel()
        topology = MECTopology.ring(5)
        assert model.migration_cost(topology, 2, 2) == 0.0

    def test_migration_cost_grows_with_hops(self):
        model = CostModel(migration_cost_per_hop=2.0, migration_cost_fixed=1.0)
        topology = MECTopology.ring(8)
        assert model.migration_cost(topology, 0, 1) == 3.0
        assert model.migration_cost(topology, 0, 4) == 9.0

    def test_communication_cost(self):
        model = CostModel(communication_cost_per_hop=0.5)
        topology = MECTopology.ring(8)
        assert model.communication_cost(topology, 0, 2) == 1.0
        assert model.communication_cost(topology, 3, 3) == 0.0

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            CostModel(migration_cost_per_hop=-1.0)

    def test_ledger_accumulates(self):
        ledger = CostLedger()
        ledger.count_migration()
        ledger.charge_migration(3.0)
        ledger.charge_communication(1.0)
        ledger.charge_chaff(0.5)
        ledger.close_slot()
        assert ledger.total == 4.5
        assert ledger.migrations == 1
        assert ledger.slots == 1
        assert ledger.average_cost_per_slot() == 4.5
        assert ledger.per_slot_totals == [4.5]

    def test_ledger_charging_does_not_count_migrations(self):
        """Cost accounting is pure: counting is explicit via count_migration,
        so free migrations (zero-cost model) still show up in the tally."""
        ledger = CostLedger()
        ledger.charge_migration(0.0)
        ledger.charge_migration(3.0)
        assert ledger.migrations == 0
        ledger.count_migration()
        assert ledger.migrations == 1
        with pytest.raises(ValueError):
            ledger.count_migration(-1)

    def test_ledger_rejects_negative(self):
        ledger = CostLedger()
        with pytest.raises(ValueError):
            ledger.charge_communication(-1.0)

    def test_ledger_average_with_no_slots(self):
        assert CostLedger().average_cost_per_slot() == 0.0


class TestPolicies:
    def test_always_follow(self):
        policy = AlwaysFollowPolicy()
        topology = MECTopology.ring(5)
        assert policy.decide(topology, 0, 3) == 3

    def test_never_migrate(self):
        policy = NeverMigratePolicy()
        topology = MECTopology.ring(5)
        assert policy.decide(topology, 0, 3) == 0

    def test_threshold_policy(self):
        policy = DistanceThresholdPolicy(threshold=2)
        topology = MECTopology.ring(8)
        assert policy.decide(topology, 0, 1) == 0  # within threshold: stay
        assert policy.decide(topology, 0, 4) == 4  # beyond threshold: follow

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            DistanceThresholdPolicy(threshold=-1)

    def test_mdp_policy_never_migrates_at_zero_distance(self):
        topology = MECTopology.ring(8)
        chain = lazy_uniform_model(8, stay_probability=0.5)
        policy = MDPMigrationPolicy(topology, chain, CostModel())
        assert policy.decide(topology, 2, 2) == 2
        assert not policy.migrate_threshold_profile[0]

    def test_mdp_policy_migrates_when_communication_dominates(self):
        topology = MECTopology.ring(8)
        chain = lazy_uniform_model(8, stay_probability=0.5)
        cost_model = CostModel(
            migration_cost_per_hop=0.01,
            migration_cost_fixed=0.01,
            communication_cost_per_hop=10.0,
        )
        policy = MDPMigrationPolicy(topology, chain, cost_model)
        assert policy.decide(topology, 0, 4) == 4

    def test_mdp_policy_stays_when_migration_prohibitive(self):
        topology = MECTopology.ring(8)
        chain = lazy_uniform_model(8, stay_probability=0.5)
        cost_model = CostModel(
            migration_cost_per_hop=100.0,
            migration_cost_fixed=100.0,
            communication_cost_per_hop=0.01,
        )
        policy = MDPMigrationPolicy(topology, chain, cost_model)
        assert policy.decide(topology, 0, 2) == 0

    def test_mdp_policy_invalid_discount(self):
        topology = MECTopology.ring(4)
        chain = lazy_uniform_model(4)
        with pytest.raises(ValueError):
            MDPMigrationPolicy(topology, chain, CostModel(), discount=1.0)


class TestMigrationEngine:
    def _engine(self, policy=None):
        topology = MECTopology.ring(6)
        return MigrationEngine(
            topology=topology,
            policy=policy or AlwaysFollowPolicy(),
            cost_model=CostModel(),
        )

    def test_real_service_follows_user(self):
        engine = self._engine()
        service = ServiceInstance(0, 0, ServiceKind.REAL, cell=0)
        engine.register_instantiation(service, 0)
        cell = engine.step_real_service(service, user_cell=3, slot=0)
        assert cell == 3
        assert engine.ledger.migrations == 1
        assert service.location_history == [3]

    def test_chaff_service_moved_by_plan(self):
        engine = self._engine()
        chaff = ServiceInstance(1, 0, ServiceKind.CHAFF, cell=2)
        engine.register_instantiation(chaff, 0)
        engine.step_chaff_service(chaff, target_cell=4, slot=0)
        assert chaff.cell == 4
        assert engine.ledger.chaff_total > 0

    def test_role_enforcement(self):
        engine = self._engine()
        real = ServiceInstance(0, 0, ServiceKind.REAL, cell=0)
        chaff = ServiceInstance(1, 0, ServiceKind.CHAFF, cell=0)
        with pytest.raises(ValueError):
            engine.step_real_service(chaff, 1, 0)
        with pytest.raises(ValueError):
            engine.step_chaff_service(real, 1, 0)

    def test_events_recorded_per_service(self):
        engine = self._engine()
        service = ServiceInstance(0, 0, ServiceKind.REAL, cell=0)
        engine.register_instantiation(service, 0)
        engine.step_real_service(service, 1, 0)
        engine.step_real_service(service, 1, 1)  # no migration this slot
        events = engine.events_for_service(0)
        assert len(events) == 2  # instantiation + one migration
        assert events[0].is_instantiation

    def test_free_migrations_are_still_counted(self):
        """Under an all-zero cost model the engine must still tally every
        actual service move (the ledger's count comes from the move, not
        from the charge)."""
        topology = MECTopology.ring(6)
        engine = MigrationEngine(
            topology=topology,
            policy=AlwaysFollowPolicy(),
            cost_model=CostModel(
                migration_cost_per_hop=0.0,
                migration_cost_fixed=0.0,
                communication_cost_per_hop=0.0,
                chaff_running_cost=0.0,
            ),
        )
        real = ServiceInstance(0, 0, ServiceKind.REAL, cell=0)
        chaff = ServiceInstance(1, 0, ServiceKind.CHAFF, cell=0)
        for service in (real, chaff):
            engine.register_instantiation(service, 0)
        engine.step_real_service(real, user_cell=2, slot=0)
        engine.step_chaff_service(chaff, target_cell=3, slot=0)
        engine.step_real_service(real, user_cell=2, slot=1)  # no move
        engine.step_chaff_service(chaff, target_cell=5, slot=1)
        assert engine.ledger.total == 0.0
        assert engine.ledger.migrations == 3
        assert (
            engine.ledger.migrations
            == real.migration_count + chaff.migration_count
        )

    def test_never_migrate_accumulates_communication_cost(self):
        engine = self._engine(policy=NeverMigratePolicy())
        service = ServiceInstance(0, 0, ServiceKind.REAL, cell=0)
        engine.register_instantiation(service, 0)
        engine.step_real_service(service, user_cell=3, slot=0)
        assert engine.ledger.migration_total == 0.0
        assert engine.ledger.communication_total > 0.0

    def test_migration_event_validation(self):
        with pytest.raises(ValueError):
            MigrationEvent(slot=-1, service_id=0, source_cell=0, target_cell=1)
