"""The naive per-user, per-service fleet walk: the fleet engines' oracle.

:func:`run_fleet_loop` plays one fleet episode the slow, obvious way —
one Python step per user, per service and per slot — through the same
seed layout (:meth:`FleetSimulation._episode_streams`) and the same
report assembly (:meth:`FleetSimulation._build_report`) as the
vectorised engines, so batch, stream and run-stacked execution must
reproduce its :class:`FleetReport` bit for bit.

:func:`loop_engine` reroutes every :meth:`FleetSimulation.run_stacked`
call (and therefore :meth:`FleetSimulation.run`, the fleet Monte-Carlo
and the report simulation of the adversary experiment) through the
oracle, episode by episode, so whole experiments can be compared against
it.  Process-pool workers are forked from the patched parent, so the
patch reaches them too.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence
from unittest import mock

import numpy as np

from repro.core.eavesdropper.detector import TrajectoryDetector
from repro.mec.costs import CostLedger
from repro.mec.fleet import FleetReport, FleetSimulation, _episode_metrics
from repro.mec.placement import PlacementEngine
from repro.telemetry import NULL_RECORDER

__all__ = ["loop_engine", "run_fleet", "run_fleet_loop"]


def run_fleet_loop(
    simulation: FleetSimulation,
    seed: "int | np.random.SeedSequence",
    *,
    recorder=NULL_RECORDER,
) -> FleetReport:
    """One fleet episode through the naive per-service Python walk."""
    user_rngs, shuffle_rng, evaluation_seed = simulation._episode_streams(seed)
    config = simulation.config
    n_users, horizon = config.n_users, config.horizon
    budgets = config.chaffs_per_user()
    owners, is_real, service_ids = simulation._service_layout(budgets)
    n_services = owners.size
    model = simulation.cost_model

    users = np.empty((n_users, horizon), dtype=np.int64)
    plans = np.empty((n_services, horizon), dtype=np.int64)
    real_row_of_user = np.flatnonzero(is_real)
    sample_span = recorder.span("kernel/sample", engine="loop", users=n_users)
    with sample_span:
        for user, rng in enumerate(user_rngs):
            if config.start_cells is not None:
                users[user] = simulation.chain.sample_trajectory(
                    horizon,
                    rng,
                    initial_state=int(config.start_cells[user]),
                    transition_stack=simulation._stack,
                )
            else:
                users[user] = simulation.chain.sample_trajectory(
                    horizon, rng, transition_stack=simulation._stack
                )
            budget = budgets[user]
            if budget > 0:
                first = real_row_of_user[user] + 1
                plans[first : first + budget] = simulation.strategies[user].generate(
                    simulation.chain, users[user], budget, rng
                )
        plans[real_row_of_user] = users

    schedule = simulation._schedule
    placement = PlacementEngine(simulation.topology)
    service_migrations = np.zeros(n_services, dtype=np.int64)
    ledgers = [CostLedger() for _ in range(n_users)]
    svc_windows: np.ndarray | None = None
    placement_token = recorder.begin(
        "kernel/placement", engine="loop", slots=horizon
    )
    if schedule is None:
        cells = np.empty(n_services, dtype=np.int64)
        for row in range(n_services):
            cells[row] = placement.place_initial(plans[row : row + 1, 0])[0]
        histories = np.empty((n_services, horizon), dtype=np.int64)
    else:
        caps = schedule.capacities
        active_u = schedule.active_users()
        active_svc = active_u[owners]
        svc_windows = schedule.user_windows[owners]
        placement.set_capacities(caps[0])
        cells = np.full(n_services, -1, dtype=np.int64)
        for row in range(n_services):
            if active_svc[row, 0]:
                cells[row] = placement.place_initial(plans[row : row + 1, 0])[0]
        histories = np.full((n_services, horizon), -1, dtype=np.int64)
    for slot in range(horizon):
        if schedule is not None and slot > 0:
            # World transitions, one naive walk per phase: departures
            # free slots, then the new capacity view evicts, then
            # arrivals are admitted — same order as the batch kernel.
            for row in range(n_services):
                if active_svc[row, slot - 1] and not active_svc[row, slot]:
                    placement.release(cells[row : row + 1])
                    cells[row] = -1
            if not np.array_equal(caps[slot], caps[slot - 1]):
                placement.set_capacities(caps[slot])
                new_cells, moved = placement.evict_overloaded(
                    cells, active_svc[:, slot - 1] & active_svc[:, slot]
                )
                for row in moved:
                    row = int(row)
                    ledger = ledgers[int(owners[row])]
                    ledger.count_migration()
                    ledger.charge_migration(
                        model.migration_cost(
                            simulation.topology, int(cells[row]), int(new_cells[row])
                        )
                    )
                    service_migrations[row] += 1
                cells = new_cells
            for row in range(n_services):
                if active_svc[row, slot] and not active_svc[row, slot - 1]:
                    cells[row] = placement.admit_arrivals(
                        plans[row : row + 1, slot]
                    )[0]
        for row in range(n_services):
            if schedule is not None and not active_svc[row, slot]:
                continue
            owner = int(owners[row])
            ledger = ledgers[owner]
            user_cell = int(users[owner, slot])
            if is_real[row]:
                target = simulation.policy.decide(
                    simulation.topology, int(cells[row]), user_cell
                )
            else:
                target = int(plans[row, slot])
            placed = placement.resolve_moves(
                cells[row : row + 1], np.array([target], dtype=np.int64)
            )[0]
            if placed != cells[row]:
                ledger.count_migration()
                ledger.charge_migration(
                    model.migration_cost(
                        simulation.topology, int(cells[row]), int(placed)
                    )
                )
                service_migrations[row] += 1
                cells[row] = placed
            if is_real[row]:
                ledger.charge_communication(
                    model.communication_cost(
                        simulation.topology, user_cell, int(cells[row])
                    )
                )
            else:
                ledger.charge_chaff(model.chaff_running_cost)
            histories[row, slot] = cells[row]
        for ledger in ledgers:
            ledger.close_slot()
    recorder.end(placement_token)
    recorder.record_stats("placement", placement.stats.as_dict())
    return simulation._build_report(
        users,
        histories,
        owners,
        is_real,
        service_ids,
        service_migrations,
        ledgers,
        placement.stats,
        evaluation_seed,
        svc_windows,
        simulation._presentation_order(shuffle_rng, n_services),
    )


def run_fleet(
    simulation: FleetSimulation,
    seed: "int | np.random.SeedSequence",
    engine: str = "batch",
    **options,
) -> FleetReport:
    """``simulation.run`` for an engine name, ``"loop"`` being the oracle."""
    if engine == "loop":
        return run_fleet_loop(simulation, seed, **options)
    return simulation.run(seed, engine=engine, **options)


class _LoopOutcome:
    """The oracle's stand-in for a :class:`StackedRunOutcome`."""

    def __init__(self, simulation: FleetSimulation, reports: list[FleetReport]):
        self.simulation = simulation
        self.reports = reports

    def to_reports(self) -> list[FleetReport]:
        return list(self.reports)

    def to_metrics(
        self, detector: TrajectoryDetector, recorder=NULL_RECORDER
    ) -> list[tuple]:
        return [
            _episode_metrics(self.simulation, report, detector, recorder)
            for report in self.reports
        ]


def _run_stacked_loop(
    simulation: FleetSimulation,
    seeds: "Sequence[int | np.random.SeedSequence]",
    *,
    recorder=NULL_RECORDER,
    **_execution,
) -> _LoopOutcome:
    # Engine, window size and per-slot collection are execution knobs
    # of the vectorised driver; the oracle has none of them.  It has no
    # episode store either: no caller routes a store-backed run here.
    return _LoopOutcome(
        simulation,
        [run_fleet_loop(simulation, seed, recorder=recorder) for seed in seeds],
    )


@contextmanager
def loop_engine() -> Iterator[None]:
    """Run every fleet episode inside the block through the oracle."""
    with mock.patch.object(FleetSimulation, "run_stacked", _run_stacked_loop):
        yield
