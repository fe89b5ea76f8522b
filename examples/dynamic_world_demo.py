#!/usr/bin/env python3
"""Dynamic worlds demo: a fleet on a live MEC deployment.

Builds a :class:`~repro.world.timeline.Timeline` three ways — by hand
(explicit events), from the scenario generators, and compares a frozen
world against a stormy one: mobility regimes rotating every 25 slots,
edge sites failing and recovering as a Poisson process, and a fifth of
the users arriving/departing mid-episode.  The fleet's batch and stream
engines produce bit-identical results under any timeline; the demo runs
the batch engine and reports how the live world moves privacy (per-user
detection against the crowd) and cost.

Run with::

    python examples/dynamic_world_demo.py
"""

from __future__ import annotations

from repro.core.eavesdropper.detector import MaximumLikelihoodDetector
from repro.core.strategies import get_strategy
from repro.mec.fleet import FleetSimulation, FleetSimulationConfig, run_fleet_monte_carlo
from repro.mec.topology import MECTopology
from repro.mobility.grid import GridTopology
from repro.mobility.models import paper_synthetic_models
from repro.world import (
    CapacityChange,
    SiteDown,
    SiteUp,
    Timeline,
    UserArrival,
    UserDeparture,
    dynamic_timeline,
)


def hand_written_timeline() -> Timeline:
    """A small, explicit script of world events."""
    return Timeline(
        events=(
            SiteDown(slot=20, cell=12),      # the central site fails...
            SiteUp(slot=35, cell=12),        # ...and recovers 15 slots later
            CapacityChange(slot=50, cell=0, capacity=2),  # re-provisioned down
            UserArrival(slot=10, user=9),    # a late session
            UserDeparture(slot=70, user=0),  # an early leaver
        )
    )


def main() -> None:
    n_cells, n_users, horizon = 25, 10, 100
    chains = paper_synthetic_models(n_cells, seed=2017)
    chain = chains["non-skewed"]
    topology = MECTopology.from_grid(GridTopology(5, 5), capacity=4)
    config = FleetSimulationConfig(n_users=n_users, horizon=horizon, n_chaffs=1)
    detector = MaximumLikelihoodDetector()

    # --- 1. A hand-written timeline ------------------------------------
    timeline = hand_written_timeline()
    simulation = FleetSimulation(
        topology, chain, strategy=get_strategy("IM"), config=config,
        timeline=timeline,
    )
    report = simulation.run(seed=7)
    stats = report.placement.as_dict()
    print("hand-written timeline:")
    print(f"  events: {len(timeline.events)}, placement stats: {stats}")
    print(f"  user 9 window: {report.windows[report.observations.real_rows[9]]}")

    # --- 2. Generated scenario: regimes + failures + churn --------------
    stormy = dynamic_timeline(
        horizon=horizon,
        n_cells=n_cells,
        n_users=n_users,
        seed=2017,
        regime_chains=(chains["temporally-skewed"],),
        regime_period=25,
        failure_rate=0.05,
        churn_rate=0.2,
    )
    print(f"\ngenerated timeline: {len(stormy.events)} events")

    # --- 3. Frozen vs. live world, Monte-Carlo -------------------------
    frozen = FleetSimulation(
        topology, chain, strategy=get_strategy("IM"), config=config,
    )
    live = FleetSimulation(
        topology, chain, strategy=get_strategy("IM"), config=config,
        timeline=stormy,
    )
    for label, simulation in (("frozen world", frozen), ("live world", live)):
        statistics = run_fleet_monte_carlo(
            simulation, n_runs=10, seed=2017, detector=detector
        )
        print(
            f"{label:>12}: detection {statistics.mean_detection:.3f}, "
            f"tracking {statistics.mean_tracking:.3f}, "
            f"cost/user {statistics.mean_cost_per_user:.1f}, "
            f"evictions/run {statistics.mean_evicted:.1f}"
        )


if __name__ == "__main__":
    main()
