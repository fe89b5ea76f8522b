#!/usr/bin/env python3
"""Adversary ladder demo: oracle vs learned vs stale eavesdroppers.

The paper's eavesdropper knows the true mobility model and watches every
edge site.  This demo climbs down that ladder: one fleet Monte-Carlo on
a regime-switching MEC is replayed against adversaries that differ only
in what they *know* (oracle / learned-online / regime-blind stale) and
in what they *see* (full coverage vs a compromised fraction of the
sites, single view or coalition), and reports the detection and tracking
rates of each rung — how much an attacker must know and see before
privacy collapses.

Run with::

    python examples/adversary_ladder_demo.py
"""

from __future__ import annotations

from repro.adversary import (
    AdversaryDetector,
    FullCoverage,
    SiteCoverage,
    coalition_coverage,
    make_knowledge,
    run_adversary_monte_carlo,
    simulate_fleet_reports,
)
from repro.core.strategies import get_strategy
from repro.mec.fleet import FleetSimulation, FleetSimulationConfig
from repro.mec.topology import MECTopology
from repro.mobility.grid import GridTopology
from repro.mobility.models import paper_synthetic_models
from repro.world import dynamic_timeline

N_USERS = 20
HORIZON = 60
N_RUNS = 8
N_CELLS = 25
SEED = 2017


def build_simulation() -> FleetSimulation:
    """A fleet on a regime-switching world (so stale knowledge hurts)."""
    chains = paper_synthetic_models(N_CELLS, seed=SEED)
    timeline = dynamic_timeline(
        horizon=HORIZON,
        n_cells=N_CELLS,
        n_users=N_USERS,
        seed=SEED,
        regime_chains=(chains["temporally-skewed"],),
        regime_period=15,
    )
    topology = MECTopology.from_grid(GridTopology(5, 5), capacity=8)
    return FleetSimulation(
        topology,
        chains["non-skewed"],
        strategy=get_strategy("IM"),
        config=FleetSimulationConfig(
            n_users=N_USERS, horizon=HORIZON, n_chaffs=1
        ),
        timeline=timeline,
    )


def single_user_censoring_demo() -> None:
    """Coverage censoring on a one-user (``M = 1``) fleet.

    A partial adversary of the classic one-user game: the observation
    plane is censored to the compromised sites before detection, and
    the adversary detector scores the remaining glimpses.
    """
    chain = paper_synthetic_models(N_CELLS, seed=SEED)["non-skewed"]
    simulation = FleetSimulation(
        MECTopology.from_grid(GridTopology(5, 5), capacity=8),
        chain,
        strategy=get_strategy("IM"),
        config=FleetSimulationConfig(n_users=1, horizon=HORIZON, n_chaffs=2),
    )
    report = simulation.run(SEED)
    coverage = SiteCoverage(0.3, SEED)
    censored = coverage.censor(report.observations.trajectories, N_CELLS)
    hidden = float((censored == -1).mean())
    adversary = AdversaryDetector(make_knowledge("oracle"), coverage)
    found = report.evaluate(chain, adversary).detected_per_user[0]
    print(
        f"single-user game, 30% site coverage: {hidden:.0%} of the plane "
        f"censored, detector {'found' if found else 'missed'} the user\n"
    )


def main() -> None:
    single_user_censoring_demo()
    simulation = build_simulation()
    # The defender's world never depends on the adversary: simulate the
    # episodes once, replay them against every rung of the ladder.
    reports = simulate_fleet_reports(simulation, n_runs=N_RUNS, seed=SEED)

    coverages = {
        "full coverage": FullCoverage(),
        "30% of sites": SiteCoverage(0.3, SEED),
        "3 x 20% coalition": coalition_coverage(3, 0.2, SEED),
    }
    print(
        f"adversary ladder: M={N_USERS} users, T={HORIZON} slots, "
        f"{N_RUNS} episodes, regime switches every 15 slots\n"
    )
    print(f"{'knowledge':<10} {'coverage':<18} {'detection':>10} {'tracking':>10}")
    for level in ("oracle", "stale", "learned"):
        for coverage_name, coverage in coverages.items():
            # A fresh adversary per rung; the learned one warm-starts its
            # empirical chain across the N_RUNS episodes.
            adversary = AdversaryDetector(make_knowledge(level), coverage)
            statistics = run_adversary_monte_carlo(
                simulation,
                adversary,
                n_runs=N_RUNS,
                seed=SEED,
                reports=reports,
            )
            print(
                f"{level:<10} {coverage_name:<18} "
                f"{statistics.mean_detection:>10.3f} "
                f"{statistics.mean_tracking:>10.3f}"
            )
    print(
        "\nreading the table: the oracle/full row is the paper's "
        "eavesdropper; every other row weakens its knowledge or its "
        "coverage, and detection decays accordingly."
    )


if __name__ == "__main__":
    main()
