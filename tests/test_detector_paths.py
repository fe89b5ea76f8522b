"""Every detector gives the same decisions on every fleet evaluation path.

A detector is an Eq. (1) score transform (``row_scores``), so the three
fleet evaluations — :meth:`FleetReport.evaluate` on the in-memory
report, :meth:`StackedRunOutcome.to_metrics` on a run stack, and
:meth:`StreamingFleetReport.evaluate` on the spilled chunks — must agree
run by run for every detector: the paper's ML detector, the random
guesser, the Section VI-A strategy-aware detector (deterministic and
randomised assumed strategies) and the knowledge x coverage adversary,
including a learning one that observes the runs in seed order.  Each
path runs on a static world and on a world with churn and regime
switches, whose plane holds ``-1`` dead slots.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest

from repro.adversary import (
    AdversaryDetector,
    FullCoverage,
    LearnedKnowledge,
    OracleKnowledge,
    SiteCoverage,
)
from repro.core.eavesdropper import (
    MaximumLikelihoodDetector,
    RandomGuessDetector,
    StrategyAwareDetector,
)
from repro.core.strategies import get_strategy
from repro.mec.fleet import FleetSimulation, FleetSimulationConfig
from repro.mec.topology import MECTopology
from repro.mobility.grid import GridTopology
from repro.mobility.models import paper_synthetic_models
from repro.sim.cache import EpisodeStore
from repro.world import RegimeSwitch, Timeline, UserArrival, UserDeparture

SEEDS = (1, 2, 3)
HORIZON = 20

DETECTORS = {
    "ml": MaximumLikelihoodDetector,
    "random": RandomGuessDetector,
    "aware-ml": lambda: StrategyAwareDetector(get_strategy("ML")),
    "aware-im": lambda: StrategyAwareDetector(get_strategy("IM")),
    "oracle-full": lambda: AdversaryDetector(OracleKnowledge(), FullCoverage()),
    "oracle-site": lambda: AdversaryDetector(OracleKnowledge(), SiteCoverage(0.5)),
    "learned": lambda: AdversaryDetector(LearnedKnowledge(), FullCoverage()),
}


def _simulation(dynamic: bool) -> FleetSimulation:
    models = paper_synthetic_models(9, seed=2017)
    timeline = None
    if dynamic:
        timeline = Timeline(
            events=(
                RegimeSwitch(slot=6, regime=1),
                UserArrival(slot=5, user=2),
                UserDeparture(slot=12, user=0),
                UserDeparture(slot=15, user=4),
            ),
            regime_chains=(models["temporally-skewed"],),
        )
    ml, im = get_strategy("ML"), get_strategy("IM")
    return FleetSimulation(
        MECTopology.from_grid(GridTopology(3, 3), capacity=4),
        models["non-skewed"],
        # ML chaffs give the strategy-aware detector rows to unmask.
        strategy=[ml, im, ml, im, ml, im],
        config=FleetSimulationConfig(
            n_users=6, horizon=HORIZON, n_chaffs=(1, 2, 1, 0, 2, 1)
        ),
        timeline=timeline,
    )


def _reports(simulation, detector):
    evaluations = [
        simulation.run(seed).evaluate(simulation.chain, detector) for seed in SEEDS
    ]
    return [
        (e.chosen_rows, e.tracking_per_user, e.detected_per_user)
        for e in evaluations
    ]


def _stacked(simulation, detector, stack):
    metrics = []
    for base in range(0, len(SEEDS), stack):
        outcome = simulation.run_stacked(
            SEEDS[base : base + stack], collect_per_slot=False
        )
        metrics.extend(outcome.to_metrics(detector))
    return [(tracking, detected) for tracking, detected, *_ in metrics]


def _streamed(simulation, detector):
    results = []
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as root:
            streamed = simulation.run_stacked(
                [seed], engine="stream", chunk_slots=7, store=EpisodeStore(root)
            )
            e = streamed.evaluate(simulation.chain, detector)
        results.append((e.chosen_rows, e.tracking_per_user, e.detected_per_user))
    return results


@pytest.mark.parametrize("dynamic", [False, True], ids=["static", "churn-regime"])
@pytest.mark.parametrize("name", list(DETECTORS))
def test_every_path_makes_the_same_decisions(name, dynamic):
    simulation = _simulation(dynamic)
    make = DETECTORS[name]
    reference = _reports(simulation, make())
    streamed = _streamed(simulation, make())
    for (rows, tracking, detected), (s_rows, s_tracking, s_detected) in zip(
        reference, streamed, strict=True
    ):
        assert np.array_equal(rows, s_rows)
        assert np.array_equal(tracking, s_tracking)
        assert np.array_equal(detected, s_detected)
    for stack in (1, 3):
        stacked = _stacked(simulation, make(), stack)
        for (_, tracking, detected), (m_tracking, m_detected) in zip(
            reference, stacked, strict=True
        ):
            assert np.array_equal(tracking, m_tracking), stack
            assert np.array_equal(detected, m_detected), stack
