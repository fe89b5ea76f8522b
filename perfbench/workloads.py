"""The benchmark's four workloads: configs, episode counts and result checks.

Each workload is one blocking ``repro.experiments.registry.run_experiment``
call with the result cache off.  The seed given on the command line becomes
the config seed, so the same seed always yields the same inputs.

This module is imported by the fresh interpreter before it signals that
set-up is done, so it imports nothing heavier than the standard library at
module level.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

#: The configs' default seed.  ``reference.json`` commits a result digest
#: for it and for one seed held out while the benchmark was written (7).
DEFAULT_SEED = 2017


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``build(seed, size)`` returns ``(experiment id, config, extra kwargs)``;
    ``episodes(config)`` the Monte-Carlo episodes one call completes;
    ``n_points(config)`` the sweep points one call attempts;
    ``points(result)`` one ``(label, problems)`` pair per sweep point.
    """

    name: str
    build: Callable[[int, str], "tuple[str, Any, dict]"]
    episodes: Callable[[Any], int]
    n_points: Callable[[Any], int]
    points: Callable[[Any], "list[tuple[str, list[str]]]"]


# ----------------------------------------------------------------------
# Range invariants shared by the point checks.


def _probabilities(label: str, values) -> list[str]:
    bad = [v for v in values if not (math.isfinite(v) and 0.0 <= v <= 1.0)]
    return [f"{label}: probability outside [0, 1]: {bad[:3]}"] if bad else []


def _non_negative(label: str, values) -> list[str]:
    bad = [v for v in values if not (math.isfinite(v) and v >= 0.0)]
    return [f"{label}: negative or non-finite value: {bad[:3]}"] if bad else []


# ----------------------------------------------------------------------
# fig7-aware: Fig. 7's robust strategies against the strategy-aware
# eavesdropper -- the one workload where Algorithm 1 (the optimal offline
# DP, re-solved per observed trajectory) does most of the work.


def _fig7_build(seed: int, size: str):
    from repro.sim.config import SyntheticExperimentConfig

    runs, horizon = (4, 50) if size == "full" else (2, 8)
    config = SyntheticExperimentConfig(
        n_cells=10, horizon=horizon, n_runs=runs, workers=1, seed=seed
    )
    return "fig7", config, {"n_services": 10}


def _fig7_episodes(config) -> int:
    # models x {IM, RML, ROO, RMO} game sweeps of n_runs episodes each.
    return len(config.mobility_models) * 4 * config.n_runs


def _fig7_n_points(config) -> int:
    return len(config.mobility_models) * 4


def _fig7_points(result) -> list[tuple[str, list[str]]]:
    points = []
    for model, series_list in result.groups.items():
        for series in series_list:
            label = f"{model}/{series.label}"
            problems = _probabilities(label, series.values)
            problems += _probabilities(
                label,
                [
                    series.metadata["tracking_accuracy"],
                    series.metadata["detection_accuracy"],
                ],
            )
            points.append((label, problems))
    return points


# ----------------------------------------------------------------------
# Fleet sweeps.  fleet-contended is the default config swept down to the
# tightest capacity, where the per-mover placement walk dominates.
# fleet-stacked is roomy, streamed and run-stacked on 2 workers: placement
# stays on the bincount fast path and time goes to sampling, stacked
# scoring, spills and pool IPC.


def _fleet_contended_build(seed: int, size: str):
    from repro.sim.config import FleetExperimentConfig

    config = FleetExperimentConfig(seed=seed, run_stack=1, workers=1)
    config = config.scaled(n_runs=5) if size == "full" else config.scaled(n_runs=2, horizon=10)
    return "fleet", config, {}


def _fleet_stacked_build(seed: int, size: str):
    from repro.sim.config import FleetExperimentConfig

    full = size == "full"
    config = FleetExperimentConfig(
        n_users=400 if full else 40,
        n_cells=100,
        site_capacity=64,
        population_sweep=(100, 200, 400) if full else (10, 20, 40),
        capacity_sweep=(64,),
        horizon=200 if full else 20,
        n_runs=20 if full else 4,
        stream=True,
        chunk_slots=50 if full else 8,
        run_stack=10 if full else 2,
        workers=2,
        seed=seed,
    )
    return "fleet", config, {}


def _fleet_episodes(config) -> int:
    # One fleet episode per (user, slot): sum of M x T over every sweep point.
    users = sum(config.populations()) + config.n_users * len(config.capacities())
    return users * config.horizon * config.n_runs


def _fleet_n_points(config) -> int:
    return len(config.populations()) + len(config.capacities())


def _fleet_points(result) -> list[tuple[str, list[str]]]:
    points = []
    for group, series_list in result.groups.items():
        by_label = {series.label: series for series in series_list}
        index = by_label["detection-accuracy"].index
        for position, x in enumerate(index):
            label = f"{group}={x:g}"
            value = {name: s.values[position] for name, s in by_label.items()}
            problems = _probabilities(
                label, [value["detection-accuracy"], value["tracking-accuracy"]]
            )
            problems += _non_negative(
                label, [value["per-user-cost"], value["rejected-migrations"]]
            )
            points.append((label, problems))
    return points


# ----------------------------------------------------------------------
# adversary-ladder: simulate once on a regime-switching world, replay
# against 3 knowledge levels x 6 coverage/coalition points -- Eq. (1)
# scoring, learned refits, the score cache and Timeline.compile.


def _adversary_build(seed: int, size: str):
    from repro.sim.config import AdversaryExperimentConfig

    full = size == "full"
    config = AdversaryExperimentConfig(
        n_users=60 if full else 10,
        horizon=100 if full else 10,
        n_runs=10 if full else 4,
        run_stack=10 if full else 2,
        workers=2,
        seed=seed,
    )
    return "adversary", config, {}


def _adversary_episodes(config) -> int:
    return config.n_runs * (1 + _adversary_n_points(config))


def _adversary_n_points(config) -> int:
    return len(config.knowledge_levels) * (
        len(config.coverage_fractions) + len(config.coalition_sizes)
    )


def _adversary_points(result) -> list[tuple[str, list[str]]]:
    shared = _probabilities(
        "score_cache_hit_ratio", [result.scalars["score_cache_hit_ratio"]]
    ) + _non_negative("defender_cost_per_user", [result.scalars["defender_cost_per_user"]])
    points = []
    for group, series_list in result.groups.items():
        detection = [s for s in series_list if s.label.startswith("detection")]
        for series in detection:
            level = series.label[len("detection ") :]
            tracking = [s for s in series_list if s.label == f"tracking {level}"]
            for position, x in enumerate(series.index):
                label = f"{group}/{level}={x:g}"
                values = [series.values[position]]
                values += [s.values[position] for s in tracking]
                points.append((label, _probabilities(label, values) + shared))
    return points


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig7-aware",
            _fig7_build,
            _fig7_episodes,
            _fig7_n_points,
            _fig7_points,
        ),
        Workload(
            "fleet-contended",
            _fleet_contended_build,
            _fleet_episodes,
            _fleet_n_points,
            _fleet_points,
        ),
        Workload(
            "fleet-stacked",
            _fleet_stacked_build,
            _fleet_episodes,
            _fleet_n_points,
            _fleet_points,
        ),
        Workload(
            "adversary-ladder",
            _adversary_build,
            _adversary_episodes,
            _adversary_n_points,
            _adversary_points,
        ),
    )
}


def result_digest(result) -> str:
    """SHA-256 over every scalar and series of a result (config excluded)."""
    payload = {
        "scalars": {key: float(value) for key, value in result.scalars.items()},
        "groups": {
            group: [[s.label, list(s.values), s.index and list(s.index)] for s in series]
            for group, series in result.groups.items()
        },
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
