"""Registry mapping experiment identifiers to their runner functions.

Used by the CLI (``python -m repro.cli run fig5``) and by the benchmark
harness, which iterates over every registered experiment so each table
and figure of the paper has a regeneration target.

``run_experiment`` optionally consults a content-addressed on-disk cache
(:mod:`repro.sim.cache`): the result of a previous run with the same
(experiment id, config, package version) key is returned without any
simulation, and fresh results are stored on the way out.
"""

from __future__ import annotations

import inspect
from pathlib import Path
from typing import Callable

from ..sim.cache import ResultCache, experiment_cache_key
from ..sim.results import ExperimentResult
from ..telemetry import NULL_RECORDER
from .ablations import (
    run_chaff_budget_sweep,
    run_cost_privacy_tradeoff,
    run_migration_policy_comparison,
    run_online_eavesdropper_comparison,
    run_rollout_vs_myopic,
)
from .adversary import run_adversary_experiment
from .dynamic import run_dynamic_experiment
from .fleet import run_fleet_experiment
from .fig4 import run_fig4
from .fig5 import run_fig5
from .fig6 import run_fig6
from .fig7 import run_fig7
from .fig8 import run_fig8
from .fig9 import run_fig9
from .fig10 import run_fig10

__all__ = ["EXPERIMENTS", "run_experiment", "available_experiments"]

#: Experiment id -> zero-argument-friendly runner (all accept an optional config).
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "ablation-chaff-budget": run_chaff_budget_sweep,
    "ablation-cost-privacy": run_cost_privacy_tradeoff,
    "ablation-migration-policies": run_migration_policy_comparison,
    "ablation-rollout": run_rollout_vs_myopic,
    "ablation-online-eavesdropper": run_online_eavesdropper_comparison,
    "fleet": run_fleet_experiment,
    "dynamic": run_dynamic_experiment,
    "adversary": run_adversary_experiment,
}


def available_experiments() -> list[str]:
    """Identifiers of all registered experiments."""
    return sorted(EXPERIMENTS)


def _invocation_cache_key(experiment_id: str, args, kwargs) -> str | None:
    """Cache key for one ``run_experiment`` call, or ``None`` if uncacheable.

    Cacheable calls pass at most one positional argument (the config
    object, whose ``to_dict`` form enters the key) plus JSON-serialisable
    keyword arguments.  Anything else — multiple positionals, a config
    without ``to_dict``, non-JSON kwargs — bypasses the cache rather than
    risking a wrong hit.
    """
    if len(args) > 1:
        return None
    config_dict: dict = {}
    if args and args[0] is not None:
        config = args[0]
        if not hasattr(config, "to_dict"):
            return None
        config_dict = config.to_dict()
    return experiment_cache_key(experiment_id, config_dict, extra=kwargs)


def run_experiment(
    experiment_id: str,
    *args,
    cache: "ResultCache | str | Path | None" = None,
    recorder=None,
    **kwargs,
) -> ExperimentResult:
    """Run a registered experiment by id.

    Parameters
    ----------
    cache:
        Optional result cache — a :class:`~repro.sim.cache.ResultCache`
        or a directory path.  On a key hit the stored result is returned
        without running anything; on a miss the experiment runs and its
        result is stored.  Execution-only config fields (``workers``,
        ``stream``, ``run_stack``, ...) are excluded from the key, so
        cached results are shared across serial and parallel invocations.
    recorder:
        Optional :class:`~repro.telemetry.Recorder`.  The whole
        invocation runs under an ``experiment/<id>`` span, cache
        behaviour lands on the unified counter schema, and runners that
        accept a ``recorder`` keyword (the fleet experiment, for one)
        record their phase spans into it.  Telemetry is execution-only:
        it never enters the cache key and never changes the numbers.
    """
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {available_experiments()}"
        )
    recorder = NULL_RECORDER if recorder is None else recorder
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    runner = EXPERIMENTS[experiment_id]
    with recorder.span(f"experiment/{experiment_id}"):
        key = None
        if cache is not None:
            key = _invocation_cache_key(experiment_id, args, kwargs)
            if key is not None:
                cached = cache.get(key)
                if cached is not None:
                    recorder.record_stats("result_cache", cache.stats())
                    return cached
        if (
            recorder.enabled
            and "recorder" in inspect.signature(runner).parameters
        ):
            kwargs = dict(kwargs, recorder=recorder)
        result = runner(*args, **kwargs)
        if cache is not None and key is not None:
            cache.put(key, result)
        if cache is not None:
            recorder.record_stats("result_cache", cache.stats())
    return result
