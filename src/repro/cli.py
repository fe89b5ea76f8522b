"""Command-line interface for the reproduction.

Usage examples::

    repro-mec list
    repro-mec run fig4
    repro-mec run fig5 --runs 200 --horizon 100 --output results/fig5.json
    repro-mec run fig5 --workers 0          # all cores, bit-identical result
    repro-mec run fig9 --nodes 60 --towers 80
    repro-mec run fig5 --no-cache           # force a fresh simulation
    repro-mec fleet --users 50 --capacity 8 --workers 0
    repro-mec fleet --telemetry                     # end-of-run phase summary
    repro-mec run fleet --metrics-out metrics.json --trace-out trace.json

``run`` prints a human-readable summary of the experiment result and can
optionally persist the full result as JSON.  Results are cached on disk
(keyed by experiment id, config and package version) so repeat runs
return immediately; ``--no-cache`` disables the cache and ``--cache-dir``
relocates it.  ``--telemetry`` / ``--metrics-out`` / ``--trace-out``
observe a run without changing it: phase spans and unified counters are
printed as a summary table and exported as ``repro-telemetry/1`` metrics
JSON and Chrome trace-event JSON (Perfetto loadable).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .experiments.registry import available_experiments, run_experiment
from .sim.cache import ResultCache, default_cache_dir
from .sim.config import (
    AdversaryExperimentConfig,
    DynamicExperimentConfig,
    FleetExperimentConfig,
    SyntheticExperimentConfig,
    TraceExperimentConfig,
)
from .telemetry import (
    Recorder,
    default_clock,
    phase_summary_table,
    write_metrics,
    write_trace,
)

__all__ = ["build_parser", "main"]

_SYNTHETIC_EXPERIMENTS = {
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "ablation-chaff-budget",
    "ablation-cost-privacy",
    "ablation-migration-policies",
}
_TRACE_EXPERIMENTS = {"fig8", "fig9", "fig10"}


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro-mec`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-mec",
        description="Reproduce the experiments of 'Location Privacy in Mobile Edge Clouds'",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=available_experiments())
    run_parser.add_argument("--runs", type=int, default=None, help="Monte-Carlo runs")
    run_parser.add_argument("--horizon", type=int, default=None, help="slots per run")
    run_parser.add_argument("--cells", type=int, default=None, help="number of cells L")
    run_parser.add_argument("--nodes", type=int, default=None, help="taxi fleet size")
    run_parser.add_argument("--towers", type=int, default=None, help="tower count")
    run_parser.add_argument(
        "--users",
        type=int,
        default=None,
        help="fleet population M (fleet/dynamic experiments)",
    )
    run_parser.add_argument(
        "--capacity",
        type=int,
        default=None,
        help="service slots per edge site (fleet/dynamic experiments)",
    )
    run_parser.add_argument("--seed", type=int, default=2017, help="master seed")
    run_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for independent points and run shards "
        "(1 = serial, 0 = all cores; identical results)",
    )
    run_parser.add_argument(
        "--backend",
        choices=("dense", "sparse", "auto"),
        default="dense",
        help="Markov-chain storage backend (synthetic/fleet experiments; "
        "bit-identical results, sparse wins at large L)",
    )
    run_parser.add_argument(
        "--run-stack",
        type=int,
        default=None,
        help="Monte-Carlo episodes folded into one slot-kernel pass "
        "(fleet/adversary experiments; identical results)",
    )
    run_parser.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help=f"result cache directory (default: {default_cache_dir()})",
    )
    run_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache entirely",
    )
    run_parser.add_argument(
        "--output", type=str, default=None, help="write the result JSON to this path"
    )
    _add_telemetry_flags(run_parser)
    run_parser.add_argument(
        "--knowledge",
        type=str,
        default=None,
        help="comma-separated adversary knowledge levels "
        "(oracle,learned,stale; adversary experiment)",
    )
    run_parser.add_argument(
        "--coverage",
        type=str,
        default=None,
        help="comma-separated compromised-site fractions in (0, 1] "
        "(adversary experiment)",
    )
    run_parser.add_argument(
        "--coalition-sizes",
        type=str,
        default=None,
        help="comma-separated coalition member counts (adversary experiment)",
    )
    _add_dynamic_world_flags(run_parser)

    fleet_parser = subparsers.add_parser(
        "fleet",
        help="run the multi-user capacity-aware fleet experiment",
    )
    fleet_parser.add_argument(
        "--users", type=int, default=50, help="fleet population M"
    )
    fleet_parser.add_argument(
        "--capacity", type=int, default=8, help="service slots per edge site"
    )
    fleet_parser.add_argument(
        "--cells", type=int, default=25, help="number of cells (grid deployment)"
    )
    fleet_parser.add_argument(
        "--chaffs", type=int, default=1, help="chaffs per user"
    )
    fleet_parser.add_argument(
        "--strategy", type=str, default="IM", help="chaff strategy name"
    )
    fleet_parser.add_argument(
        "--runs", type=int, default=20, help="Monte-Carlo fleet runs per point"
    )
    fleet_parser.add_argument(
        "--horizon", type=int, default=100, help="slots per run"
    )
    fleet_parser.add_argument("--seed", type=int, default=2017, help="master seed")
    fleet_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for sweep points and run shards "
        "(1 = serial, 0 = all cores; identical results)",
    )
    fleet_parser.add_argument(
        "--backend",
        choices=("dense", "sparse", "auto"),
        default="dense",
        help="Markov-chain storage backend (bit-identical results, sparse "
        "wins at large L)",
    )
    fleet_parser.add_argument(
        "--stream",
        action="store_true",
        help="advance episodes in --chunk-slots windows (same memory, "
        "bit-identical results)",
    )
    fleet_parser.add_argument(
        "--chunk-slots",
        type=int,
        default=64,
        help="slots per window (with --stream; identical results)",
    )
    fleet_parser.add_argument(
        "--run-stack",
        type=int,
        default=None,
        help="Monte-Carlo episodes folded into one slot-kernel pass "
        "(identical results)",
    )
    fleet_parser.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help=f"result cache directory (default: {default_cache_dir()})",
    )
    fleet_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache entirely",
    )
    fleet_parser.add_argument(
        "--output", type=str, default=None, help="write the result JSON to this path"
    )
    _add_telemetry_flags(fleet_parser)
    _add_dynamic_world_flags(fleet_parser)
    return parser


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    """Telemetry flags shared by the ``run`` and ``fleet`` subcommands.

    All three are execution-only: recording never changes the numbers,
    the RNG streams or the result-cache key.
    """
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="record phase spans and counters; print a phase summary "
        "(identical results)",
    )
    parser.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        help="write the run's metrics (repro-telemetry/1 JSON) to this "
        "path (implies --telemetry)",
    )
    parser.add_argument(
        "--trace-out",
        type=str,
        default=None,
        help="write a Chrome trace-event JSON (Perfetto/about:tracing) "
        "to this path (implies --telemetry)",
    )


def _add_dynamic_world_flags(parser: argparse.ArgumentParser) -> None:
    """Dynamic-world flags shared by the ``run`` and ``fleet`` subcommands.

    Passing *any* of these on the ``fleet`` subcommand switches the run
    to the ``dynamic`` experiment with exactly the requested dynamics
    (unset rates stay 0, an unset period disables regime switching); on
    ``run dynamic`` they override the experiment's defaults.
    """
    parser.add_argument(
        "--failure-rate",
        type=float,
        default=None,
        help="expected site failures per slot (dynamic world)",
    )
    parser.add_argument(
        "--churn-rate",
        type=float,
        default=None,
        help="fraction of transient users in [0, 1] (dynamic world)",
    )
    parser.add_argument(
        "--regime-period",
        type=int,
        default=None,
        help="slots between mobility-regime switches (dynamic world)",
    )


def _wants_dynamic_world(args: argparse.Namespace) -> bool:
    """Whether the ``fleet`` subcommand asked for a dynamic world."""
    return any(
        getattr(args, name, None) is not None
        for name in ("failure_rate", "churn_rate", "regime_period")
    )


def _flag(args: argparse.Namespace, name: str, default):
    """A CLI flag value, falling back to ``default`` when absent or unset."""
    value = getattr(args, name, None)
    return value if value is not None else default


def _csv(value: "str | None", cast):
    """A comma-separated CLI value as a tuple, or ``None`` when unset."""
    if value is None:
        return None
    return tuple(cast(item) for item in value.split(",") if item)


def _build_config(args: argparse.Namespace, experiment_id: str):
    """Construct the appropriate config object for the chosen experiment."""
    workers = getattr(args, "workers", 1)
    backend = getattr(args, "backend", "dense")
    if experiment_id == "adversary":
        defaults = AdversaryExperimentConfig()
        knowledge = _csv(getattr(args, "knowledge", None), str)
        fractions = _csv(getattr(args, "coverage", None), float)
        sizes = _csv(getattr(args, "coalition_sizes", None), int)
        return AdversaryExperimentConfig(
            n_users=_flag(args, "users", defaults.n_users),
            n_cells=_flag(args, "cells", defaults.n_cells),
            site_capacity=_flag(args, "capacity", defaults.site_capacity),
            horizon=_flag(args, "horizon", defaults.horizon),
            n_runs=_flag(args, "runs", defaults.n_runs),
            n_chaffs=_flag(args, "chaffs", defaults.n_chaffs),
            strategy=_flag(args, "strategy", defaults.strategy),
            regime_period=_flag(args, "regime_period", defaults.regime_period),
            knowledge_levels=knowledge or defaults.knowledge_levels,
            coverage_fractions=fractions or defaults.coverage_fractions,
            coalition_sizes=sizes or defaults.coalition_sizes,
            seed=args.seed,
            workers=workers,
            run_stack=_flag(args, "run_stack", defaults.run_stack),
        )
    if experiment_id == "dynamic":
        defaults = DynamicExperimentConfig()
        # ``run dynamic`` inherits the experiment's defaults for any flag
        # the user leaves unset; the ``fleet`` subcommand switched here
        # *because* dynamic flags were given, so it enables exactly the
        # dynamics asked for and nothing else (unset rates stay 0, an
        # unset period disables regime switching).
        from_fleet = args.command == "fleet"
        regime_period = _flag(
            args, "regime_period", None if from_fleet else defaults.regime_period
        )
        return DynamicExperimentConfig(
            n_users=_flag(args, "users", defaults.n_users),
            n_cells=_flag(args, "cells", defaults.n_cells),
            site_capacity=_flag(args, "capacity", defaults.site_capacity),
            horizon=_flag(args, "horizon", defaults.horizon),
            n_runs=_flag(args, "runs", defaults.n_runs),
            n_chaffs=_flag(args, "chaffs", defaults.n_chaffs),
            strategy=_flag(args, "strategy", defaults.strategy),
            regime_model=None if regime_period is None else defaults.regime_model,
            regime_period=regime_period,
            failure_rate=_flag(
                args, "failure_rate", 0.0 if from_fleet else defaults.failure_rate
            ),
            churn_rate=_flag(
                args, "churn_rate", 0.0 if from_fleet else defaults.churn_rate
            ),
            seed=args.seed,
            workers=workers,
        )
    if experiment_id == "fleet":
        # Single construction site for both entry points: the ``fleet``
        # subcommand supplies the fleet-specific flags, the generic
        # ``run fleet`` path falls back to their defaults.
        return FleetExperimentConfig(
            n_users=_flag(args, "users", 50),
            n_cells=_flag(args, "cells", 25),
            site_capacity=_flag(args, "capacity", 8),
            horizon=_flag(args, "horizon", 100),
            n_runs=_flag(args, "runs", 20),
            n_chaffs=_flag(args, "chaffs", 1),
            strategy=_flag(args, "strategy", "IM"),
            seed=args.seed,
            workers=workers,
            backend=backend,
            stream=_flag(args, "stream", False),
            chunk_slots=_flag(args, "chunk_slots", 64),
            run_stack=_flag(args, "run_stack", 1),
        )
    if experiment_id in _TRACE_EXPERIMENTS:
        config = TraceExperimentConfig(seed=args.seed, workers=workers)
        return config.scaled(
            n_nodes=args.nodes, n_towers=args.towers, horizon=args.horizon
        )
    config = SyntheticExperimentConfig(
        seed=args.seed,
        n_cells=args.cells if args.cells is not None else 10,
        n_runs=args.runs if args.runs is not None else 1000,
        horizon=args.horizon if args.horizon is not None else 100,
        workers=workers,
        backend=backend,
    )
    return config


def _build_cache(args: argparse.Namespace) -> ResultCache | None:
    """The result cache for this invocation, or ``None`` with ``--no-cache``."""
    if getattr(args, "no_cache", False):
        return None
    # The CLI injects the sanctioned clock so the cache can report hit /
    # miss latency; the timing is an observation, never an input.
    return ResultCache(getattr(args, "cache_dir", None), clock=default_clock)


def _build_recorder(args: argparse.Namespace) -> "Recorder | None":
    """A live recorder when any telemetry flag was given, else ``None``."""
    wanted = getattr(args, "telemetry", False) or any(
        getattr(args, name, None) is not None
        for name in ("metrics_out", "trace_out")
    )
    return Recorder(clock=default_clock) if wanted else None


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        for experiment_id in available_experiments():
            print(experiment_id)
        return 0
    if args.command == "fleet":
        # Dynamic-world flags turn the fleet run into the dynamic
        # experiment (same deployment, live world).
        experiment_id = "dynamic" if _wants_dynamic_world(args) else "fleet"
    else:
        experiment_id = args.experiment
    config = _build_config(args, experiment_id)
    cache = _build_cache(args)
    recorder = _build_recorder(args)
    result = run_experiment(experiment_id, config, cache=cache, recorder=recorder)
    if cache is not None and cache.hits:
        print(f"(cached result from {cache.cache_dir})")
    for line in result.summary_lines():
        print(line)
    if args.output:
        path = result.save(args.output)
        print(f"result written to {path}")
    if recorder is not None:
        print()
        print("telemetry phase summary:")
        for line in phase_summary_table(recorder):
            print(f"  {line}")
        if cache is not None:
            stats = cache.stats()
            print(
                "result cache: "
                f"{stats['hits']} hits ({stats['hit_time_s'] * 1e3:.2f} ms), "
                f"{stats['misses']} misses "
                f"({stats['miss_time_s'] * 1e3:.2f} ms), "
                f"{stats['orphans_removed']} orphans swept"
            )
        metrics_out = getattr(args, "metrics_out", None)
        if metrics_out:
            print(f"metrics written to {write_metrics(recorder, metrics_out)}")
        trace_out = getattr(args, "trace_out", None)
        if trace_out:
            print(f"trace written to {write_trace(recorder, trace_out)}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
