"""One workload call in a fresh interpreter.

Usage: ``python3 perfbench/child.py --workload NAME --seed N [--trace]
[--size full|smoke]``, from the repository root.

The interpreter imports ``repro``, builds the workload's config and
prints ``ready`` -- the parent times set-up up to that line.  It then
makes one blocking ``run_experiment`` call with the result cache off,
checks the result and prints one JSON line with the call's wall time,
peak RSS, result digest, per-point check outcome and, with ``--trace``,
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def _peak_rss_mb() -> float:
    """Larger of this process's and its reaped pool workers' peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args()

    import repro  # noqa: F401 - the import every CLI run pays for
    from repro.experiments.registry import run_experiment

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    experiment, config, kwargs = workload.build(args.seed, args.size)
    print("ready", flush=True)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install()
        root = tracer.enter(tracing.ROOT_LAYER)
    start = time.perf_counter()
    try:
        result = run_experiment(experiment, config, cache=None, **kwargs)
        error = None
    except Exception:  # a failed call is a measured outcome, not a crash
        result, error = None, traceback.format_exc()
    wall_s = time.perf_counter() - start
    record = {
        "wall_s": wall_s,
        "episodes": workload.episodes(config),
        "n_points": workload.n_points(config),
        "peak_rss_mb": _peak_rss_mb(),
        "error": error,
    }
    if tracer is not None:
        tracer.leave(root)
        record["layers"] = tracing.summary(tracer)
        record["by_worker"] = {
            str(worker): layers for worker, layers in tracer.by_worker.items()
        }
    if result is not None:
        record["digest"] = workloads.result_digest(result)
        record["points"] = workload.points(result)
    print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
