"""Per-layer tracing of repro, installed from outside the program.

``install()`` replaces the public functions of each layer with timing
wrappers; nothing in ``src/`` is edited.  A wrapped call opens a span on
the process-local :class:`Tracer` stack; when it ends, its duration minus
the time its child spans covered is added to the layer's self time.  A
call nested directly inside a span of the same layer (a subclass calling
``super()``, the batch default looping over ``generate``, ``parallel_map``
re-entering itself) runs unwrapped, so counts are outermost entries.

Pool work is kept: process-pool tasks are wrapped in :class:`_TracedTask`,
which runs in the forked worker, traces it with the inherited wrappers
and ships the worker's layer totals back with the result.  The main
process merges them with worker attribution (worker 0 is the main process).

Install before any pool forks: workers inherit the wrappers with the
process image.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

#: Counts that are a pure function of the workload and seed; a traced run
#: asserts they repeat exactly.
EXACT_COUNTS = (
    "alg1.calls",
    "detmap.calls",
    "viterbi.calls",
    "placement.resolve.calls",
    "placement.rejected",
    "placement.spilled",
    "parallel.task_bytes",
    "spill.bytes",
    "adversary.cache.hits",
    "adversary.cache.misses",
)

#: Layer whose self time is the main process's time outside every other layer.
ROOT_LAYER = "other"


class Tracer:
    """Span stack, per-layer totals and counters of one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []  # open spans: [layer, child seconds]
        self.layers: dict[str, list] = {}  # layer -> [calls, self seconds]
        self.counts: Counter = Counter()
        self.points: list[float] = []  # sweep-point latencies, seconds
        self.score_caches: list = []
        self.in_map = False
        self.pool_busy_s = 0.0
        self.pool_capacity_s = 0.0  # pool workers x pooled span
        self.by_worker: dict[int, dict[str, float]] = {}
        self.worker_ids: dict[int, int] = {}

    def enter(self, layer: str) -> list:
        frame = [layer, 0.0, time.perf_counter()]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list) -> float:
        elapsed = time.perf_counter() - frame[2]
        self.stack.pop()
        if self.stack:
            self.stack[-1][1] += elapsed
        entry = self.layers.setdefault(frame[0], [0, 0.0])
        entry[0] += 1
        entry[1] += elapsed - frame[1]
        return elapsed

    def export(self, busy_s: float = 0.0) -> dict:
        """Picklable totals of this process (plus what it merged)."""
        counts = Counter(self.counts)
        for cache in self.score_caches:
            stats = cache.stats()
            counts["adversary.cache.hits"] += int(stats["hits"])
            counts["adversary.cache.misses"] += int(stats["misses"])
        return {
            "pid": os.getpid(),
            "busy_s": busy_s,
            "layers": {k: list(v) for k, v in self.layers.items()},
            "counts": dict(counts),
            "points": list(self.points),
        }

    def merge(self, payload: dict) -> None:
        """Fold a pool worker's totals in, attributed to that worker."""
        worker = self.worker_ids.setdefault(payload["pid"], len(self.worker_ids) + 1)
        own = self.by_worker.setdefault(worker, {})
        for layer, (calls, self_s) in payload["layers"].items():
            entry = self.layers.setdefault(layer, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
            own[layer] = own.get(layer, 0.0) + self_s
        self.counts.update(payload["counts"])
        self.points.extend(payload["points"])
        self.pool_busy_s += payload["busy_s"]


_TRACER = Tracer()


class _TracedTask:
    """A pool task that traces itself in the worker and ships the totals."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def __call__(self, *args):
        _TRACER.reset()  # drop the parent's state inherited through fork
        start = time.perf_counter()
        result = self.fn(*args)
        return result, _TRACER.export(busy_s=time.perf_counter() - start)


# ----------------------------------------------------------------------
# Wrapper factories.


def _span(layer: str, on_return=None):
    """A span of ``layer`` around each call, then ``on_return`` counts."""

    def factory(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = _TRACER
            if tracer.stack and tracer.stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        return wrapper

    return factory


def _latency(fn):
    """Sweep-point latency only: no span, so no effect on self times."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        _TRACER.points.append(time.perf_counter() - start)
        return result

    return wrapper


def _observe(on_return):
    """Counts taken from a call's result; no span."""

    def factory(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_return(_TRACER, args, kwargs, result)
            return result

        return wrapper

    return factory


def _count_maps(fn):
    @functools.wraps(fn)
    def wrapper(fn_arg, items, **kwargs):
        tracer = _TRACER
        if tracer.in_map:
            return fn(fn_arg, items, **kwargs)
        items = list(items)
        tracer.counts["parallel.maps"] += 1
        tracer.counts["parallel.tasks"] += len(items)
        tracer.in_map = True
        try:
            return fn(fn_arg, items, **kwargs)
        finally:
            tracer.in_map = False

    return wrapper


# ----------------------------------------------------------------------
# Result observers.


def _fleet_statistics_counts(tracer, args, kwargs, statistics) -> None:
    tracer.counts["placement.rejected"] += int(statistics.rejected_runs.sum())
    tracer.counts["placement.spilled"] += int(statistics.spilled_runs.sum())


def _fleet_reports_counts(tracer, args, kwargs, reports) -> None:
    for report in reports:
        tracer.counts["placement.rejected"] += int(report.placement.rejected)
        tracer.counts["placement.spilled"] += int(report.placement.spilled)


def _detmap_trajectories(tracer, args, kwargs, outcome) -> None:
    trajectories = args[2] if len(args) > 2 else kwargs["trajectories"]
    shape = getattr(trajectories, "shape", ())
    tracer.counts["detmap.trajectories"] += int(shape[0] * shape[1])


def _spill_bytes(tracer, args, kwargs, path) -> None:
    array = args[3] if len(args) > 3 else kwargs["array"]
    tracer.counts["spill.chunks"] += 1
    tracer.counts["spill.bytes"] += int(array.nbytes)


# ----------------------------------------------------------------------
# Installation.


def _subclasses(cls) -> list:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found


def _patch_function(module: str, name: str, make) -> None:
    """Rebind every ``repro`` module's reference to one function."""
    original = getattr(importlib.import_module(module), name)
    wrapper = make(original)
    bound = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                bound += 1
    if bound == 0:
        raise RuntimeError(f"{module}.{name} is bound nowhere")


def _patch_methods(base, names, make, *, skip=()) -> None:
    """Wrap each method a class in ``base``'s hierarchy defines itself."""
    patched = 0
    for cls in _subclasses(base):
        if cls in skip:
            continue
        for name in names:
            if name in vars(cls):
                setattr(cls, name, make(vars(cls)[name]))
                patched += 1
    if patched == 0:
        raise RuntimeError(f"no {names} method found under {base.__name__}")


def _patch_pool() -> None:
    original_map = ProcessPoolExecutor.map
    original_shutdown = ProcessPoolExecutor.shutdown

    def traced_map(self, fn, *iterables, timeout=None, chunksize=1):
        tracer = _TRACER
        iterables = [list(items) for items in iterables]
        for item in zip(*iterables):
            tracer.counts["parallel.task_bytes"] += len(
                pickle.dumps((fn, item), protocol=pickle.HIGHEST_PROTOCOL)
            )
        frame = tracer.enter("parallel.pool")
        try:
            outputs = list(
                original_map(
                    self,
                    _TracedTask(fn),
                    *iterables,
                    timeout=timeout,
                    chunksize=chunksize,
                )
            )
        finally:
            elapsed = tracer.leave(frame)
        tracer.pool_capacity_s += self._max_workers * elapsed
        results = []
        for result, payload in outputs:
            tracer.merge(payload)
            results.append(result)
        return iter(results)

    def traced_shutdown(self, *args, **kwargs):
        frame = _TRACER.enter("parallel.pool")
        try:
            return original_shutdown(self, *args, **kwargs)
        finally:
            _TRACER.leave(frame)

    ProcessPoolExecutor.map = traced_map
    ProcessPoolExecutor.shutdown = traced_shutdown


def _register_score_caches(cls) -> None:
    original_init = cls.__init__

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        _TRACER.score_caches.append(self)

    cls.__init__ = init


def install() -> Tracer:
    """Wrap every timed layer function; returns the process tracer."""
    import repro  # noqa: F401 - binds the package-level re-exports
    from repro.adversary.detector import AdversaryDetector
    from repro.adversary.knowledge import KnowledgeModel
    from repro.adversary.score_cache import ScoreComponentCache
    from repro.core.eavesdropper.advanced import StrategyAwareDetector
    from repro.core.eavesdropper.detector import TrajectoryDetector
    from repro.core.game import PrivacyGame
    from repro.core.strategies.base import ChaffStrategy
    from repro.mec.fleet import FleetReport, FleetSimulation
    from repro.mec.placement import PlacementEngine
    from repro.mec.runstack import StackedRunOutcome
    from repro.mec.streaming import StreamingFleetReport
    from repro.mobility.markov import MarkovChain
    from repro.sim.cache import EpisodeStore
    from repro.sim.monte_carlo import MonteCarloRunner
    from repro.world.timeline import Timeline

    _patch_function("repro.mobility.models", "paper_synthetic_models", _span("mobility.build"))
    _patch_methods(
        MarkovChain,
        ("sample_trajectories_batch", "evolve_from_uniforms"),
        _span("mobility.sample"),
    )
    _patch_methods(ChaffStrategy, ("generate", "generate_batch"), _span("strategies.generate"))
    _patch_methods(ChaffStrategy, ("deterministic_map",), _span("detmap"))
    _patch_function(
        "repro.core.strategies.optimal_offline", "solve_optimal_offline", _span("alg1")
    )
    _patch_function("repro.core.trellis", "most_likely_trajectory", _span("viterbi"))
    _patch_methods(
        TrajectoryDetector,
        ("detect", "detect_crowd"),
        _span("detect"),
        skip=(AdversaryDetector,),
    )
    _patch_methods(
        TrajectoryDetector,
        ("detect_batch",),
        _span("detect"),
        skip=(AdversaryDetector, StrategyAwareDetector),
    )
    StrategyAwareDetector.detect_batch = _span("detect", _detmap_trajectories)(
        StrategyAwareDetector.detect_batch
    )
    _patch_methods(PrivacyGame, ("run_batch",), _span("game"))
    _patch_methods(MonteCarloRunner, ("run",), _span("game"))
    _patch_methods(PlacementEngine, ("resolve_moves",), _span("placement.resolve"))
    _patch_methods(FleetSimulation, ("run", "run_stacked"), _span("fleet.kernel"))
    _patch_methods(EpisodeStore, ("append_chunk",), _span("spill", _spill_bytes))
    _patch_methods(FleetReport, ("evaluate",), _span("score"))
    _patch_methods(StreamingFleetReport, ("evaluate",), _span("score"))
    _patch_methods(StackedRunOutcome, ("to_metrics",), _span("score"))
    _patch_methods(AdversaryDetector, ("detect_crowd",), _span("score"))
    _patch_methods(KnowledgeModel, ("scoring_model",), _span("adversary.fit"))
    _patch_methods(Timeline, ("compile",), _span("world.compile"))
    _patch_function("repro.analysis.metrics", "aggregate_batch", _span("analysis.aggregate"))
    _register_score_caches(ScoreComponentCache)
    _patch_function("repro.sim.parallel", "parallel_map", _count_maps)
    _patch_pool()
    _patch_function(
        "repro.mec.fleet", "run_fleet_monte_carlo", _observe(_fleet_statistics_counts)
    )
    _patch_function(
        "repro.adversary.monte_carlo",
        "simulate_fleet_reports",
        _observe(_fleet_reports_counts),
    )
    for module, name in (
        ("repro.sim.runner", "sweep_strategies"),
        ("repro.experiments.fleet", "_fleet_point"),
        ("repro.experiments.adversary", "_evaluate_point"),
    ):
        _patch_function(module, name, _latency)
    _TRACER.reset()
    return _TRACER


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def summary(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced call (after the root span closed)."""
    layers = tracer.layers

    def calls(layer: str) -> int:
        return int(layers.get(layer, (0, 0.0))[0])

    def self_s(layer: str) -> float:
        return float(layers.get(layer, (0, 0.0))[1])

    counts = Counter(tracer.export()["counts"])
    metrics: dict[str, float] = {}
    for name in (
        "mobility.sample",
        "strategies.generate",
        "alg1",
        "detmap",
        "viterbi",
        "detect",
        "placement.resolve",
        "score",
    ):
        metrics[f"{name}.calls"] = calls(name)
    for name in (
        "mobility.build",
        "mobility.sample",
        "strategies.generate",
        "alg1",
        "detmap",
        "viterbi",
        "detect",
        "game",
        "placement.resolve",
        "fleet.kernel",
        "spill",
        "score",
        "adversary.fit",
        "world.compile",
        "analysis.aggregate",
        ROOT_LAYER,
    ):
        metrics[f"{name}.self_s"] = self_s(name)
    trajectories = counts["detmap.trajectories"]
    metrics["detmap.reuse_ratio"] = (
        1.0 - calls("detmap") / trajectories if trajectories else 0.0
    )
    for name in (
        "parallel.maps",
        "parallel.tasks",
        "parallel.task_bytes",
        "placement.rejected",
        "placement.spilled",
        "spill.chunks",
        "spill.bytes",
        "adversary.cache.hits",
        "adversary.cache.misses",
    ):
        metrics[name] = int(counts[name])
    metrics["parallel.wait_s"] = self_s("parallel.pool")
    metrics["parallel.busy_ratio"] = (
        tracer.pool_busy_s / tracer.pool_capacity_s if tracer.pool_capacity_s else 0.0
    )
    lookups = counts["adversary.cache.hits"] + counts["adversary.cache.misses"]
    metrics["adversary.cache.hit_ratio"] = (
        counts["adversary.cache.hits"] / lookups if lookups else 0.0
    )
    metrics["point.p50_s"] = _quantile(tracer.points, 0.5)
    metrics["point.p90_s"] = _quantile(tracer.points, 0.9)
    return metrics
