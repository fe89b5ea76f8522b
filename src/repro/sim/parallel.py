"""Parallel execution layer for the Monte-Carlo harness.

Two levels of parallelism, both *bit-identical* to their serial
counterparts:

* **Run sharding** — the ``R`` runs of one configuration are split into
  contiguous worker shards.  Each worker respawns the full list of
  per-run child seed sequences from the one master seed (children are
  derived by index, so they do not depend on the worker count or on which
  worker executes them), takes its slice, replays
  :meth:`~repro.core.game.PrivacyGame.run_batch` (or the looped episode
  path) on that slice, and the parent concatenates the shard results in
  run order.  Because every run keeps its own child generator, the
  concatenation equals the single-process result bit for bit.
* **Grid mapping** — :func:`parallel_map` distributes independent
  experiment points (one ``(strategy, model, budget)`` combination each)
  over a process pool, used by the sweeps and ablations so whole figures
  scale across cores.

Worker payloads carry only picklable data: games, chains, strategies and
detectors are plain objects, and provider callables are never shipped —
the parent invokes them once per run (preserving the serial random
streams) and sends the resulting arrays.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Sequence, TypeVar

import numpy as np

from ..core.game import BatchEpisodeResult, EpisodeResult, PrivacyGame
from ..core.eavesdropper.detector import BatchDetectionOutcome
from .seeding import spawn_sequences_range

__all__ = [
    "resolve_workers",
    "shard_slices",
    "concatenate_batches",
    "run_batch_sharded",
    "run_episodes_sharded",
    "parallel_map",
    "get_shared",
]

_T = TypeVar("_T")
_R = TypeVar("_R")


def resolve_workers(workers: int) -> int:
    """Normalise a ``workers`` request: ``0`` means all CPU cores."""
    if workers < 0:
        raise ValueError("workers must be non-negative (0 = all cores)")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def shard_slices(n_items: int, n_shards: int) -> list[slice]:
    """Split ``n_items`` into at most ``n_shards`` contiguous slices.

    Shard sizes differ by at most one and empty shards are dropped, so
    the slices always cover exactly ``range(n_items)`` in order.
    """
    if n_items < 1:
        raise ValueError("n_items must be positive")
    if n_shards < 1:
        raise ValueError("n_shards must be positive")
    n_shards = min(n_shards, n_items)
    base, extra = divmod(n_items, n_shards)
    slices = []
    start = 0
    for shard in range(n_shards):
        stop = start + base + (1 if shard < extra else 0)
        slices.append(slice(start, stop))
        start = stop
    return slices


def concatenate_batches(batches: Sequence[BatchEpisodeResult]) -> BatchEpisodeResult:
    """Concatenate shard :class:`BatchEpisodeResult`s along the run axis."""
    if not batches:
        raise ValueError("need at least one shard result")
    if len(batches) == 1:
        return batches[0]
    detection = BatchDetectionOutcome(
        chosen_indices=np.concatenate([b.detection.chosen_indices for b in batches]),
        scores=np.concatenate([b.detection.scores for b in batches], axis=0),
        candidate_indices=tuple(
            indices for b in batches for indices in b.detection.candidate_indices
        ),
    )
    return BatchEpisodeResult(
        user_trajectories=np.concatenate(
            [b.user_trajectories for b in batches], axis=0
        ),
        chaff_trajectories=np.concatenate(
            [b.chaff_trajectories for b in batches], axis=0
        ),
        observed_trajectories=np.concatenate(
            [b.observed_trajectories for b in batches], axis=0
        ),
        detection=detection,
        tracked_per_slot=np.concatenate([b.tracked_per_slot for b in batches], axis=0),
        detected_user=np.concatenate([b.detected_user for b in batches]),
    )


# ----------------------------------------------------------------------
# Worker entry points (must be module-level for pickling).


def _shard_rngs(task) -> list[np.random.Generator]:
    """The shard's per-run generators.

    When the parent did not touch the generators (no providers), workers
    respawn them by index from the master seed — the cheap path that makes
    results worker-count independent by construction.  When providers
    already drew from the generators, the parent ships the
    partially-consumed generator objects instead, preserving the exact
    serial stream position.
    """
    _, seed, start, stop, rngs, _, _, _ = task
    if rngs is not None:
        return list(rngs)
    return [
        np.random.default_rng(child)
        for child in spawn_sequences_range(seed, start, stop)
    ]


def _batch_shard_worker(task) -> BatchEpisodeResult:
    """Replay ``run_batch`` on one contiguous shard of the runs."""
    game, _, _, _, _, horizon, users, backgrounds = task
    return game.run_batch(
        _shard_rngs(task),
        horizon=horizon,
        user_trajectories=users,
        background_trajectories=backgrounds,
    )


def _episode_shard_worker(task) -> list[EpisodeResult]:
    """Replay the looped episode path on one contiguous shard of the runs."""
    game, _, _, _, _, horizon, users, backgrounds = task
    episodes = []
    for offset, rng in enumerate(_shard_rngs(task)):
        user = None if users is None else users[offset]
        background = None if backgrounds is None else backgrounds[offset]
        episodes.append(
            game.run_episode(
                rng,
                horizon=horizon if user is None else None,
                user_trajectory=user,
                background_trajectories=background,
            )
        )
    return episodes


def _shard_tasks(
    game: PrivacyGame,
    seed,
    n_runs: int,
    workers: int,
    *,
    rngs,
    horizon: int | None,
    users,
    backgrounds,
) -> list[tuple]:
    tasks = []
    for shard in shard_slices(n_runs, workers):
        tasks.append(
            (
                game,
                seed,
                shard.start,
                shard.stop,
                None if rngs is None else rngs[shard],
                horizon,
                None if users is None else users[shard],
                None if backgrounds is None else backgrounds[shard],
            )
        )
    return tasks


def run_batch_sharded(
    game: PrivacyGame,
    seed,
    n_runs: int,
    workers: int,
    *,
    rngs: Sequence[np.random.Generator] | None = None,
    horizon: int | None = None,
    user_trajectories: np.ndarray | None = None,
    background_trajectories: np.ndarray | None = None,
) -> BatchEpisodeResult:
    """``PrivacyGame.run_batch`` over a process pool, bit-identical to serial.

    ``rngs`` carries the parent's per-run generators when their state has
    already advanced (provider draws); otherwise workers respawn children
    from ``seed`` by index.
    """
    workers = min(resolve_workers(workers), n_runs)
    tasks = _shard_tasks(
        game,
        seed,
        n_runs,
        workers,
        rngs=rngs,
        horizon=horizon,
        users=user_trajectories,
        backgrounds=background_trajectories,
    )
    if len(tasks) == 1:
        shards = [_batch_shard_worker(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            shards = list(pool.map(_batch_shard_worker, tasks))
    return concatenate_batches(shards)


def run_episodes_sharded(
    game: PrivacyGame,
    seed,
    n_runs: int,
    workers: int,
    *,
    rngs: Sequence[np.random.Generator] | None = None,
    horizon: int | None = None,
    user_trajectories: "Sequence[np.ndarray] | None" = None,
    background_trajectories: "Sequence[np.ndarray | None] | None" = None,
) -> list[EpisodeResult]:
    """The looped episode path over a process pool (serial for a single
    worker), in run order.

    Unlike :func:`run_batch_sharded` the per-run trajectories may be
    ragged (a plain list), which is what the harness falls back to when
    provider outputs cannot be stacked.
    """
    workers = min(resolve_workers(workers), n_runs)
    tasks = _shard_tasks(
        game,
        seed,
        n_runs,
        workers,
        rngs=rngs,
        horizon=horizon,
        users=user_trajectories,
        backgrounds=background_trajectories,
    )
    if len(tasks) == 1:
        shards = [_episode_shard_worker(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            shards = list(pool.map(_episode_shard_worker, tasks))
    return [episode for shard in shards for episode in shard]


# The one worker-side payload shipped outside the task tuples.  Shard
# workers that map over many tasks sharing one big immutable object (a
# FleetSimulation with its hop matrix, say) would otherwise pickle that
# object into every task; parallel_map's ``shared`` channel ships it
# once per worker instead — fork-inherited where the platform allows,
# via the pool initializer elsewhere — and :func:`get_shared` reads it
# back inside the worker function.
_SHARED: Any = None


def _set_shared(value: Any) -> None:
    global _SHARED
    _SHARED = value


def get_shared() -> Any:
    """The object the current :func:`parallel_map` call shipped to workers."""
    return _SHARED


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    *,
    workers: int = 1,
    shared: Any = None,
    recorder: Any = None,
) -> list[_R]:
    """Map ``fn`` over ``items``, optionally across a process pool.

    Results come back in input order.  ``workers=1`` runs the plain
    serial loop (no pool, no pickling); ``workers=0`` uses all cores.
    ``fn`` and the items must be picklable when ``workers != 1`` — the
    experiment layer passes module-level point functions and plain
    (chain, strategy, detector, seed) payloads.

    ``shared`` ships one additional object to every worker *once* (not
    per task): on fork platforms the pool's children inherit it with the
    process image, elsewhere the pool initializer delivers one pickled
    copy per worker.  Workers read it back with :func:`get_shared`; the
    serial path binds it around the loop, so ``fn`` is oblivious to the
    worker count.

    ``recorder`` (a :class:`repro.telemetry.Recorder`) attributes the
    map to the parent trace: one ``parallel/map`` span over the whole
    call plus task/worker counters.  Worker-side telemetry travels back
    through the results — shard workers that record locally return their
    recorder state for the caller to merge with worker attribution.
    """
    items = list(items)
    workers = min(resolve_workers(workers), max(len(items), 1))
    if recorder is not None and recorder.enabled:
        recorder.counter("parallel/maps")
        recorder.counter("parallel/tasks", len(items))
        recorder.gauge("parallel/workers", workers)
        with recorder.span("parallel/map", tasks=len(items), workers=workers):
            return parallel_map(fn, items, workers=workers, shared=shared)
    if workers == 1 or len(items) <= 1:
        if shared is None:
            return [fn(item) for item in items]
        previous = _SHARED
        _set_shared(shared)
        try:
            return [fn(item) for item in items]
        finally:
            _set_shared(previous)
    if shared is None:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        context = None
    previous = _SHARED
    _set_shared(shared)
    try:
        if context is not None:
            with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
                return list(pool.map(fn, items))
        with ProcessPoolExecutor(  # pragma: no cover - platform without fork
            max_workers=workers, initializer=_set_shared, initargs=(shared,)
        ) as pool:
            return list(pool.map(fn, items))
    finally:
        _set_shared(previous)
