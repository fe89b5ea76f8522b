"""Content-addressed on-disk cache for experiment results.

A full figure regeneration runs thousands of Monte-Carlo episodes; the
result, however, is a small JSON document that is a pure function of
*(experiment id, configuration, package version)*.  The cache stores each
:class:`~repro.sim.results.ExperimentResult` under the SHA-256 of that
key so repeat invocations (CLI re-runs, benchmark warm-ups, notebook
restarts) return in milliseconds instead of minutes.

Keying rules:

* the configuration enters the key as its canonical JSON form (sorted
  keys, no whitespace);
* execution-only settings that are proven not to affect the numbers —
  the ``workers`` count, the chain storage ``backend``, the window
  knobs (``stream`` / ``chunk_slots``) and ``run_stack``,
  all bit-identical by construction — are stripped first,
  so a cached serial result satisfies a parallel re-run and vice versa;
* the package version is included, so upgrading the code invalidates
  every stale entry at once;
* anything that cannot be serialised deterministically (non-JSON keyword
  arguments) makes the call uncacheable rather than silently wrong.

Besides the memo-cache, this module hosts the :class:`EpisodeStore`: an
append/iterate chunk store the store-backed fleet driver
(:func:`repro.mec.runstack.run_stacked` with ``store=``) spills completed
horizon chunks through.  Where the memo-cache maps *whole experiment
configs* to small JSON results, the episode store holds the *large array
planes of one episode*, sharded along the time axis with a manifest, so
partial episodes survive interruption and bounded-memory consumers can
iterate chunk by chunk.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np
from numpy.lib.format import open_memmap

from .results import ExperimentResult

__all__ = [
    "EXECUTION_ONLY_KEYS",
    "default_cache_dir",
    "experiment_cache_key",
    "ResultCache",
    "EpisodeStore",
]

#: Config keys that change how an experiment executes but never what it
#: computes (pinned by the worker/backend/streaming/run-stack equivalence
#: test suites).  The RPL006 contract check probes every one of these
#: against every registered experiment config, so a key listed here can
#: never leak back into a cache key.
EXECUTION_ONLY_KEYS = (
    "workers",
    "backend",
    "stream",
    "chunk_slots",
    "run_stack",
    # Telemetry knobs observe a run without touching its numbers or RNG
    # streams (pinned by the telemetry bit-identity suite), so recording
    # never fragments the cache.
    "telemetry",
    "metrics_out",
    "trace_out",
)


def default_cache_dir() -> Path:
    """Default cache location (``$REPRO_MEC_CACHE`` overrides it)."""
    override = os.environ.get("REPRO_MEC_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-mec" / "results"


def _package_version() -> str:
    # Imported lazily: ``repro/__init__`` imports the experiment registry,
    # which imports this module, so a top-level import would be circular.
    from .. import __version__

    return __version__


def experiment_cache_key(
    experiment_id: str,
    config: Mapping[str, Any] | None = None,
    *,
    extra: Mapping[str, Any] | None = None,
    version: str | None = None,
) -> str | None:
    """Stable content hash for one experiment invocation.

    Returns ``None`` when the invocation is not cacheable (some argument
    has no deterministic JSON form).
    """
    if not experiment_id:
        raise ValueError("experiment_id must be non-empty")
    payload = {
        "experiment_id": experiment_id,
        "config": {
            key: value
            for key, value in dict(config or {}).items()
            if key not in EXECUTION_ONLY_KEYS
        },
        "extra": dict(extra or {}),
        "version": version if version is not None else _package_version(),
    }
    try:
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError):
        return None
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Directory of ``<key>.json`` files holding experiment results.

    The cache is safe against concurrent writers (entries are written to
    a temporary file and atomically renamed into place) and against
    corrupt entries (unreadable files count as misses and are rewritten).
    ``hits`` / ``misses`` counters let callers report cache behaviour.

    A writer killed between creating its temporary file and the atomic
    rename leaves a ``*.tmp`` orphan behind; opening the cache sweeps
    those up (``orphans_removed`` counts them in :meth:`stats`).  The
    sweep is unconditional — the pure simulation layers may not consult
    file ages — so :meth:`put` retries its rename once in case a
    concurrent open swept a live temporary file.

    ``clock`` is an optional zero-argument monotonic clock (seconds);
    when injected — this module sits inside the no-wall-clock contract,
    so it never names one itself — :meth:`get` accumulates hit and miss
    latency, reported by :meth:`stats` and the CLI summary.
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        *,
        clock: "Any | None" = None,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self._clock = clock
        self.hit_time_s = 0.0
        self.miss_time_s = 0.0
        self.orphans_removed = self._sweep_orphans()

    def _sweep_orphans(self) -> int:
        """Delete ``*.tmp`` leftovers of interrupted writes; count them."""
        removed = 0
        if self.cache_dir.is_dir():
            for orphan in self.cache_dir.glob("*.tmp"):
                try:
                    orphan.unlink()
                except OSError:
                    continue
                removed += 1
        return removed

    def stats(self) -> "dict[str, int | float]":
        """Cache behaviour counters (including swept write orphans).

        The latency totals stay ``0.0`` unless a clock was injected at
        construction; latency is an observation, never an input, so the
        numbers of a cached run cannot depend on it.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "orphans_removed": self.orphans_removed,
            "hit_time_s": self.hit_time_s,
            "miss_time_s": self.miss_time_s,
        }

    def path_for(self, key: str) -> Path:
        """The on-disk path of a cache entry."""
        if not key:
            raise ValueError("key must be non-empty")
        return self.cache_dir / f"{key}.json"

    def get(self, key: str) -> ExperimentResult | None:
        """The cached result for ``key``, or ``None`` on a miss."""
        path = self.path_for(key)
        started = self._clock() if self._clock is not None else None
        try:
            result = ExperimentResult.load(path)
        except OSError:
            self.misses += 1
            if started is not None:
                self.miss_time_s += self._clock() - started
            return None
        except Exception:
            # Unreadable or wrong-shape entry (truncated write, foreign
            # file, older schema): a miss, so the caller recomputes and
            # overwrites it rather than crashing on stale on-disk state.
            self.misses += 1
            if started is not None:
                self.miss_time_s += self._clock() - started
            return None
        self.hits += 1
        if started is not None:
            self.hit_time_s += self._clock() - started
        return result

    def put(self, key: str, result: ExperimentResult) -> Path:
        """Store ``result`` under ``key`` and return the entry path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = json.dumps(result.to_dict(), indent=2, sort_keys=True)
        handle = tempfile.NamedTemporaryFile(
            mode="w", dir=path.parent, suffix=".tmp", delete=False
        )
        try:
            with handle:
                handle.write(blob)
            try:
                os.replace(handle.name, path)
            except FileNotFoundError:
                # A concurrent cache open swept our temporary file as an
                # orphan between write and rename; write once more.
                with open(handle.name, "w") as retry:
                    retry.write(blob)
                os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        return path

    def clear(self) -> int:
        """Delete every entry; returns the number of files removed."""
        removed = 0
        if self.cache_dir.is_dir():
            for entry in self.cache_dir.glob("*.json"):
                entry.unlink(missing_ok=True)
                removed += 1
        return removed


# ----------------------------------------------------------------------
# Episode store: append/iterate chunk shards of one streaming episode
# ----------------------------------------------------------------------


class EpisodeStore:
    """Directory of chunk shards plus a manifest for one episode.

    The store-backed fleet driver advances the horizon in fixed-size slot
    chunks and never holds a full ``(N, T)`` plane; each completed chunk
    is spilled here as ``<kind>-<index>.npy`` (atomic write), carry-over
    state snapshots land as ``carry-<index>.npz``, and full-horizon
    planes that must outlive a chunk (sampled trajectories and chaff
    plans) are disk-backed memmaps, so the writer's heap stays bounded
    by one chunk regardless of ``T``.

    The ``manifest.json`` records the episode shape, the chunk size and
    the set of completed chunks per kind; a reader (or a resumed writer)
    trusts only what the manifest lists, so a crash mid-chunk leaves a
    resumable prefix instead of a corrupt episode.
    """

    _MANIFEST = "manifest.json"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._manifest: dict[str, Any] = {"meta": {}, "chunks": {}}
        manifest_path = self.root / self._MANIFEST
        if manifest_path.is_file():
            try:
                loaded = json.loads(manifest_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                loaded = None
            if (
                isinstance(loaded, dict)
                and isinstance(loaded.get("meta"), dict)
                and isinstance(loaded.get("chunks"), dict)
            ):
                self._manifest = loaded

    # -- manifest ------------------------------------------------------
    def _flush_manifest(self) -> None:
        blob = json.dumps(self._manifest, sort_keys=True, indent=2)
        handle = tempfile.NamedTemporaryFile(
            mode="w", dir=self.root, suffix=".tmp", delete=False
        )
        try:
            with handle:
                handle.write(blob)
            os.replace(handle.name, self.root / self._MANIFEST)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    @property
    def meta(self) -> dict[str, Any]:
        """Episode-level metadata (shape, chunk size, progress flags)."""
        return dict(self._manifest["meta"])

    def update_meta(self, **entries: Any) -> None:
        """Merge JSON-serialisable entries into the episode metadata."""
        self._manifest["meta"].update(entries)
        self._flush_manifest()

    def completed(self, kind: str) -> list[int]:
        """Indices of the committed chunks of ``kind``, ascending."""
        return sorted(int(i) for i in self._manifest["chunks"].get(kind, []))

    # -- chunk shards --------------------------------------------------
    def _chunk_path(self, kind: str, index: int) -> Path:
        if "/" in kind or kind.startswith("."):
            raise ValueError(f"invalid chunk kind {kind!r}")
        return self.root / f"{kind}-{int(index):06d}.npy"

    def append_chunk(self, kind: str, index: int, array: np.ndarray) -> Path:
        """Commit one chunk shard (atomic write, then manifest update)."""
        path = self._chunk_path(kind, index)
        handle = tempfile.NamedTemporaryFile(
            dir=self.root, suffix=".tmp", delete=False
        )
        try:
            with handle:
                np.save(handle, np.ascontiguousarray(array))
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        recorded = self._manifest["chunks"].setdefault(kind, [])
        if int(index) not in recorded:
            recorded.append(int(index))
        self._flush_manifest()
        return path

    def read_chunk(self, kind: str, index: int) -> np.ndarray:
        """Load one committed chunk shard."""
        if int(index) not in self._manifest["chunks"].get(kind, []):
            raise KeyError(f"chunk {kind}-{index} is not committed")
        return np.load(self._chunk_path(kind, index))

    def iter_chunks(self, kind: str) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(index, array)`` for every committed chunk, in order."""
        for index in self.completed(kind):
            yield index, self.read_chunk(kind, index)

    # -- carry-over state ----------------------------------------------
    def save_state(self, index: int, **arrays: np.ndarray) -> Path:
        """Snapshot named carry-over arrays at one chunk boundary."""
        path = self.root / f"carry-{int(index):06d}.npz"
        handle = tempfile.NamedTemporaryFile(
            dir=self.root, suffix=".tmp", delete=False
        )
        try:
            with handle:
                np.savez(handle, **arrays)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        recorded = self._manifest["chunks"].setdefault("carry", [])
        if int(index) not in recorded:
            recorded.append(int(index))
        self._flush_manifest()
        return path

    def load_state(self, index: int) -> dict[str, np.ndarray]:
        """Reload the carry-over snapshot of one chunk boundary."""
        if int(index) not in self._manifest["chunks"].get("carry", []):
            raise KeyError(f"no carry state committed for chunk {index}")
        with np.load(self.root / f"carry-{int(index):06d}.npz") as bundle:
            return {name: bundle[name] for name in bundle.files}

    # -- disk-backed full-horizon planes -------------------------------
    def create_plane(
        self, name: str, shape: tuple[int, ...], dtype: Any = np.int64
    ) -> np.ndarray:
        """Create (or reopen) a disk-backed plane of the full episode.

        The plane is a ``.npy`` memmap: writers fill it region by region
        without ever holding it on the heap, and readers slice windows
        out of it on demand.
        """
        path = self.root / f"{name}.plane.npy"
        if path.is_file():
            plane = open_memmap(path, mode="r+")
            if plane.shape == tuple(shape):
                return plane
            del plane
        return open_memmap(path, mode="w+", dtype=dtype, shape=tuple(shape))

    def open_plane(self, name: str) -> np.ndarray:
        """Open an existing disk-backed plane read-only."""
        return open_memmap(self.root / f"{name}.plane.npy", mode="r")

    def has_plane(self, name: str) -> bool:
        """Whether a disk-backed plane of that name exists."""
        return (self.root / f"{name}.plane.npy").is_file()

    # -- lifecycle -----------------------------------------------------
    def destroy(self) -> None:
        """Delete the episode directory and everything in it."""
        if not self.root.is_dir():
            return
        for entry in self.root.iterdir():
            try:
                entry.unlink()
            except OSError:
                continue
        try:
            self.root.rmdir()
        except OSError:
            pass
