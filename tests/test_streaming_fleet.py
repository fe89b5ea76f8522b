"""Tests for the windowed and the store-backed fleet driver.

The load-bearing contract is **chunk-boundary bit-identity**: for any
chunk size (including 1, a prime that straddles every event, the whole
horizon, and larger-than-the-horizon), any run-stack size and any worker
count, ``run_stacked(..., engine="stream")`` — in memory or spilling to
an :class:`~repro.sim.cache.EpisodeStore` — reproduces the batch
engine's report bit-for-bit (planes, ledgers, placement stats and
evaluations) for static worlds and for dynamic timelines whose events
land exactly on chunk edges.  Around that sit the subsystem suites: the
episode store's append/iterate surface, resume after a crash at each of
a chunk's three commits, the store's episode fingerprint, incremental
detector scoring, the result cache's orphan sweep, and the CLI knobs.

The worker count of the Monte-Carlo tests comes from
``REPRO_TEST_WORKERS`` (default 2).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.cli import _build_config, build_parser, main
from repro.core.eavesdropper.detector import (
    MaximumLikelihoodDetector,
    RandomGuessDetector,
)
from repro.core.strategies import get_strategy
from repro.mec.fleet import (
    FLEET_ENGINES,
    FULL_PLANE_LIMIT,
    FleetSimulation,
    FleetSimulationConfig,
    materialise_full_plane,
    run_fleet_monte_carlo,
)
from repro.mec.topology import MECTopology
from repro.mobility.grid import GridTopology
from repro.mobility.models import paper_synthetic_models
from repro.sim.cache import EpisodeStore, ResultCache
from repro.world import (
    CapacityChange,
    RegimeSwitch,
    SiteDown,
    SiteUp,
    Timeline,
    UserArrival,
    UserDeparture,
)

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))

HORIZON = 30
#: Chunk sizes: 1, a prime, exactly T, larger than T.
CHUNK_SIZES = (1, 7, HORIZON, HORIZON + 13)
#: Run-stack sizes: one episode, a pair, more runs than chunk-7 windows.
STACK_SIZES = (1, 2, 9)


@pytest.fixture(scope="module")
def chain9():
    return paper_synthetic_models(9, seed=2017)["non-skewed"]


@pytest.fixture(scope="module")
def regime9():
    return paper_synthetic_models(9, seed=2017)["temporally-skewed"]


@pytest.fixture(scope="module")
def grid9():
    return MECTopology.from_grid(GridTopology(3, 3), capacity=4)


def _edge_timeline(regime) -> Timeline:
    """A rich dynamic world with events exactly on chunk-7 edges.

    Chunk size 7 over T=30 has boundaries at slots 7, 14, 21 and 28;
    every event class fires on one of them (regime switches, failures,
    recoveries, capacity shocks, churn in both directions) so carry-over
    state crosses a boundary in every transition the kernel knows.
    """
    return Timeline(
        events=(
            RegimeSwitch(slot=7, regime=1),
            RegimeSwitch(slot=21, regime=0),
            SiteDown(slot=7, cell=4),
            SiteUp(slot=14, cell=4),
            CapacityChange(slot=14, cell=0, capacity=1),
            SiteDown(slot=28, cell=1),
            UserArrival(slot=7, user=2),
            UserDeparture(slot=28, user=2),
            UserDeparture(slot=14, user=0),
            UserArrival(slot=21, user=5),
        ),
        regime_chains=(regime,),
    )


def _make_sim(chain, grid, timeline=None) -> FleetSimulation:
    return FleetSimulation(
        grid,
        chain,
        strategy=get_strategy("IM"),
        config=FleetSimulationConfig(
            n_users=6, horizon=HORIZON, n_chaffs=(1, 2, 1, 0, 2, 1)
        ),
        timeline=timeline,
    )


def _stored(simulation, seed, root, chunk_slots=7, store_class=EpisodeStore):
    """One store-backed episode spilled under ``root``."""
    return simulation.run_stacked(
        [seed], engine="stream", chunk_slots=chunk_slots, store=store_class(root)
    )


def assert_reports_identical(batch, streamed) -> None:
    """Bit-identity across every field the paper's figures consume."""
    assert np.array_equal(batch.user_trajectories, streamed.user_trajectories)
    assert np.array_equal(
        batch.observations.trajectories, streamed.observations.trajectories
    )
    assert np.array_equal(
        batch.observations.service_ids, streamed.observations.service_ids
    )
    assert np.array_equal(
        batch.observations.owner_ids, streamed.observations.owner_ids
    )
    assert np.array_equal(
        batch.observations.real_rows, streamed.observations.real_rows
    )
    assert batch.placement.as_dict() == streamed.placement.as_dict()
    if batch.windows is None:
        assert streamed.windows is None
    else:
        assert np.array_equal(batch.windows, streamed.windows)
    for expected, got in zip(batch.ledgers, streamed.ledgers, strict=True):
        assert expected.migration_total == got.migration_total
        assert expected.communication_total == got.communication_total
        assert expected.chaff_total == got.chaff_total
        assert expected.migrations == got.migrations
        assert expected.per_slot_totals == got.per_slot_totals


# ----------------------------------------------------------------------
# Tentpole: chunk-boundary bit-identity across every knob
# ----------------------------------------------------------------------


class TestStreamBatchIdentity:
    @pytest.mark.parametrize("chunk_slots", CHUNK_SIZES)
    @pytest.mark.parametrize("run_stack", STACK_SIZES)
    def test_static_world(self, chain9, grid9, chunk_slots, run_stack):
        seeds = [123 + run for run in range(run_stack)]
        streamed = _make_sim(chain9, grid9).run_stacked(
            seeds, engine="stream", chunk_slots=chunk_slots
        )
        for seed, report in zip(seeds, streamed.to_reports(), strict=True):
            batch = _make_sim(chain9, grid9).run(seed, engine="batch")
            assert_reports_identical(batch, report)

    @pytest.mark.parametrize("chunk_slots", CHUNK_SIZES)
    @pytest.mark.parametrize("run_stack", STACK_SIZES)
    def test_dynamic_world_events_on_chunk_edges(
        self, chain9, regime9, grid9, chunk_slots, run_stack
    ):
        timeline = _edge_timeline(regime9)
        seeds = [321 + run for run in range(run_stack)]
        streamed = _make_sim(chain9, grid9, timeline).run_stacked(
            seeds, engine="stream", chunk_slots=chunk_slots
        )
        for seed, report in zip(seeds, streamed.to_reports(), strict=True):
            batch = _make_sim(chain9, grid9, timeline).run(seed, engine="batch")
            assert_reports_identical(batch, report)

    @pytest.mark.parametrize("chunk_slots", CHUNK_SIZES)
    @pytest.mark.parametrize("dynamic", [False, True])
    def test_store_backed_episode(
        self, chain9, regime9, grid9, tmp_path, chunk_slots, dynamic
    ):
        timeline = _edge_timeline(regime9) if dynamic else None
        batch = _make_sim(chain9, grid9, timeline).run(321, engine="batch")
        streamed = _stored(
            _make_sim(chain9, grid9, timeline), 321, tmp_path / "ep", chunk_slots
        )
        assert streamed.store.completed("histories") == list(
            range(-(-HORIZON // chunk_slots))
        )
        assert_reports_identical(batch, streamed.materialise())

    @pytest.mark.parametrize("dynamic", [False, True])
    def test_evaluations_are_identical(self, chain9, regime9, grid9, dynamic):
        timeline = _edge_timeline(regime9) if dynamic else None
        batch = _make_sim(chain9, grid9, timeline).run(99, engine="batch")
        streamed = _make_sim(chain9, grid9, timeline).run(
            99, engine="stream", chunk_slots=7
        )
        for detector in (MaximumLikelihoodDetector(), RandomGuessDetector()):
            expected = batch.evaluate(chain9, detector)
            got = streamed.evaluate(chain9, detector)
            assert np.array_equal(expected.chosen_rows, got.chosen_rows)
            assert np.array_equal(
                expected.detected_per_user, got.detected_per_user
            )
            assert np.array_equal(
                expected.tracking_per_user, got.tracking_per_user
            )

    def test_monte_carlo_stream_engine(self, chain9, grid9):
        def sim():
            return FleetSimulation(
                grid9,
                chain9,
                strategy=get_strategy("IM"),
                config=FleetSimulationConfig(n_users=4, horizon=12, n_chaffs=1),
            )

        batch = run_fleet_monte_carlo(sim(), n_runs=3, seed=17, workers=WORKERS)
        streamed = run_fleet_monte_carlo(
            sim(),
            n_runs=3,
            seed=17,
            workers=WORKERS,
            engine="stream",
            chunk_slots=5,
        )
        assert np.array_equal(batch.detection_runs, streamed.detection_runs)
        assert np.array_equal(batch.tracking_runs, streamed.tracking_runs)
        assert np.array_equal(batch.cost_runs, streamed.cost_runs)
        assert np.array_equal(batch.migrations_runs, streamed.migrations_runs)

    def test_run_validates_engine_and_knobs(self, chain9, grid9, tmp_path):
        sim = _make_sim(chain9, grid9)
        assert "stream" in FLEET_ENGINES
        with pytest.raises(ValueError, match="engine"):
            sim.run(1, engine="vectorised")
        with pytest.raises(ValueError, match="chunk_slots"):
            sim.run(1, engine="stream", chunk_slots=0)
        store = EpisodeStore(tmp_path / "ep")
        with pytest.raises(ValueError, match="chunk_slots"):
            sim.run_stacked([1], engine="stream", chunk_slots=0, store=store)
        with pytest.raises(ValueError, match="one seed"):
            sim.run_stacked([1, 2], engine="stream", store=store)
        with pytest.raises(ValueError, match="at least one seed"):
            sim.run_stacked([])


# ----------------------------------------------------------------------
# Incremental evaluation: chunked scoring without a plane
# ----------------------------------------------------------------------


class TestIncrementalEvaluate:
    @pytest.mark.parametrize("dynamic", [False, True])
    @pytest.mark.parametrize("chunk_slots", [1, 7, HORIZON + 13])
    def test_chunked_scores_match_batch(
        self, chain9, regime9, grid9, tmp_path, dynamic, chunk_slots
    ):
        timeline = _edge_timeline(regime9) if dynamic else None
        batch = _make_sim(chain9, grid9, timeline).run(55, engine="batch")
        streamed = _stored(
            _make_sim(chain9, grid9, timeline), 55, tmp_path / "ep", chunk_slots
        )
        for detector in (MaximumLikelihoodDetector(), RandomGuessDetector()):
            expected = batch.evaluate(chain9, detector)
            got = streamed.evaluate(chain9, detector)
            # Choices and detections are exact; tracking is an exact
            # integer count over the horizon, so it is too.
            assert np.array_equal(expected.chosen_rows, got.chosen_rows)
            assert np.array_equal(expected.detected_per_user, got.detected_per_user)
            assert np.allclose(expected.tracking_per_user, got.tracking_per_user)

    def test_streamed_totals_match_batch(self, chain9, grid9, tmp_path):
        batch = _make_sim(chain9, grid9).run(5, engine="batch")
        streamed = _stored(_make_sim(chain9, grid9), 5, tmp_path / "ep")
        assert np.array_equal(batch.per_user_cost, streamed.per_user_cost)
        assert batch.total_cost == streamed.total_cost
        assert batch.total_migrations == streamed.total_migrations
        assert streamed.n_users == 6
        assert streamed.horizon == HORIZON

    def test_plane_chunks_cover_the_horizon(self, chain9, grid9, tmp_path):
        streamed = _stored(_make_sim(chain9, grid9), 5, tmp_path / "ep")
        batch = _make_sim(chain9, grid9).run(5, engine="batch")
        rebuilt = np.concatenate(
            [chunk for _, _, chunk in streamed.iter_plane_chunks()], axis=1
        )
        assert np.array_equal(rebuilt, batch.observations.trajectories)
        edges = [start for start, _, _ in streamed.iter_plane_chunks()]
        assert edges == [0, 7, 14, 21, 28]


# ----------------------------------------------------------------------
# Resumable episodes
# ----------------------------------------------------------------------


class _Crash(RuntimeError):
    pass


def _crashing_store(commit: str):
    """An episode store whose ``commit`` of chunk 1 raises, once.

    ``commit`` is one of a chunk's three writes, in commit order:
    ``"histories"`` and ``"per_slot"`` (chunk shards), then ``"carry"``
    (the kernel's carry snapshot).
    """

    class CrashingStore(EpisodeStore):
        armed = True

        def _maybe_crash(self, kind: str, index: int) -> None:
            if CrashingStore.armed and (kind, index) == (commit, 1):
                CrashingStore.armed = False
                raise _Crash(f"crash while committing {kind}-{index}")

        def append_chunk(self, kind, index, array):
            self._maybe_crash(kind, index)
            return super().append_chunk(kind, index, array)

        def save_state(self, index, **arrays):
            self._maybe_crash("carry", index)
            return super().save_state(index, **arrays)

    return CrashingStore


class _CountingStore(EpisodeStore):
    """An episode store that counts its writes."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.writes: list[str] = []

    def create_plane(self, name, shape, dtype=np.int64):
        self.writes.append(f"plane-{name}")
        return super().create_plane(name, shape, dtype)

    def append_chunk(self, kind, index, array):
        self.writes.append(f"{kind}-{index}")
        return super().append_chunk(kind, index, array)

    def save_state(self, index, **arrays):
        self.writes.append(f"carry-{index}")
        return super().save_state(index, **arrays)


class TestResumableEpisodes:
    #: What the store holds after a crash at each commit of chunk 1.
    CRASH_STATES = {
        "histories": ([0], [0], [0]),
        "per_slot": ([0, 1], [0], [0]),
        "carry": ([0, 1], [0, 1], [0]),
    }

    def test_interrupted_episode_resumes_bit_identically(
        self, chain9, regime9, grid9, tmp_path
    ):
        timeline = _edge_timeline(regime9)
        batch = _make_sim(chain9, grid9, timeline).run(11, engine="batch")
        for commit, committed in self.CRASH_STATES.items():
            root = tmp_path / commit
            with pytest.raises(_Crash):
                _stored(
                    _make_sim(chain9, grid9, timeline),
                    11,
                    root,
                    store_class=_crashing_store(commit),
                )
            store = EpisodeStore(root)
            held = tuple(
                store.completed(kind) for kind in ("histories", "per_slot", "carry")
            )
            assert held == committed, commit
            # A fresh simulation over the reopened store resumes after
            # chunk 0, the last one with a carry snapshot, and rewrites
            # whatever chunk 1 had committed before the crash.
            resumed = _stored(_make_sim(chain9, grid9, timeline), 11, root)
            assert resumed.store.completed("carry") == [0, 1, 2, 3, 4], commit
            assert_reports_identical(batch, resumed.materialise())

    def test_completed_episode_reloads_without_replay(
        self, chain9, grid9, tmp_path
    ):
        first = _stored(_make_sim(chain9, grid9), 3, tmp_path / "ep")
        again = _stored(
            _make_sim(chain9, grid9), 3, tmp_path / "ep", store_class=_CountingStore
        )
        # Neither sampled nor advanced again: nothing is written.
        assert again.store.writes == []
        assert np.array_equal(first.per_user_cost, again.per_user_cost)
        assert np.array_equal(first.order, again.order)
        assert first.placement.as_dict() == again.placement.as_dict()

    def test_store_rejects_a_different_episode(
        self, chain9, regime9, grid9, tmp_path
    ):
        root = tmp_path / "episode"
        _stored(_make_sim(chain9, grid9), 3, root)
        # Same seed and shape, different mobility chain: a resume would
        # splice the other chain's trajectories into this episode.
        with pytest.raises(ValueError, match="different episode"):
            _stored(_make_sim(regime9, grid9), 3, root)
        with pytest.raises(ValueError, match="different episode"):
            _stored(_make_sim(chain9, grid9), 4, root)
        with pytest.raises(ValueError, match="different episode"):
            _stored(_make_sim(chain9, grid9), 3, root, chunk_slots=5)


# ----------------------------------------------------------------------
# Episode store
# ----------------------------------------------------------------------


class TestEpisodeStore:
    def test_chunk_round_trip_and_manifest(self, tmp_path):
        store = EpisodeStore(tmp_path / "ep")
        first = np.arange(12, dtype=np.int64).reshape(3, 4)
        second = np.full((3, 2), 7, dtype=np.int64)
        store.append_chunk("histories", 0, first)
        store.append_chunk("histories", 1, second)
        assert store.completed("histories") == [0, 1]
        assert store.completed("per_slot") == []
        assert np.array_equal(store.read_chunk("histories", 1), second)
        # A reopened store trusts only the manifest.
        reopened = EpisodeStore(tmp_path / "ep")
        chunks = list(reopened.iter_chunks("histories"))
        assert [index for index, _ in chunks] == [0, 1]
        assert np.array_equal(chunks[0][1], first)
        # Atomic writes leave no temporaries behind.
        assert list((tmp_path / "ep").glob("*.tmp")) == []

    def test_meta_round_trip(self, tmp_path):
        store = EpisodeStore(tmp_path / "ep")
        store.update_meta(entropy="42", horizon=30)
        assert EpisodeStore(tmp_path / "ep").meta["horizon"] == 30

    def test_carry_state_round_trip(self, tmp_path):
        store = EpisodeStore(tmp_path / "ep")
        store.save_state(
            3, cells=np.array([1, 2, 3]), totals=np.array([0.5, 1.5])
        )
        carry = EpisodeStore(tmp_path / "ep").load_state(3)
        assert np.array_equal(carry["cells"], [1, 2, 3])
        assert np.array_equal(carry["totals"], [0.5, 1.5])

    def test_planes_are_disk_backed(self, tmp_path):
        store = EpisodeStore(tmp_path / "ep")
        assert not store.has_plane("users")
        plane = store.create_plane("users", (4, 6))
        plane[:] = 9
        plane.flush()
        del plane
        assert store.has_plane("users")
        view = EpisodeStore(tmp_path / "ep").open_plane("users")
        assert np.array_equal(np.asarray(view), np.full((4, 6), 9))

    def test_destroy_removes_the_store(self, tmp_path):
        store = EpisodeStore(tmp_path / "ep")
        store.append_chunk("histories", 0, np.zeros((2, 2)))
        store.destroy()
        assert not (tmp_path / "ep").exists()


# ----------------------------------------------------------------------
# Guarded full-plane materialisation
# ----------------------------------------------------------------------


class TestMaterialiseGuard:
    def test_small_planes_allocate(self):
        plane = materialise_full_plane((3, 4), dtype=np.int64, fill=-1)
        assert plane.shape == (3, 4)
        assert np.all(plane == -1)

    def test_city_scale_refuses_loudly(self):
        huge = (100_000, 10_000, FULL_PLANE_LIMIT)
        with pytest.raises(MemoryError, match="FULL_PLANE_LIMIT"):
            materialise_full_plane(huge)


# ----------------------------------------------------------------------
# Result-cache orphan sweep
# ----------------------------------------------------------------------


class TestResultCacheOrphans:
    def test_orphans_swept_on_open_and_counted(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "interrupted-1.tmp").write_text("half a result")
        (cache_dir / "interrupted-2.tmp").write_text("{")
        (cache_dir / "entry.json").write_text(json.dumps({"k": 1}))
        cache = ResultCache(cache_dir)
        assert cache.orphans_removed == 2
        assert cache.stats() == {
            "hits": 0,
            "misses": 0,
            "orphans_removed": 2,
            "hit_time_s": 0.0,
            "miss_time_s": 0.0,
        }
        assert list(cache_dir.glob("*.tmp")) == []
        assert (cache_dir / "entry.json").exists()

    def test_fresh_directory_has_no_orphans(self, tmp_path):
        cache = ResultCache(tmp_path / "nonexistent")
        assert cache.stats()["orphans_removed"] == 0


# ----------------------------------------------------------------------
# CLI and config knobs
# ----------------------------------------------------------------------


class TestStreamingKnobs:
    def test_fleet_flags_reach_the_config(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fleet", "--regions", "3"])
        args = parser.parse_args(["fleet", "--stream", "--chunk-slots", "7"])
        config = _build_config(args, "fleet")
        assert config.stream is True
        assert config.chunk_slots == 7

    def test_flags_default_off(self):
        parser = build_parser()
        config = _build_config(parser.parse_args(["fleet"]), "fleet")
        assert config.stream is False
        assert config.chunk_slots == 64

    def test_knobs_survive_config_round_trip(self):
        from repro.sim.config import FleetExperimentConfig

        config = FleetExperimentConfig(stream=True, chunk_slots=7)
        again = FleetExperimentConfig.from_dict(config.to_dict())
        assert (again.stream, again.chunk_slots) == (True, 7)
        scaled = config.scaled(n_users=4)
        assert (scaled.stream, scaled.chunk_slots) == (True, 7)

    def test_cli_streams_end_to_end(self, tmp_path, capsys):
        code = main(
            [
                "fleet",
                "--users",
                "4",
                "--cells",
                "9",
                "--capacity",
                "4",
                "--runs",
                "2",
                "--horizon",
                "10",
                "--stream",
                "--chunk-slots",
                "3",
                "--no-cache",
            ]
        )
        assert code == 0
        assert "fleet" in capsys.readouterr().out

    def test_stream_and_batch_share_cache_entries(self, tmp_path, capsys):
        # The streaming knobs are execution-only: a batch run warms the
        # cache, the streamed rerun of the same experiment hits it.
        base = [
            "fleet",
            "--users",
            "4",
            "--cells",
            "9",
            "--capacity",
            "4",
            "--runs",
            "2",
            "--horizon",
            "10",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert "cached" not in first
        assert main(base + ["--stream", "--chunk-slots", "3"]) == 0
        assert "cached result" in capsys.readouterr().out
