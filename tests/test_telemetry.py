"""Tests for the deterministic telemetry layer.

The hard contract under test: recording telemetry is *observation only*.
A fleet Monte-Carlo instrumented with a live :class:`Recorder` must be
bit-identical — every per-run array, every RNG stream — to the same run
under :data:`NULL_RECORDER`, across every engine, stack and worker
combination.  Around that: recorder semantics (span nesting, counter and
gauge folding, worker merge attribution), golden files for both export
shapes, the result-cache latency counters, and the cache-key guarantee
that telemetry knobs never fragment cached results.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.eavesdropper import StrategyAwareDetector
from repro.core.eavesdropper.detector import MaximumLikelihoodDetector
from repro.core.strategies import get_strategy
from repro.experiments.registry import run_experiment
from repro.mec.fleet import (
    FleetSimulation,
    FleetSimulationConfig,
    run_fleet_monte_carlo,
)
from repro.mec.streaming import StreamingFleetEngine
from repro.mec.topology import MECTopology
from repro.mobility.grid import GridTopology
from repro.mobility.models import paper_synthetic_models
from repro.sim.cache import EXECUTION_ONLY_KEYS, ResultCache, experiment_cache_key
from repro.sim.config import FleetExperimentConfig
from repro.sim.results import ExperimentResult
from repro.telemetry import (
    METRICS_SCHEMA,
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    chrome_trace,
    default_clock,
    metrics_json,
    phase_summary_table,
    write_metrics,
    write_trace,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "telemetry"

_STATISTIC_ARRAYS = (
    "tracking_runs",
    "detection_runs",
    "cost_runs",
    "migrations_runs",
    "rejected_runs",
    "spilled_runs",
    "evicted_runs",
    "stranded_runs",
)


class FakeClock:
    """Deterministic clock: each call advances by a fixed step (module
    level so recorder specs carrying it survive pickling into workers)."""

    def __init__(self, step: float = 0.5) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def golden_recorder() -> Recorder:
    """The fixed recorder both golden files are generated from."""
    recorder = Recorder(clock=FakeClock())
    with recorder.span("kernel/sample", engine="batch", users=2):
        with recorder.span("kernel/placement", slots=8):
            recorder.counter("placement/admitted", 5)
    recorder.counter("placement/admitted", 3)
    recorder.gauge("parallel/workers", 2.0)
    recorder.merge(
        {
            "spans": [
                {"name": "shard", "ts": 0.25, "dur": 1.0, "tid": 0, "depth": 0}
            ],
            "counters": {"montecarlo/episodes": 4},
            "gauges": {},
        },
        worker=1,
    )
    return recorder


@pytest.fixture(scope="module")
def chain9():
    return paper_synthetic_models(9, seed=3)["non-skewed"]


def _simulation(chain, n_users: int = 4, horizon: int = 24) -> FleetSimulation:
    topology = MECTopology.from_grid(GridTopology(3, 3), capacity=4)
    return FleetSimulation(
        topology,
        chain,
        strategy=get_strategy("IM"),
        config=FleetSimulationConfig(
            n_users=n_users, horizon=horizon, n_chaffs=1
        ),
    )


class TestRecorder:
    def test_span_nesting_records_depth_and_args(self):
        recorder = Recorder(clock=FakeClock())
        with recorder.span("outer", engine="batch"):
            with recorder.span("inner"):
                pass
        inner, outer = recorder.spans
        assert inner["name"] == "inner" and inner["depth"] == 1
        assert outer["name"] == "outer" and outer["depth"] == 0
        assert outer["args"] == {"engine": "batch"}
        assert "args" not in inner
        assert inner["dur"] > 0 and outer["dur"] > inner["dur"]

    def test_begin_end_token_pair_matches_span(self):
        recorder = Recorder(clock=FakeClock())
        token = recorder.begin("phase", slots=7)
        recorder.end(token)
        (span,) = recorder.spans
        assert span["name"] == "phase"
        assert span["args"] == {"slots": 7}
        assert span["dur"] == pytest.approx(0.5)

    def test_counters_accumulate_and_gauges_overwrite(self):
        recorder = Recorder(clock=FakeClock())
        recorder.counter("episodes", 3)
        recorder.counter("episodes")
        recorder.gauge("workers", 2.0)
        recorder.gauge("workers", 4.0)
        assert recorder.counters == {"episodes": 4}
        assert recorder.gauges == {"workers": 4.0}

    def test_record_stats_flattens_and_types(self):
        recorder = Recorder(clock=FakeClock())
        recorder.record_stats(
            "cache",
            {
                "hits": 3,
                "hit_time_s": 0.25,
                "warm": True,
                "nested": {"misses": 2},
            },
        )
        assert recorder.counters == {"cache/hits": 3, "cache/nested/misses": 2}
        assert recorder.gauges == {"cache/hit_time_s": 0.25, "cache/warm": 1.0}

    def test_merge_sums_counters_and_attributes_workers(self):
        parent = Recorder(clock=FakeClock())
        parent.counter("episodes", 2)
        state = {
            "spans": [
                {"name": "shard", "ts": 1.0, "dur": 2.0, "tid": 0, "depth": 0},
                # Already attributed by a deeper merge: must keep tid 3.
                {"name": "point", "ts": 1.0, "dur": 1.0, "tid": 3, "depth": 1},
            ],
            "counters": {"episodes": 5},
            "gauges": {"workers": 2.0},
        }
        parent.merge(state, worker=7)
        assert [span["tid"] for span in parent.spans] == [7, 3]
        assert parent.counters == {"episodes": 7}
        assert parent.gauges == {"workers": 2.0}

    def test_spawn_spec_roundtrips_the_clock(self):
        clock = FakeClock()
        worker = Recorder(clock=clock).spawn_spec().build()
        with worker.span("w"):
            pass
        assert worker.spans[0]["dur"] == pytest.approx(0.5)

    def test_phase_totals_aggregates_per_name(self):
        recorder = Recorder(clock=FakeClock())
        for _ in range(3):
            with recorder.span("kernel/sample"):
                pass
        totals = recorder.phase_totals()
        entry = totals["kernel/sample"]
        assert entry["count"] == 3
        assert entry["total_s"] == pytest.approx(1.5)
        assert entry["mean_s"] == pytest.approx(0.5)
        assert entry["min_s"] == entry["max_s"] == pytest.approx(0.5)


class TestNullRecorder:
    def test_is_disabled_and_free_of_state(self):
        assert NULL_RECORDER.enabled is False
        assert isinstance(NULL_RECORDER, NullRecorder)
        with NULL_RECORDER.span("anything", key=1):
            NULL_RECORDER.counter("c")
            NULL_RECORDER.gauge("g", 1.0)
        NULL_RECORDER.end(NULL_RECORDER.begin("phase"))
        NULL_RECORDER.record_stats("p", {"hits": 1})
        NULL_RECORDER.merge({"counters": {"c": 1}}, worker=1)
        assert NULL_RECORDER.spawn_spec() is None
        assert NULL_RECORDER.to_state() == {
            "spans": [],
            "counters": {},
            "gauges": {},
        }
        assert NULL_RECORDER.phase_totals() == {}

    def test_span_reuses_one_context_manager(self):
        assert NULL_RECORDER.span("a") is NULL_RECORDER.span("b")


class TestExporters:
    def test_metrics_json_matches_golden(self):
        golden = json.loads((FIXTURES / "metrics.json").read_text())
        assert metrics_json(golden_recorder()) == golden
        assert golden["schema"] == METRICS_SCHEMA

    def test_write_metrics_matches_golden_bytes(self, tmp_path):
        path = write_metrics(golden_recorder(), tmp_path / "metrics.json")
        assert path.read_text() == (FIXTURES / "metrics.json").read_text()

    def test_chrome_trace_matches_golden(self):
        golden = json.loads((FIXTURES / "trace.json").read_text())
        assert chrome_trace(golden_recorder()) == golden

    def test_write_trace_matches_golden_bytes(self, tmp_path):
        path = write_trace(golden_recorder(), tmp_path / "trace.json")
        assert path.read_text() == (FIXTURES / "trace.json").read_text()

    def test_trace_units_are_microseconds_on_worker_lanes(self):
        trace = chrome_trace(golden_recorder())
        assert trace["displayTimeUnit"] == "ms"
        shard = [e for e in trace["traceEvents"] if e["name"] == "shard"]
        assert shard == [
            {
                "name": "shard",
                "ph": "X",
                "ts": pytest.approx(0.25e6),
                "dur": pytest.approx(1.0e6),
                "pid": 0,
                "tid": 1,
            }
        ]

    def test_phase_summary_table_aligns_and_handles_empty(self):
        lines = phase_summary_table(golden_recorder())
        assert lines[0].split() == ["phase", "count", "total", "ms", "mean", "ms", "max", "ms"]
        assert any(line.startswith("kernel/sample") for line in lines)
        assert phase_summary_table(Recorder(clock=FakeClock())) == [
            "(no spans recorded)"
        ]


class TestBitIdentity:
    """Telemetry on == telemetry off, for every execution shape."""

    @pytest.mark.parametrize(
        "engine, run_stack, workers",
        [
            ("batch", 1, 1),
            ("batch", 1, 2),
            ("batch", 3, 1),
            ("batch", 3, 2),
            ("loop", 1, 1),
            ("loop", 1, 2),
            ("stream", 1, 1),
            ("stream", 1, 2),
            ("stream", 3, 1),
            ("stream", 3, 2),
        ],
    )
    def test_fleet_monte_carlo_identical_with_and_without(
        self, chain9, engine, run_stack, workers
    ):
        def run(recorder):
            return run_fleet_monte_carlo(
                _simulation(chain9),
                n_runs=4,
                seed=11,
                detector=MaximumLikelihoodDetector(),
                workers=workers,
                engine=engine,
                chunk_slots=10,
                regions=2,
                run_stack=run_stack,
                recorder=recorder,
            )

        recorder = Recorder(clock=default_clock)
        plain = run(NULL_RECORDER)
        instrumented = run(recorder)
        for name in _STATISTIC_ARRAYS:
            assert np.array_equal(
                getattr(plain, name), getattr(instrumented, name)
            ), name
        assert recorder.counters["montecarlo/episodes"] == 4
        names = {span["name"] for span in recorder.spans}
        assert {"montecarlo/fleet", "shard", "kernel/sample"} <= names

    def test_worker_spans_land_on_their_own_lanes(self, chain9):
        recorder = Recorder(clock=default_clock)
        run_fleet_monte_carlo(
            _simulation(chain9),
            n_runs=4,
            seed=11,
            detector=MaximumLikelihoodDetector(),
            workers=2,
            recorder=recorder,
        )
        lanes = {span["tid"] for span in recorder.spans}
        assert {1, 2} <= lanes  # one lane per shard worker
        assert any(
            span["name"] == "montecarlo/fleet" and span["tid"] == 0
            for span in recorder.spans
        )

    def test_streaming_records_spill_spans(self, chain9):
        recorder = Recorder(clock=default_clock)
        streamed = StreamingFleetEngine(
            _simulation(chain9), chunk_slots=10, recorder=recorder
        ).run(5)
        try:
            streamed.evaluate(chain9, MaximumLikelihoodDetector())
        finally:
            streamed.close()
        names = {span["name"] for span in recorder.spans}
        assert "kernel/spill" in names
        assert "kernel/detect" in names
        assert recorder.counters["placement/admitted"] > 0

    def test_refused_stream_evaluation_closes_its_span(self, chain9):
        recorder = Recorder(clock=FakeClock())
        streamed = StreamingFleetEngine(
            _simulation(chain9), chunk_slots=10, recorder=recorder
        ).run(5)
        try:
            with pytest.raises(NotImplementedError):
                streamed.evaluate(
                    chain9, StrategyAwareDetector(get_strategy("ML"))
                )
        finally:
            streamed.close()
        with recorder.span("after"):
            pass
        refused, after = recorder.spans[-2:]
        assert refused["name"] == "kernel/detect" and refused["depth"] == 0
        assert after["name"] == "after" and after["depth"] == 0


class TestResultCacheLatency:
    def _result(self) -> ExperimentResult:
        return ExperimentResult(experiment_id="unit", description="d")

    def test_injected_clock_times_hits_and_misses(self, tmp_path):
        cache = ResultCache(tmp_path, clock=FakeClock())
        assert cache.get("k" * 8) is None
        cache.put("k" * 8, self._result())
        assert cache.get("k" * 8) is not None
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["miss_time_s"] == pytest.approx(0.5)
        assert stats["hit_time_s"] == pytest.approx(0.5)

    def test_without_a_clock_latency_stays_zero(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.get("m" * 8)
        cache.put("m" * 8, self._result())
        cache.get("m" * 8)
        stats = cache.stats()
        assert stats["hit_time_s"] == 0.0 and stats["miss_time_s"] == 0.0


class TestExecutionOnlyKeys:
    def test_telemetry_knobs_are_execution_only(self):
        assert {"telemetry", "metrics_out", "trace_out"} <= set(
            EXECUTION_ONLY_KEYS
        )

    def test_telemetry_knobs_never_reach_cache_keys(self):
        base = FleetExperimentConfig().to_dict()
        key = experiment_cache_key("fleet", base)
        for knob in ("telemetry", "metrics_out", "trace_out"):
            probed = dict(base)
            probed[knob] = "__probe__"
            assert experiment_cache_key("fleet", probed) == key, knob


class TestExperimentIntegration:
    @pytest.fixture(scope="class")
    def fleet_config(self):
        return FleetExperimentConfig(
            n_users=4,
            n_cells=9,
            site_capacity=3,
            horizon=10,
            n_runs=2,
            population_sweep=(3, 4),
            capacity_sweep=(2, 3),
        )

    def test_run_experiment_records_the_full_span_tree(
        self, fleet_config, tmp_path
    ):
        recorder = Recorder(clock=default_clock)
        cache = ResultCache(tmp_path, clock=default_clock)
        result = run_experiment(
            "fleet", fleet_config, cache=cache, recorder=recorder
        )
        assert result.experiment_id == "fleet"
        names = {span["name"] for span in recorder.spans}
        assert {
            "experiment/fleet",
            "point",
            "montecarlo/fleet",
            "kernel/sample",
            "kernel/placement",
            "kernel/detect",
        } <= names
        assert recorder.counters["result_cache/misses"] == 1
        # A hit from the warm cache lands on the same schema, timed.
        hit_recorder = Recorder(clock=default_clock)
        run_experiment("fleet", fleet_config, cache=cache, recorder=hit_recorder)
        assert hit_recorder.counters["result_cache/hits"] == 1
        assert hit_recorder.gauges["result_cache/hit_time_s"] > 0
        assert {span["name"] for span in hit_recorder.spans} == {
            "experiment/fleet"
        }

    def test_result_is_identical_with_and_without_recorder(self, fleet_config):
        plain = run_experiment("fleet", fleet_config)
        instrumented = run_experiment(
            "fleet", fleet_config, recorder=Recorder(clock=default_clock)
        )
        assert plain.to_dict() == instrumented.to_dict()


class TestCliTelemetry:
    def test_fleet_run_emits_summary_and_files(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "trace.json"
        assert (
            main(
                [
                    "fleet",
                    "--users",
                    "4",
                    "--capacity",
                    "3",
                    "--cells",
                    "9",
                    "--runs",
                    "2",
                    "--horizon",
                    "10",
                    "--no-cache",
                    "--telemetry",
                    "--metrics-out",
                    str(metrics),
                    "--trace-out",
                    str(trace),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "telemetry phase summary:" in output
        assert "kernel/sample" in output
        payload = json.loads(metrics.read_text())
        assert payload["schema"] == METRICS_SCHEMA
        assert "montecarlo/episodes" in payload["counters"]
        assert "experiment/fleet" in payload["phases"]
        events = json.loads(trace.read_text())["traceEvents"]
        assert {event["name"] for event in events} >= {
            "kernel/sample",
            "kernel/placement",
            "kernel/detect",
        }
        assert all(event["ph"] == "X" for event in events)
