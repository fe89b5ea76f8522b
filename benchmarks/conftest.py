"""Shared configuration for the benchmark harness.

Every paper table/figure has a benchmark that regenerates its data series.
The benchmarks run the same experiment code as the full-scale CLI but at a
reduced Monte-Carlo budget so the whole harness finishes in minutes; the
``--paper-scale`` option restores the paper-scale budget when desired.

Measured numbers flow through one channel: a suite's tests write plain
mappings into ``bench_record("<suite>")`` and ``pytest_sessionfinish``
flushes each suite to ``BENCH_<suite>.json`` in the telemetry metrics
schema (``repro-telemetry/1`` — integers become counters, floats become
gauges, nested mappings flatten with ``/``), so CI archives the CLI's
``--metrics-out`` files and the benchmark records in one format.

The batch-vs-loop speed-up gates time the library against the test-only
oracles in ``tests/reference/``; ``tests/`` goes on ``sys.path`` here so
they import as ``reference``.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from pathlib import Path

import pytest

from repro.sim.config import SyntheticExperimentConfig, TraceExperimentConfig
from repro.telemetry import Recorder, default_clock, write_metrics

_TESTS_DIR = str(Path(__file__).resolve().parent.parent / "tests")
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)

#: Per-suite benchmark records; each non-empty suite flushes to
#: ``BENCH_<suite>.json`` at session end.
_SUITE_RECORDS: dict[str, dict[str, object]] = {}


def _suite_record(suite: str) -> dict[str, object]:
    return _SUITE_RECORDS.setdefault(suite, {})


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--paper-scale",
        action="store_true",
        default=False,
        help="run benchmarks at the paper's full Monte-Carlo budget",
    )


@pytest.fixture(scope="session")
def bench_record():
    """Factory: ``bench_record("core")["viterbi"] = {...}`` records a number.

    Scalars and (nested) mappings both land on the telemetry metrics
    schema when the suite's ``BENCH_<suite>.json`` is written.
    """
    return _suite_record


@pytest.fixture(scope="session")
def runstack_record() -> dict[str, object]:
    """The mutable record the run-stacked benchmarks write their numbers to."""
    return _suite_record("runstack")


def _record_value(recorder: Recorder, name: str, value: object) -> None:
    if isinstance(value, Mapping):
        recorder.record_stats(name, value)
    elif isinstance(value, bool):
        recorder.gauge(name, float(value))
    elif isinstance(value, int):
        recorder.counter(name, value)
    elif isinstance(value, float):
        recorder.gauge(name, value)


def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    root = Path(__file__).resolve().parent.parent
    for suite in sorted(_SUITE_RECORDS):
        record = _SUITE_RECORDS[suite]
        if not record:
            continue
        recorder = Recorder(clock=default_clock)
        for name in sorted(record):
            _record_value(recorder, name, record[name])
        write_metrics(recorder, root / f"BENCH_{suite}.json")


@pytest.fixture(scope="session")
def paper_scale(request: pytest.FixtureRequest) -> bool:
    """Whether to run at the paper's full scale (1000 runs, 174 nodes...)."""
    return bool(request.config.getoption("--paper-scale"))


@pytest.fixture(scope="session")
def synthetic_config(paper_scale: bool) -> SyntheticExperimentConfig:
    """Synthetic-experiment config: paper scale or benchmark scale."""
    if paper_scale:
        return SyntheticExperimentConfig()
    return SyntheticExperimentConfig(n_runs=60, horizon=100)


@pytest.fixture(scope="session")
def trace_config(paper_scale: bool) -> TraceExperimentConfig:
    """Trace-experiment config: paper scale or benchmark scale."""
    if paper_scale:
        return TraceExperimentConfig()
    return TraceExperimentConfig(n_nodes=100, n_towers=150, horizon=60)


def print_series_table(result, max_rows: int = 12) -> None:
    """Print the series of an ExperimentResult as compact rows.

    This is the "same rows/series the paper reports" output of the
    benchmark harness; pytest shows it with ``-s``.
    """
    print()
    for line in result.summary_lines()[:max_rows]:
        print(line)
