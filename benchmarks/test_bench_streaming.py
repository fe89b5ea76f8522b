"""Benchmarks of the store-backed fleet driver: memory flatness, throughput.

``run_stacked(..., store=...)`` runs one episode out of core, and its
contract is *bounded memory in the horizon*: it
holds one ``(N, chunk_slots)`` plane plus O(M)-sized carry state, so the
Python-heap peak of an episode must not grow with ``T``.  The headline
measurement runs a city-scale fleet (M = 10^4 users, N = 2x10^4
services) at T = 64, 512 and 1000 and asserts the tracemalloc peak stays
within ~1.2x of the single-chunk footprint — while the monolithic batch
engine's peak at the same scale grows linearly in ``T`` (measured here
at T = 512 for the contrast).  tracemalloc does not count the episode
store's disk-backed memmap pages; that is the point — they are the part
of the episode that no longer lives on the heap.

The second measurement is throughput parity at M = 500 on a contended
deployment: both engines do the same slot-kernel work there, so
streaming's spill overhead must stay within noise of the batch engine.
"""

from __future__ import annotations

import tempfile
import time
import tracemalloc

import pytest

from repro.core.strategies import get_strategy
from repro.mec.fleet import FleetSimulation, FleetSimulationConfig
from repro.mec.topology import MECTopology
from repro.mobility.grid import GridTopology
from repro.mobility.models import paper_synthetic_models
from repro.sim.cache import EpisodeStore


@pytest.fixture(scope="module")
def stream_chain():
    return paper_synthetic_models(25, seed=2017)["non-skewed"]


def _simulation(chain, n_users: int, horizon: int, capacity: int) -> FleetSimulation:
    topology = MECTopology.from_grid(GridTopology(5, 5), capacity=capacity)
    return FleetSimulation(
        topology,
        chain,
        strategy=get_strategy("IM"),
        config=FleetSimulationConfig(
            n_users=n_users, horizon=horizon, n_chaffs=1
        ),
    )


def _stream_to_store(simulation: FleetSimulation, root: str):
    """One store-backed episode (seed 0, 64-slot chunks) spilled under ``root``."""
    return simulation.run_stacked(
        [0], engine="stream", chunk_slots=64, store=EpisodeStore(root)
    )


def _streaming_peak(chain, n_users: int, horizon: int, capacity: int) -> int:
    """Python-heap peak (bytes) of one full streamed episode."""
    simulation = _simulation(chain, n_users, horizon, capacity)
    with tempfile.TemporaryDirectory(prefix="repro-episode-") as root:
        tracemalloc.start()
        try:
            _stream_to_store(simulation, root)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak


def test_bench_streaming_memory_flat_in_horizon(benchmark, stream_chain, bench_record):
    """Peak heap of a streamed M = 10^4 episode is independent of T.

    T = 64 is a single chunk — the floor of what any streamed episode
    can hold.  T = 512 and T = 1000 must stay within ~1.2x of it: the
    chunk buffers are T-independent and the block sampler caps its
    working set, so nothing on the heap scales with the horizon.  The
    batch engine at the same scale materialises the full planes and
    per-slot ledgers, growing linearly in T.
    """
    n_users, capacity = 10_000, 3200
    peak_64 = _streaming_peak(stream_chain, n_users, 64, capacity)
    peak_512 = _streaming_peak(stream_chain, n_users, 512, capacity)
    peak_1000 = benchmark.pedantic(
        _streaming_peak,
        args=(stream_chain, n_users, 1000, capacity),
        rounds=1,
        iterations=1,
    )
    assert peak_512 <= 1.25 * peak_64
    assert peak_1000 <= 1.25 * peak_64

    # The monolithic contrast: same fleet, full planes on the heap.
    tracemalloc.start()
    try:
        _simulation(stream_chain, n_users, 512, capacity).run(0, engine="batch")
        _, batch_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak_512 <= batch_peak / 5
    peak_mb = {
        "stream_t64": round(peak_64 / 1e6, 1),
        "stream_t512": round(peak_512 / 1e6, 1),
        "stream_t1000": round(peak_1000 / 1e6, 1),
        "batch_t512": round(batch_peak / 1e6, 1),
    }
    benchmark.extra_info["peak_mb"] = peak_mb
    bench_record("streaming")["peak_mb"] = peak_mb
    print(
        f"\nstream peaks MB: T=64 {peak_64 / 1e6:.1f}, "
        f"T=512 {peak_512 / 1e6:.1f}, T=1000 {peak_1000 / 1e6:.1f}; "
        f"batch T=512 {batch_peak / 1e6:.1f}"
    )


def test_bench_streaming_throughput_m500(benchmark, stream_chain, bench_record):
    """Streaming stays at batch throughput on a contended M = 500 fleet.

    Capacity 40 x 25 cells exactly fits the N = 1000 services, so every
    slot is contended — the regime where the engines do identical
    placement work and spilling chunks must cost nothing measurable.
    A full deployment rejects a contended slot whole, so one run takes
    only ~0.05 s; each engine is timed as the best of three alternating
    runs, so a single scheduling or file-system stall on a shared host
    does not decide the ratio.
    """
    n_users, horizon, capacity = 500, 128, 40

    def batch_run():
        return _simulation(stream_chain, n_users, horizon, capacity).run(
            0, engine="batch"
        )

    def stream_run():
        with tempfile.TemporaryDirectory(prefix="repro-episode-") as root:
            _stream_to_store(
                _simulation(stream_chain, n_users, horizon, capacity), root
            )

    def timed(run) -> float:
        start = time.perf_counter()
        run()
        return time.perf_counter() - start

    batch_times, stream_times = [], []
    for _ in range(3):
        batch_times.append(timed(batch_run))
        stream_times.append(timed(stream_run))
    benchmark.pedantic(stream_run, rounds=1, iterations=1)
    batch_seconds, stream_seconds = min(batch_times), min(stream_times)
    # Parity within scheduling noise; streaming is regularly faster once
    # the batch engine's full-plane materialisation enters the picture.
    assert stream_seconds <= 1.5 * batch_seconds
    seconds = {
        "batch": round(batch_seconds, 3),
        "stream": round(stream_seconds, 3),
        "stream_over_batch": round(stream_seconds / batch_seconds, 2),
    }
    benchmark.extra_info["seconds"] = seconds
    bench_record("streaming")["throughput_m500"] = seconds
