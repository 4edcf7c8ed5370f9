"""Micro-benchmarks of what the end-to-end benchmark cannot see: the bare
engine's event rate, timer churn against a bounded heap, worker-count
determinism of a parallel batch, and trace emit throughput.

Each bench prints its rate and asserts what must hold on any host (the
event count, the heap bound, equal summaries).  A datagram's full-stack
cost and a campaign cell's are ``transport_blast`` and
``campaign_small_cells`` in ``benchmarks/e2e/``, scaled to a reference
host there.
"""

import os
import time

import pytest

from repro.experiments.common import ScenarioConfig
from repro.obs.bus import TraceBus
from repro.obs.sinks import RingBufferSink, write_trace
from repro.runner import run_batch
from repro.sim.engine import Simulator

#: The lazy-deletion heap must absorb 100k cancelled timers below this.
HEAP_BOUND = 4096


def _best_rate(fn, work_units: int, repeats: int = 3) -> float:
    """Best-of-N units/second for ``fn`` (min wall time wins: least noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return work_units / best


def bench_engine_event_rate(benchmark):
    """Schedule+fire cost of the event loop (100k events per round)."""

    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 100_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count[0]

    print(f"\nengine: {_best_rate(run, 100_000):,.0f} events/s")
    assert benchmark(run) == 100_000


def bench_engine_cancel_churn(benchmark):
    """Retransmission-timer pattern: schedule a timer, cancel it, repeat.

    Cancellations dominate firings in every congestion-controlled run; the
    lazy-deletion heap must absorb 100k of them without growing, which is
    what keeps long runs O(live events) instead of O(history).
    """

    def run():
        sim = Simulator()
        fired = [0]

        def noop():
            fired[0] += 1

        for i in range(100_000):
            ev = sim.schedule(10.0, noop)
            sim.schedule(0.0, noop)
            ev.cancel()
            sim.run(max_events=1)
        peak = len(sim._heap)
        sim.run()
        assert fired[0] == 100_000
        return peak

    peak = run()
    assert peak < HEAP_BOUND, f"dead timers accumulated: heap peaked at {peak}"
    print(f"\ncancel churn: {_best_rate(run, 100_000):,.0f} timers/s, "
          f"heap peak {peak}")
    assert benchmark(run) < HEAP_BOUND


def bench_parallel_batch_throughput(benchmark):
    """Serial vs process-pool wall clock for a batch of independent runs,
    and equal summaries either way.  On a single-core host the parallel
    path only pays pool overhead, so the bench skips there.
    """
    if (os.cpu_count() or 1) == 1:
        pytest.skip("single-core host: pool speedup is unmeasurable")
    cfgs = [ScenarioConfig(workload="greedy", n_frames=1500, seed=s,
                           cbr_bps=10e6, time_cap=120.0)
            for s in range(1, 5)]
    jobs = min(4, os.cpu_count() or 1)

    t0 = time.perf_counter()
    serial = run_batch(cfgs, jobs=1, cache=False)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_batch(cfgs, jobs=jobs, cache=False)
    parallel_s = time.perf_counter() - t0

    for a, b in zip(serial, parallel):
        assert a.summary == b.summary, "worker count changed results"

    print(f"\nparallel batch: serial {serial_s:.3f} s, {jobs} jobs "
          f"{parallel_s:.3f} s (x{serial_s / max(parallel_s, 1e-9):.2f})")
    benchmark.pedantic(lambda: run_batch(cfgs, jobs=jobs, cache=False),
                       rounds=1, iterations=1)


def bench_trace_overhead(benchmark, tmp_path):
    """Enabled ``TraceBus.emit`` throughput into the in-memory ring buffer
    vs emitting into an unbounded ring and writing it with ``write_trace``,
    the path a traced batch takes.  What the *disabled* path costs a
    packet is counted and gated by ``bench_obs_overhead.py``."""
    n_emit = 50_000

    def emit_ring(capacity=1024):
        sim = Simulator()
        sink = RingBufferSink(capacity=capacity)
        tr = TraceBus(sim, sinks=[sink])
        emit = tr.emit
        for i in range(n_emit):
            emit("transport", "PACKET_SEND", flow=1, pkt=i, size=1400)
        return sink

    def emit_jsonl():
        return write_trace(tmp_path / "bench_trace.jsonl",
                           [{"run": "0", "events": emit_ring(None).events}])

    print(f"\ntrace emit: ring {_best_rate(emit_ring, n_emit):,.0f} "
          f"events/s, jsonl {_best_rate(emit_jsonl, n_emit):,.0f} events/s")
    assert emit_jsonl() == n_emit
    assert benchmark(emit_ring).appended == n_emit

