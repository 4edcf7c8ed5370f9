"""Micro-benchmarks of the substrate itself (engine event rate, timer-churn
rate, transport packet rate, parallel batch throughput, campaign cells per
second) -- the knobs that bound how large an experiment the harness can
simulate per wall-clock second.

Each bench also records a machine-readable rate into
``benchmarks/results/bench_perf.json`` (via the ``perf_record`` fixture) so
``check_regression.py`` can compare runs against the committed baseline and
future PRs inherit a performance trajectory.
"""

import os
import time

import pytest

from repro.api import Scenario
from repro.campaign import Campaign, run_campaign
from repro.experiments.common import ScenarioConfig, run_scenario
from repro.middleware.receiver import DeliveryLog
from repro.obs.bus import TraceBus
from repro.obs.sinks import JsonlTraceSink, RingBufferSink
from repro.runner import run_batch
from repro.sim.engine import Simulator
from repro.sim.topology import Dumbbell
from repro.transport.rudp import RudpConnection


def _best_rate(fn, work_units: int, repeats: int = 3) -> float:
    """Best-of-N units/second for ``fn`` (min wall time wins: least noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return work_units / best


def bench_engine_event_rate(benchmark, perf_record):
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

    perf_record("engine_event_rate", events_per_s=_best_rate(run, 100_000))
    assert benchmark(run) == 100_000


def bench_engine_cancel_churn(benchmark, perf_record):
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
    assert peak < 4096, f"dead timers accumulated: heap peaked at {peak}"
    perf_record("engine_cancel_churn", timers_per_s=_best_rate(run, 100_000))
    assert benchmark(run) < 4096


def bench_rudp_transfer_rate(benchmark, perf_record):
    """Full-stack packet cost: a 5k-packet RUDP transfer on the dumbbell."""

    def run():
        sim = Simulator()
        net = Dumbbell(sim)
        snd, rcv = net.add_flow_hosts("m")
        log = DeliveryLog()
        conn = RudpConnection(sim, snd, rcv, on_deliver=log.on_deliver)
        for i in range(5000):
            conn.submit(1400, frame_id=i)
        conn.finish()
        sim.run(until=120.0)
        assert conn.completed
        return len(log)

    perf_record("rudp_transfer", packets_per_s=_best_rate(run, 5000))
    assert benchmark(run) == 5000


def bench_parallel_batch_throughput(benchmark, perf_record):
    """Serial vs process-pool wall clock for a batch of independent runs.

    Records both timings plus the speedup; on a single-core host the
    parallel path only pays pool overhead, so the bench *skips* there and
    annotates the JSON (``"skipped": true``), which ``check_regression.py``
    honours by ignoring the bench entirely.
    """
    if (os.cpu_count() or 1) == 1:
        perf_record("parallel_batch", skipped=True, cpu_count=1)
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

    perf_record("parallel_batch", serial_s=round(serial_s, 3),
                parallel_s=round(parallel_s, 3), jobs=jobs,
                speedup=round(serial_s / max(parallel_s, 1e-9), 3),
                cpu_count=os.cpu_count())
    benchmark.pedantic(lambda: run_batch(cfgs, jobs=jobs, cache=False),
                       rounds=1, iterations=1)


def bench_campaign_cells(benchmark, perf_record, tmp_path):
    """What the campaign directory adds to a small cell: 60 cells of 50
    greedy frames (~1.5 ms of simulation each) through one in-process
    worker into a fresh directory, against the same cells through bare
    ``run_scenario``.  The difference per cell is the claim, the pickle,
    the atomic write, the journal frame and the final collect."""
    camp = Campaign(Scenario(workload="greedy", n_frames=50),
                    name="bench-cells",
                    axes={"transport": ["iq", "rudp", "tcp"]}, seeds=20)
    cells = camp.cells()
    passes = [0]

    def cold_pass():
        passes[0] += 1
        run = run_campaign(camp, dir=tmp_path / f"camp-{passes[0]}",
                           workers=1, cache=False, progress=False)
        assert run.complete and run.report().failed == 0
        return len(run.results)

    def bare():
        for cell in cells:
            run_scenario(cell.config)

    n = len(cells)
    cells_per_s = _best_rate(cold_pass, n)
    bare_per_s = _best_rate(bare, n)
    perf_record("campaign_cells", cells_per_s=cells_per_s,
                store_overhead_ms_per_cell=round(
                    1e3 * (1.0 / cells_per_s - 1.0 / bare_per_s), 4))
    assert benchmark.pedantic(cold_pass, rounds=3, iterations=1) == n


def bench_trace_overhead(benchmark, perf_record, tmp_path):
    """Enabled ``TraceBus.emit`` throughput into the in-memory ring buffer
    (``emit_ring_events_per_s``) vs the streaming JSONL writer
    (``emit_jsonl_events_per_s``).  What the *disabled* path costs a packet
    is counted and gated by ``bench_obs_overhead.py``."""
    n_emit = 50_000

    def emit_ring():
        sim = Simulator()
        tr = TraceBus(sim, sinks=[RingBufferSink(capacity=1024)])
        emit = tr.emit
        for i in range(n_emit):
            emit("transport", "PACKET_SEND", flow=1, pkt=i, size=1400)
        return tr.events_emitted

    def emit_jsonl():
        sim = Simulator()
        with JsonlTraceSink(tmp_path / "bench_trace.jsonl") as sink:
            tr = TraceBus(sim, sinks=[sink])
            emit = tr.emit
            for i in range(n_emit):
                emit("transport", "PACKET_SEND", flow=1, pkt=i, size=1400)
        return tr.events_emitted

    perf_record("trace_overhead",
                emit_ring_events_per_s=_best_rate(emit_ring, n_emit),
                emit_jsonl_events_per_s=_best_rate(emit_jsonl, n_emit))
    assert benchmark(emit_ring) == n_emit


@pytest.mark.perf_regression
def bench_perf_regression_gate():
    """Opt-in gate (``pytest -m perf_regression benchmarks/bench_micro.py``):
    fails when bench_perf.json regresses >25% against the committed
    baseline.  Run the other micro-benches first to produce fresh numbers.
    ``REPRO_PERF_THRESHOLD`` widens/narrows the tolerance (a fraction,
    e.g. ``0.4``) so slower or noisier CI hosts can gate without flaking.
    """
    import check_regression
    args = []
    threshold = os.environ.get("REPRO_PERF_THRESHOLD")
    if threshold:
        args = ["--threshold", threshold]
    rc = check_regression.main(args)
    assert rc == 0, "performance regression against committed baseline"
