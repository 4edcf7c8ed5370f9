"""Micro-benchmarks of what the end-to-end benchmark cannot see: the bare
engine's event rate, timer churn against a bounded heap, the bottleneck
reading a CBR train, an acknowledged datagram's round trip on its own,
worker-count determinism of a parallel batch, and trace emit throughput.

Each bench prints its rate and asserts what must hold on any host (the
event count, the heap bound, the calls per datagram, equal summaries).  A
datagram's full-stack cost and a campaign cell's are ``transport_blast``
and ``campaign_small_cells`` in ``benchmarks/e2e/``, scaled to a reference
host there; the end-to-end traced split charges a train's datagrams to
whatever read them, so the train has its own row here, and the
acknowledged datagram has one that counts its calls.
"""

import os
import sys
import time

import pytest

from repro.experiments.common import ScenarioConfig, run_scenario
from repro.obs.bus import TraceBus
from repro.obs.sinks import RingBufferSink, write_trace
from repro.runner import run_batch
from repro.sim.engine import Simulator
from repro.sim.topology import Dumbbell
from repro.traffic.cbr import CbrSource
from repro.transport.udp import UdpSender

#: The lazy-deletion heap must absorb 100k cancelled timers below this.
HEAP_BOUND = 4096

#: CBR rates read by the paper's 20 Mb/s bottleneck: half of it (every
#: datagram finds the link idle) and half again over it (a full queue that
#: drops a third), each sending for ``TRAIN_S`` seconds.
TRAIN_RATES = {"idle": 10e6, "backlogged": 30e6}
TRAIN_S = 5.0

#: A greedy IQ-RUDP transfer of this many 1 400-byte datagrams on a clean
#: path: each is one data packet and one ACK across the dumbbell.
ACKED_TRANSFER = ScenarioConfig(transport="iq", workload="greedy",
                                n_frames=10_000, base_frame_size=1400,
                                seed=1)

#: Python calls -- function calls and builtin calls, as ``sys.setprofile``
#: reports them -- an acknowledged datagram of ``ACKED_TRANSFER`` may cost,
#: the whole run (set-up and collection included) over its datagrams.
CALLS_PER_ACKED_DATAGRAM = 60


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

        # A live event ahead of the cancelled timers keeps them queued, as
        # a connection's other timers do: compaction, not the run loop's
        # pop of a dead head, has to bound the heap.
        sim.schedule(5.0, lambda: None)
        for i in range(100_000):
            ev = sim.schedule(10.0, noop)
            sim.schedule(0.0, noop)
            ev.cancel()
            sim.run(until=sim.now)
        peak = len(sim._heap)
        sim.run()
        assert fired[0] == 100_000
        return peak

    peak = run()
    assert peak < HEAP_BOUND, f"dead timers accumulated: heap peaked at {peak}"
    print(f"\ncancel churn: {_best_rate(run, 100_000):,.0f} timers/s, "
          f"heap peak {peak}")
    assert benchmark(run) < HEAP_BOUND


def _read_train(rate_bps, seconds):
    """A CBR train on a cross port of the paper's dumbbell, sending for
    ``seconds``, read by the forward bottleneck and run until drained.
    Returns the datagrams sent, counted at the egress and dropped, and the
    engine events fired."""
    sim = Simulator()
    net = Dumbbell(sim)
    port = net.add_cross_port("x")
    src = CbrSource(sim, UdpSender(sim, port, port=7,
                                   peer_addr=port.peer_address, peer_port=7),
                    rate_bps=rate_bps, stop=seconds)
    fired = sim.run(until=seconds + 1.0)
    return (src.datagrams_sent, port.egress.packets,
            net.forward.queue.stats.drops, fired)


def bench_read_cbr_train(benchmark):
    """The bottleneck reading a CBR train -- iperf's UDP cross traffic, most
    of ``paper_tables``' packets -- into an idle link and a backlogged one:
    datagrams read per second.  A read datagram is no engine event (a train
    twice as long fires as many), and the egress counts every datagram the
    queue did not drop."""
    rates, events = {}, {}
    for name, rate in TRAIN_RATES.items():
        runs = [_read_train(rate, TRAIN_S), _read_train(rate, 2 * TRAIN_S)]
        (sent, _, dropped, fired), (sent2, _, _, fired2) = runs
        assert sent2 > 1.9 * sent, (sent, sent2)
        assert fired2 == fired, (
            f"{name}: {fired} events for {sent} datagrams, {fired2} for "
            f"{sent2}: the engine fires per read datagram")
        for n, counted, lost, _ in runs:
            assert counted + lost == n, (name, n, counted, lost)
        assert (dropped > 0) == (name == "backlogged"), (name, dropped)
        rates[name] = _best_rate(lambda: _read_train(rate, TRAIN_S), sent)
        events[name] = fired
    print("\nread CBR train: " + ", ".join(
        f"{name} {rates[name]:,.0f} datagrams/s ({events[name]} events)"
        for name in TRAIN_RATES))
    sent, counted, dropped, _ = benchmark(
        lambda: _read_train(TRAIN_RATES["backlogged"], TRAIN_S))
    assert counted + dropped == sent


def _counted_calls(fn):
    """``fn()`` and the calls it made, counted by a profile hook (exact:
    the same code makes the same calls)."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(count)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
    return out, calls


def bench_acked_datagram(benchmark):
    """An acknowledged datagram on its own: ``ACKED_TRANSFER`` end to end,
    as acknowledged datagrams per second and Python calls per acknowledged
    datagram.  The count is gated: what the round trip's fused hops and
    transport paths saved cannot come back unnoticed."""
    def transfer():
        return run_scenario(ACKED_TRANSFER)

    transfer()      # imports and compiled patterns are not per datagram
    res, calls = _counted_calls(transfer)
    acked = res.conn.sender.stats.acked_packets
    assert res.completed and acked == ACKED_TRANSFER.n_frames
    assert res.conn.sender.stats.retransmissions == 0   # a clean path
    per = calls / acked
    print(f"\nacked datagram: {_best_rate(transfer, acked, repeats=2):,.0f} "
          f"datagrams/s, {per:.2f} calls per datagram")
    assert per <= CALLS_PER_ACKED_DATAGRAM, (
        f"{per:.2f} Python calls per acknowledged datagram, budget "
        f"{CALLS_PER_ACKED_DATAGRAM}")
    assert benchmark(transfer).summary == res.summary


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

