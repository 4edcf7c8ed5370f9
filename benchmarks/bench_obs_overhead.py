"""What observability costs a packet: the guards counted, the tiers summed.

Greedy RUDP transfers through ``run_scenario``, measured three ways.

(i) **Disarmed.**  Every instrumentation site is a guard -- ``tr.enabled``
or ``tr.recording`` on the bus (:mod:`repro.obs.bus`), ``sp is not None``
on the lineage's packet hooks.  How many a packet reads is *counted*, not
assumed: a clean transfer runs once with ``NULL_BUS`` swapped for a bus
whose two flags are counting properties and the ``spans`` class attributes
for a counting descriptor.  Reads per packet x the measured cost of one
such read is ``disarmed_ns_per_pkt``, gated in nanoseconds (285 ns in
:data:`CEILINGS`, 3 % of the 9.5 us a packet cost on ``transport_blast``
when the budget was set).  A packet, there and here, is one crossing of
the bottleneck in either direction: a delivered datagram is two, its data
and its ACK.  Disarmed invariants cost no guard at all: arming swaps the
engine class.

(ii) **Default.**  Every scenario carries the flight ring, so on top of
(i) its cold sites report: ``default_ns_per_pkt`` adds the ring's notes per
packet -- counted on the same transfer squeezed by 17 Mb/s of CBR, where
drops and retransmissions fire -- x the measured cost of one ``cold()``
into a ring, plus the final ``dump()`` spread over the run; same ceiling.
The timed delta against a run without the ring (``run_scenario``'s
``FlightRecorder`` swapped for ``lambda: None``; interleaved, best of
nine) is printed beside it and not gated: on a shared host, best-of-N walls of the
*same* configuration differ by +-0.3-1 us per packet, several times the
ceiling.

(iii) **Armed.**  Trace, lineage, telemetry and invariants each against
the disarmed run (interleaved, best of nine), and all four together with
one ceiling on the total (``all_armed_pct``); arming any of them must
leave the summary bit-identical.

The feature guards are not observability tiers: faults and FEC are
``bench_feature_guards.py``.
"""

import gc
import sys
import time

from repro.experiments import common
from repro.experiments.common import ScenarioConfig, run_scenario
from repro.obs.bus import NULL_BUS, NullBus, TraceBus
from repro.obs.flight import FlightRecorder
from repro.obs.sinks import RingBufferSink
from repro.sim.engine import Simulator
from repro.obs.telemetry import TelemetryConfig
from repro.transport.base import WindowedReceiver, WindowedSender

#: The budgets: ns per bottleneck packet for the disarmed guards and the
#: default (flight-ring) configuration, per cent over disarmed for all
#: four tiers armed at once.
CEILINGS = {"disarmed_ns_per_pkt": 285.0, "default_ns_per_pkt": 285.0,
            "all_armed_pct": 200.0}

CFG = ScenarioConfig(transport="rudp", workload="greedy", n_frames=5000,
                     base_frame_size=1400, time_cap=120.0)
_TELEMETRY = TelemetryConfig(cadence_s=0.1)
#: ``run()`` keywords per measured configuration.  Each tier is taken alone
#: on top of the disarmed run; ``all`` is everything at once, ring included.
CONFIGS = {
    "disarmed": dict(flight=False),
    "default": dict(),
    "trace": dict(flight=False, traced=True),
    "spans": dict(flight=False, spans=True),
    "telemetry": dict(flight=False, telemetry=_TELEMETRY),
    "invariants": dict(flight=False, invariants=True),
    "all": dict(traced=True, spans=True, telemetry=_TELEMETRY,
                invariants=True),
}


class CountingBus(NullBus):
    """``NULL_BUS`` with its two guards as counting properties."""

    __slots__ = ("reads",)

    def __init__(self):
        self.reads = {"enabled": 0, "recording": 0}

    @property
    def enabled(self):
        self.reads["enabled"] += 1
        return False

    @property
    def recording(self):
        self.reads["recording"] += 1
        return False


class CountingNone:
    """Stands in for a ``spans = None`` class attribute; counts reads."""

    def __init__(self):
        self.reads = 0

    def __get__(self, obj, owner):
        self.reads += 1
        return None


def run(*, flight=True, traced=False, **fields):
    """One transfer; ``flight=False`` runs it without the ring (the
    scenario builds no bus unless traced).  Returns the wall time and the
    result."""
    if not flight:
        common.FlightRecorder = lambda: None
    try:
        sink = RingBufferSink(capacity=1024) if traced else None
        t0 = time.perf_counter()
        res = run_scenario(CFG.replace(**fields), trace_sink=sink)
        wall = time.perf_counter() - t0
    finally:
        common.FlightRecorder = FlightRecorder
    assert res.completed
    return wall, res


def packets(res):
    """Bottleneck crossings, both directions (cross traffic included)."""
    return res.net.forward.packets_sent + res.net.backward.packets_sent


def count_guard_reads():
    """Guard reads per packet on the fully disarmed clean transfer, and
    the packets it took."""
    bus, sp = CountingBus(), CountingNone()
    # Every module that imported the null bus builds its components on it.
    holders = [m for name, m in list(sys.modules.items())
               if name.startswith("repro.")
               and getattr(m, "NULL_BUS", None) is NULL_BUS]
    for mod in holders:
        mod.NULL_BUS = bus
    WindowedSender.spans = WindowedReceiver.spans = sp
    try:
        _, res = run(flight=False)
    finally:
        for mod in holders:
            mod.NULL_BUS = NULL_BUS
        WindowedSender.spans = WindowedReceiver.spans = None
    assert res.conn.sender.trace is bus, "the counting bus was not adopted"
    reads = dict(bus.reads, spans=sp.reads)
    return {k: n / packets(res) for k, n in reads.items()}, packets(res)


def loop_ns(body, n=100_000):
    """Best-of-five cost of one ``body(i)`` call's worth of work, in ns,
    with the loop that drives it subtracted."""
    def timed(fn):
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    def plain():
        for i in range(n):
            pass

    return max(timed(lambda: body(n)) - timed(plain), 0.0) / n * 1e9


def guard_ns():
    """Cost of one guard read: the dearer of the two shapes a site meets
    (a class attribute through an instance, as on ``NULL_BUS`` and
    ``spans``; an instance attribute, as on a live bus)."""
    def reads(tr):
        def body(n):
            for _ in range(n):
                if tr.enabled:
                    raise AssertionError
        return body

    return max(loop_ns(reads(NULL_BUS)),
               loop_ns(reads(TraceBus(Simulator()))))


def cold_ns():
    """Cost of reporting one cold event -- a queue drop, the widest --
    through a bus that feeds the flight ring alone."""
    tr = TraceBus(Simulator(), ring=FlightRecorder())

    def body(n):
        for i in range(n):
            if tr.recording:
                tr.cold("net", "PACKET_DROP", link="bottleneck-fwd",
                        kind="queue", flow=1, pkt=i, size=1440,
                        queued_pkts=64, queued_bytes=92160)

    return loop_ns(body), loop_ns(lambda n: tr.ring.dump(), n=1)


def bench_obs_overhead(benchmark):
    run()   # warm-up: first-call set-up must not bias any delta
    reads, n_pkts = count_guard_reads()
    read_ns = guard_ns()
    disarmed_ns_per_pkt = sum(reads.values()) * read_ns

    _, squeezed = run(cbr_bps=17e6)
    notes = squeezed.flight["events_noted"] / packets(squeezed)
    del squeezed    # a big live heap taxes the allocation-heavy tiers most
    note_ns, dump_ns = cold_ns()
    default_ns_per_pkt = (disarmed_ns_per_pkt + notes * note_ns
                          + dump_ns / n_pkts)

    # Interleave the sides so clock drift and neighbour load hit all alike.
    # Freeze what the process already holds (pytest's heap is several times
    # a run's) out of the collector's sight: full collections otherwise tax
    # a tier by how much *it* allocates times how much the *host* holds.
    best = dict.fromkeys(CONFIGS, float("inf"))
    summaries = {}
    gc.collect()
    gc.freeze()
    try:
        for _ in range(9):
            for name, kw in CONFIGS.items():
                wall, res = run(**kw)
                best[name] = min(best[name], wall)
                summaries[name] = res.summary
                del res
    finally:
        gc.unfreeze()
    for name, summary in summaries.items():
        assert summary == summaries["disarmed"], (
            f"{name}: arming an observer changed the summary it observes")
    base = best.pop("disarmed")
    packet_ns = base / n_pkts * 1e9
    timed_ns = (best.pop("default") - base) / n_pkts * 1e9
    armed = {f"{name}_armed_pct": round(100.0 * (wall - base) / base, 2)
             for name, wall in best.items()}

    print("\nguard reads per packet: "
          + ", ".join(f"{k} {v:.2f}" for k, v in reads.items())
          + f" x {read_ns:.1f} ns = disarmed {disarmed_ns_per_pkt:.0f} "
          f"ns/pkt; default + {notes:.3f} notes x {note_ns:.0f} ns + dump "
          f"= {default_ns_per_pkt:.0f} ns/pkt (timed {timed_ns:+.0f}) of "
          f"{packet_ns:.0f}; armed "
          + ", ".join(f"{k[:-10]} {v:+.0f}%" for k, v in armed.items()))
    measured = dict(armed, disarmed_ns_per_pkt=disarmed_ns_per_pkt,
                    default_ns_per_pkt=default_ns_per_pkt)
    for name, ceiling in CEILINGS.items():
        assert measured[name] <= ceiling, (
            f"{name} = {measured[name]:.1f} exceeds its budget of {ceiling:g}")
    assert benchmark(lambda: run()[1].completed)
