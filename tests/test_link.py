"""Unit tests for links: serialization, propagation, queueing, failures."""

import pickle
import random

import pytest

from repro.invariants.checks import CHECK_PRIORITY
from repro.obs.bus import TraceBus
from repro.obs.events import PACKET_DROP
from repro.obs.flight import FlightRecorder
from repro.obs.sinks import RingBufferSink
from repro.sim.engine import Simulator
from repro.sim.link import (BernoulliLoss, DelayJitter, GilbertElliottLoss,
                            Link, LossModel)
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue, QueueStats


class Sink:
    def __init__(self):
        self.got = []
        self.times = []

    def receive(self, pkt):
        self.got.append(pkt)


class TimedSink:
    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive(self, pkt):
        self.arrivals.append((self.sim.now, pkt))


def mkpkt(size=1400):
    return Packet(flow_id=1, size=size)


def test_bandwidth_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, 0, 0.01, Sink())
    with pytest.raises(ValueError):
        Link(sim, 1e6, -1.0, Sink())


def test_delivery_time_is_serialization_plus_propagation():
    sim = Simulator()
    sink = TimedSink(sim)
    link = Link(sim, bandwidth_bps=1e6, delay_s=0.05, sink=sink)
    pkt = mkpkt(1400)  # wire 1440 B = 11520 bits -> 11.52 ms at 1 Mbps
    link.send(pkt)
    sim.run()
    assert len(sink.arrivals) == 1
    t, got = sink.arrivals[0]
    assert got is pkt
    assert t == pytest.approx(0.05 + 1440 * 8 / 1e6)


def test_back_to_back_packets_serialize_sequentially():
    sim = Simulator()
    sink = TimedSink(sim)
    link = Link(sim, bandwidth_bps=1e6, delay_s=0.0, sink=sink)
    for _ in range(3):
        link.send(mkpkt())
    sim.run()
    tx = 1440 * 8 / 1e6
    times = [t for t, _ in sink.arrivals]
    assert times == pytest.approx([tx, 2 * tx, 3 * tx])


def test_queue_overflow_drops():
    sim = Simulator()
    sink = Sink()
    link = Link(sim, bandwidth_bps=1e6, delay_s=0.0, sink=sink,
                queue_bytes=2 * 1440)
    # One packet goes straight to the transmitter; two fit the queue.
    sent = [link.send(mkpkt()) for _ in range(5)]
    sim.run()
    assert sent == [True, True, True, False, False]
    assert len(sink.got) == 3
    assert link.queue.stats.drops == 2


class Lineage:
    """Stands in for the span recorder's drop hook (``sim.spans``)."""

    def __init__(self):
        self.drops = []

    def on_drop(self, pkt, link, kind):
        self.drops.append((pkt.seq, link, kind))


def reporting_link(**kw):
    """A link on a traced, ring-armed simulator with a lineage hook."""
    sim = Simulator()
    trace = RingBufferSink()
    sim.bus = TraceBus(sim, [trace], ring=FlightRecorder(capacity=1000))
    sim.spans = Lineage()
    link = Link(sim, bandwidth_bps=1e6, delay_s=0.0, sink=Sink(),
                name="hop", **kw)
    return sim, link, trace


def offer(link, n):
    sent = []
    for i in range(n):
        pkt = mkpkt()
        pkt.seq = i
        sent.append(link.send(pkt))
    return sent


def drop_reports(sim, trace):
    """(trace events, ring records) of the drops, both without their
    surface's own numbering."""
    traced = [ev.as_obj() for ev in trace.events if ev.etype == PACKET_DROP]
    noted = [ev for ev in sim.bus.ring.dump()["events"]
             if ev["event"] == PACKET_DROP]
    for ev in traced:
        del ev["seq"]
    for ev in noted:
        del ev["id"]
    return traced, noted


def test_queue_assigned_after_construction_reports_each_drop_once():
    """``link.queue = DropTailQueue(...)`` adopts the link's name, bus and
    lineage hook like the queue ``__init__`` built: every drop is
    reported once to trace, ring and lineage, before ``on_drop`` runs."""
    sim, link, trace = reporting_link()
    observed = []
    link.queue = DropTailQueue(2 * 1440, on_drop=lambda pkt: observed.append(
        (pkt.seq, len(drop_reports(sim, trace)[0]))))
    sent = offer(link, 6)
    dropped = [i for i, ok in enumerate(sent) if not ok]
    assert dropped and len(dropped) == link.queue.stats.drops
    assert observed == [(i, n + 1) for n, i in enumerate(dropped)]
    traced, noted = drop_reports(sim, trace)
    assert [ev["pkt"] for ev in traced] == dropped      # once each
    assert {(ev["kind"], ev["link"]) for ev in traced} == {("queue", "hop")}
    assert noted == traced
    assert sim.spans.drops == [(i, "hop", "queue") for i in dropped]


def test_tail_drop_reports_queue_kind_with_occupancy():
    sim, link, trace = reporting_link(queue_bytes=2 * 1440)
    assert offer(link, 5) == [True, True, True, False, False]
    traced, noted = drop_reports(sim, trace)
    assert traced == noted == [
        {"t": 0.0, "layer": "net", "event": PACKET_DROP, "link": "hop",
         "kind": "queue", "flow": 1, "pkt": i, "size": 1440,
         "queued_pkts": 2, "queued_bytes": 2 * 1440} for i in (3, 4)]
    assert sim.spans.drops == [(3, "hop", "queue"), (4, "hop", "queue")]


def test_wire_and_down_losses_report_once_without_occupancy():
    sim, link, trace = reporting_link(loss=BernoulliLoss(1.0,
                                                         random.Random(1)))
    offer(link, 1)
    sim.run()
    link.fail()
    offer(link, 1)
    traced, noted = drop_reports(sim, trace)
    assert traced == noted
    assert [(ev["kind"], ev["pkt"], sorted(ev)) for ev in traced] == [
        (kind, 0, ["event", "flow", "kind", "layer", "link", "pkt", "size",
                   "t"]) for kind in ("wire", "down")]
    assert sim.spans.drops == [(0, "hop", "wire"), (0, "hop", "down")]
    assert link.packets_lost_wire == 2


def test_tx_time():
    sim = Simulator()
    link = Link(sim, bandwidth_bps=20e6, delay_s=0.0, sink=Sink())
    assert link.tx_time(mkpkt(1400)) == pytest.approx(1440 * 8 / 20e6)


def test_throughput_matches_bandwidth():
    """A saturated 1 Mbps link delivers ~1 Mbps of wire bytes."""
    sim = Simulator()
    sink = Sink()
    link = Link(sim, bandwidth_bps=1e6, delay_s=0.0, sink=sink,
                queue_bytes=1 << 30)
    n = 200
    for _ in range(n):
        link.send(mkpkt())
    sim.run()
    assert len(sink.got) == n
    assert sim.now == pytest.approx(n * 1440 * 8 / 1e6)


def test_link_failure_flushes_queue_and_drops_sends():
    sim = Simulator()
    sink = Sink()
    link = Link(sim, bandwidth_bps=1e3, delay_s=0.0, sink=sink,
                queue_bytes=1 << 20)
    for _ in range(5):
        link.send(mkpkt())
    link.fail()
    assert not link.send(mkpkt())
    sim.run()
    # Only the packet already on the transmitter may have been counted;
    # it is lost at the end of serialisation because the link is down
    # (fail() un-fused it, so its completion event decides its fate).
    assert sink.got == []
    assert link.packets_lost_wire >= 5


def test_link_recovery():
    sim = Simulator()
    sink = Sink()
    link = Link(sim, bandwidth_bps=1e6, delay_s=0.0, sink=sink)
    link.fail()
    link.recover()
    link.send(mkpkt())
    sim.run()
    assert len(sink.got) == 1


def test_bernoulli_loss_drops_roughly_p():
    sim = Simulator()
    sink = Sink()
    loss = BernoulliLoss(0.3, random.Random(42))
    link = Link(sim, bandwidth_bps=1e9, delay_s=0.0, sink=sink,
                queue_bytes=1 << 30, loss=loss)
    n = 2000
    for _ in range(n):
        link.send(mkpkt())
    sim.run()
    delivered = len(sink.got)
    assert 0.6 * n < delivered < 0.8 * n
    assert link.packets_lost_wire == n - delivered


def test_bernoulli_validation():
    with pytest.raises(ValueError):
        BernoulliLoss(1.5, random.Random(0))


def test_wire_counters():
    sim = Simulator()
    sink = Sink()
    link = Link(sim, bandwidth_bps=1e6, delay_s=0.0, sink=sink)
    link.send(mkpkt(100))
    sim.run()
    assert link.packets_sent == 1
    assert link.bytes_sent == 140


# ----------------------------------------------------------------------
# Planned transit: a packet accepted by a plain link is one engine event,
# idle serialiser or backlog; everything observable must match the
# two-event chain it replaced.
# ----------------------------------------------------------------------
class TwoEventLink:
    """The link as it was before any look-ahead, kept here as the
    reference: every hop is a completion event at the end of serialisation,
    which accounts the packet and then schedules its arrival."""

    def __init__(self, sim, bandwidth_bps, delay_s, sink, *, queue_bytes):
        self.sim, self.sink = sim, sink
        self.bandwidth_bps, self.delay_s = bandwidth_bps, delay_s
        self.queue = DropTailQueue(queue_bytes)
        self.loss, self.jitter = LossModel(), None
        self.up, self._busy = True, False
        self.bytes_sent = self.packets_sent = self.packets_lost_wire = 0

    def send(self, pkt):
        if not self.up:
            self.packets_lost_wire += 1
            return False
        if not self.queue.push(pkt):
            return False
        if not self._busy:
            self._start()
        return True

    def _start(self):
        pkt = self.queue.pop()
        self._busy = True
        self.sim.schedule(pkt.wire_size * 8.0 / self.bandwidth_bps,
                          self._tx_done, pkt)

    def _tx_done(self, pkt):
        self.bytes_sent += pkt.wire_size
        self.packets_sent += 1
        if self.up and not self.loss.drops(pkt):
            extra = self.jitter.extra() if self.jitter is not None else 0.0
            self.sim.schedule(self.delay_s + extra, self.sink.receive, pkt,
                              priority=-1)
        else:
            self.packets_lost_wire += 1
        if self.queue.empty:
            self._busy = False
        else:
            self._start()

    def fail(self):
        if self.up:
            self.up = False
            self.packets_lost_wire += self.queue.flush()

    def recover(self):
        self.up = True

    def set_delay(self, delay_s):
        self.delay_s = delay_s

    def set_bandwidth(self, bandwidth_bps):
        self.bandwidth_bps = bandwidth_bps

    def accounting_violation(self):
        if self.queue.stats.departures != self.packets_sent + self._busy:
            return "link accounting"
        return None


#: tx of a 1000-byte wire packet at this rate is exactly 1.0 s, so the
#: tests below can hit ``_free_at`` with exact float times.
_SLOW_BPS = 8e3

STAT_SLOTS = QueueStats.__slots__


def _wire(n=1000, seq=0):
    return Packet(flow_id=1, size=n - 40, seq=seq)


def _apply(link, rng, op, arg):
    if op == "send":
        link.send(arg)
    elif op == "burst":         # a same-instant train of sends
        for pkt in arg:
            link.send(pkt)
    elif op == "loss":
        link.loss = GilbertElliottLoss(p_gb=0.3, p_bg=0.4, rng=rng)
    elif op == "plain":
        link.loss = LossModel()
    elif op == "jitter":
        link.jitter = DelayJitter(max_extra_s=arg, rng=rng)
    elif op == "calm":
        link.jitter = None
    elif op == "queue":         # swap: what the old one holds is stranded
        link.queue = DropTailQueue(arg)
    elif op == "set_capacity":
        link.queue.set_capacity(arg)
    elif op == "read":          # nothing but the snapshots of the instant
        pass
    else:  # fail / recover / set_delay / set_bandwidth
        getattr(link, op)(*(() if arg is None else (arg,)))


def _replay(cls, script, *, bandwidth_bps=_SLOW_BPS, delay_s=0.25,
            queue_bytes=4000, seed=0, mid_instant=True):
    """Drive ``script`` -- ``(time, op, arg)`` rows -- through one link.
    Returns (arrivals, snapshots, events fired); a snapshot is every
    counter an observer can read, taken right after each operation
    (``mid_instant``) and again, like the invariant checker, after all
    work at that instant."""
    sim = Simulator()
    sink = TimedSink(sim)
    link = cls(sim, bandwidth_bps, delay_s, sink, queue_bytes=queue_bytes)
    rng = random.Random(seed)
    snaps = []

    def snapshot(when="settled"):
        st = link.queue.stats
        snaps.append((when, sim.now,
                      tuple(getattr(st, f) for f in st.__slots__),
                      len(link.queue), link.queue.bytes, link.bytes_sent,
                      link.packets_sent, link.packets_lost_wire, link.up,
                      link.accounting_violation() is not None))

    def step(op, arg):
        _apply(link, rng, op, arg)
        if mid_instant:
            snapshot("mid-instant")

    for t, op, arg in script:
        sim.at(t, step, op, arg)
        sim.at(t, snapshot, priority=CHECK_PRIORITY)
    fired = sim.run() - 2 * len(script)
    snapshot()
    return [(t, p.seq) for t, p in sink.arrivals], snaps, fired


def _same_as_reference(script, *, mid_instant=True, sane=True, **kw):
    """``mid_instant=False`` for scripts that act at exactly a planned
    start or finish: there what a reader sees mid-instant depends on
    whether it runs before or after the completion event of the same
    instant, which only the reference has (and a reader settles the books
    inclusively: for what follows it in that instant, the start has
    happened); after all work at the instant they agree.
    ``sane=False`` where the script itself breaks the books (a queue
    swapped under a packet in service): then both must break alike."""
    got = _replay(Link, script, mid_instant=mid_instant, **kw)
    want = _replay(TwoEventLink, script, mid_instant=mid_instant, **kw)
    assert got[0] == want[0]          # arrival instants, exact floats
    assert got[1] == want[1]          # QueueStats, wire counters, accounting
    assert not (sane and any(snap[-1] for snap in got[1]))
    return got[2], want[2]


def test_idle_hop_is_one_event_at_the_same_instant():
    sim = Simulator()
    sink = TimedSink(sim)
    link = Link(sim, 20e6, 0.015, sink)
    for i in range(3):              # spaced wider than tx: always idle
        sim.at(i * 0.01, link.send, mkpkt(700 + i))
    assert sim.run() == 3 + 3       # the three sends, one arrival each
    assert [t for t, _ in sink.arrivals] == [
        (i * 0.01 + (740 + i) * 8.0 / 20e6) + 0.015 for i in range(3)]
    assert link.packets_sent == 3
    assert link.bytes_sent == 740 + 741 + 742
    assert link.accounting_violation() is None


def test_back_to_back_train_fires_as_many_events_as_before():
    """... as before *at the far end*: a train of n is n arrivals, and
    since the backlog is planned that is all it fires (2n on the chain)."""
    script = [(0.0, "send", _wire(seq=i)) for i in range(5)]
    new, old = _same_as_reference(script, queue_bytes=1 << 20)
    assert (new, old) == (5, 2 * 5)


def test_lazy_completion_exists_only_behind_a_second_packet():
    """It did, before backlogs were planned; now not even there: the
    second packet's arrival is posted when it is accepted, and the books
    say at every instant what the completions would have made them say."""
    sim = Simulator()
    link = Link(sim, _SLOW_BPS, 0.25, Sink())
    link.send(_wire())
    assert sim.pending() == 1       # the arrival; no completion event
    sim.run(until=0.5)
    assert link.packets_sent == 0   # still serialising
    link.send(_wire())
    assert sim.pending() == 2       # + the second arrival, nothing else
    assert (len(link.queue), link.queue.stats.departures) == (1, 1)
    sim.run(until=1.0)              # the first finishes, the second starts
    assert (link.packets_sent, len(link.queue)) == (1, 0)
    assert link.queue.stats.departures == 2
    assert link.accounting_violation() is None
    assert sim.run() == 2           # the two arrivals
    assert link.packets_sent == 2 and link.accounting_violation() is None


@pytest.mark.parametrize("op,arg", [
    ("fail", None), ("set_delay", 0.75), ("loss", None), ("jitter", 0.5),
    ("set_bandwidth", 16e3)])
@pytest.mark.parametrize("behind", [0, 2])
def test_mutation_mid_serialisation_matches_two_event_chain(op, arg, behind):
    # Packet 0 is fused at t=0 and serialises until t=1.0; ``behind``
    # packets queue up after it; the mutation lands at t=0.5.
    script = [(0.0, "send", _wire(seq=0))]
    script += [(0.125, "send", _wire(seq=1 + i)) for i in range(behind)]
    script += [(0.5, op, arg), (0.625, "send", _wire(seq=7)),
               (0.75, "recover", None), (0.875, "send", _wire(seq=8)),
               (5.0, "plain", None), (5.0, "calm", None),
               (5.5, "send", _wire(seq=9))]
    for seed in range(5):           # seeds vary the loss/jitter draws
        _same_as_reference(script, seed=seed)


#: Every way to touch a link with a plan pending: ``(op, arg)``.
_MUTATIONS = [
    ("fail", None), ("recover", None), ("set_delay", 0.75),
    ("set_delay", 0.0625), ("set_bandwidth", _SLOW_BPS),
    ("set_bandwidth", 16e3), ("loss", None), ("jitter", 0.5),
    ("queue", 3000), ("set_capacity", 1000), ("read", None)]


@pytest.mark.parametrize("op,arg", _MUTATIONS,
                         ids=[f"{op}-{arg}" for op, arg in _MUTATIONS])
@pytest.mark.parametrize("where", ["before", "at", "after"])
@pytest.mark.parametrize("planned", [1, 2, 7, 64])
def test_mutation_with_a_backlog_planned_matches_two_event_chain(
        planned, where, op, arg):
    """Packet 0 takes the idle serialiser at t=0 and ``planned`` more are
    accepted behind it at once: packet k is planned to start at exactly
    t=k.  The mutation lands half a packet before, exactly at, or half a
    packet after the start of the middle one, with readers at the planned
    instants around it; traffic goes on, and the link is plain again (and
    planning again) well before the end."""
    k = (planned + 1) // 2
    when = {"before": k - 0.5, "at": float(k), "after": k + 0.5}[where]
    unchanged = (op in ("read", "recover", "set_capacity")
                 or arg == _SLOW_BPS)
    script = [(0.0, "burst", [_wire(seq=i) for i in range(1 + planned)])]
    script += [(float(t), "read", None) for t in (k - 1, k, k + 1)]
    script += [(when, op, arg), (when + 0.25, "send", _wire(seq=100)),
               (when + 0.75, "recover", None),
               (when + 1.0, "send", _wire(seq=101)),
               (when + 1.0, "burst", [_wire(500, seq=102 + i)
                                      for i in range(3)]),
               (when + 3.0, "burst", [_wire(seq=110 + i) for i in range(4)]),
               (planned + 90.0, "burst", [_wire(seq=120 + i)
                                          for i in range(3)])]
    if not unchanged:
        script += [(when + 2.5, "plain", None), (when + 2.5, "calm", None)]
    script.sort(key=lambda row: row[0])
    for seed in range(3):           # seeds vary the loss/jitter draws
        new, old = _same_as_reference(script, seed=seed, mid_instant=False,
                                      sane=op != "queue",
                                      queue_bytes=64 * 1000)
        assert new < old
    if unchanged:
        # Not a change: the plan stands and nothing but arrivals fires.
        arrivals, _, fired = _replay(Link, script, queue_bytes=64 * 1000,
                                     mid_instant=False)
        assert fired == len(arrivals)


@pytest.mark.parametrize("op,arg", _MUTATIONS,
                         ids=[f"{op}-{arg}" for op, arg in _MUTATIONS])
def test_a_plain_link_again_plans_a_backlog_that_never_drains(op, arg):
    """Every mutation, undone a moment later, while traffic arrives faster
    than the link serves it: the backlog never drains, so the chain the
    mutation started used to run to the end of the traffic.  Now the first
    completion that finds the link plain and up plans what is queued, and
    every packet after it is planned as it arrives."""
    script = [(0.0, "burst", [_wire(seq=i) for i in range(4)])]
    script += [(0.75 * k, "send", _wire(seq=10 + k)) for k in range(1, 120)]
    script += [(3.5, op, arg), (3.75, "recover", None),
               (4.25, "plain", None), (4.25, "calm", None),
               (60.0, "read", None), (60.5, "read", None)]
    script.sort(key=lambda row: row[0])
    done = []
    tx_done = Link._tx_done

    def counted(link):
        done.append(link.sim.now)
        tx_done(link)

    Link._tx_done = counted
    try:
        new, old = _same_as_reference(script, mid_instant=False,
                                      sane=op != "queue",
                                      queue_bytes=64 * 1000)
    finally:
        Link._tx_done = tx_done
    # The chain ends at the first completion after the link is plain again.
    assert all(t < 6.0 for t in done), done
    assert len(done) <= 3 and new < old / 2 + 3


def test_mutation_after_serialisation_leaves_the_packet_alone():
    # At t=1.125 packet 0 is on the wire (arrives 1.25): failing the link
    # or moving its delay must not touch it.
    for op, arg in (("fail", None), ("set_delay", 5.0)):
        script = [(0.0, "send", _wire(seq=0)), (1.125, op, arg)]
        _same_as_reference(script)
        arrivals, _, _ = _replay(Link, script)
        assert arrivals == [(1.25, 0)]


def test_send_at_free_at_tie_resolves_as_busy():
    # Upstream hop: tx 0.5 s + 0.5 s delay puts packet 1 at the slow link
    # at exactly t=1.0 == _free_at of packet 0, as an arrival (priority
    # -1), i.e. before the completion the two-event chain fires there.
    def run(cls):
        sim = Simulator()
        sink = TimedSink(sim)
        slow = cls(sim, _SLOW_BPS, 0.25, sink, queue_bytes=4000)

        class Hop:
            receive = staticmethod(slow.send)

        feeder = cls(sim, 2 * _SLOW_BPS, 0.5, Hop, queue_bytes=4000)
        slow.send(_wire(seq=0))
        feeder.send(_wire(seq=1))
        fired = sim.run()
        st = slow.queue.stats
        return ([(t, p.seq) for t, p in sink.arrivals], fired,
                [getattr(st, f) for f in st.__slots__],
                slow.bytes_sent, slow.packets_sent,
                slow.accounting_violation())

    new, old = run(Link), run(TwoEventLink)
    # Busy: packet 1 waits out packet 0's last instant and starts at 1.0;
    # idle it would have started at 1.0 all the same, so what tells is the
    # queue -- it was pushed behind packet 0 (a two-byte-budget peak).
    assert new[0] == old[0] == [(1.25, 0), (2.25, 1)]
    assert new[2:] == old[2:]
    assert new[2][STAT_SLOTS.index("peak_bytes")] == 1000
    # Three arrivals are all that fires: no completion anywhere.
    assert new[1] == 3 and old[1] == 6


def test_burst_behind_a_packet_in_transit_drains():
    for at in (0.0, 0.5, 1.0, 1.5):     # idle, mid-transit, tie, idle again
        script = [(0.0, "send", _wire(seq=0)),
                  (at, "burst", [_wire(seq=1 + i) for i in range(3)])]
        _same_as_reference(script, mid_instant=at != 1.0)
        arrivals, _, _ = _replay(Link, script)
        assert [seq for _, seq in arrivals] == [0, 1, 2, 3]


@pytest.mark.parametrize("seed", range(20))
def test_differential_against_two_event_reference(seed):
    """Random arrival patterns, sizes and mid-flight mutations: the fused
    link and the two-event reference agree on every arrival float and on
    every counter at every step."""
    r = random.Random(1000 + seed)
    t, script, seq = 0.0, [], 0
    for _ in range(300):
        # Gaps: same instant, inside one serialisation, or long idle.
        t += r.choice((0.0, 0.0, r.uniform(0, 0.4), r.uniform(0, 0.4),
                       r.uniform(0.5, 3.0)))
        roll = r.random()
        if roll < 0.70:
            script.append((t, "send", _wire(r.randint(40, 1440), seq)))
            seq += 1
        elif roll < 0.76:
            n = r.randint(0, 4)
            script.append((t, "burst", [_wire(r.randint(40, 1440), seq + i)
                                        for i in range(n)]))
            seq += n
        else:
            op = r.choice(("fail", "recover", "recover", "set_delay",
                           "set_bandwidth", "loss", "plain", "jitter",
                           "calm"))
            arg = {"set_delay": r.uniform(0.0, 1.0),
                   "set_bandwidth": r.choice((4e3, 8e3, 64e3)),
                   "jitter": r.uniform(0.01, 0.5)}.get(op)
            script.append((t, op, arg))
    new, old = _same_as_reference(script, seed=seed)
    assert new <= old


class Blackhole:
    def receive(self, pkt):
        pass


def test_pickled_link_drops_transit_state_but_not_its_books():
    for mid, behind in ((0.5, 0), (0.5, 2), (1.5, 2), (9.0, 2)):
        sim = Simulator()
        link = Link(sim, _SLOW_BPS, 0.25, Blackhole())
        for i in range(1 + behind):
            link.send(_wire(seq=i))
        sim.run(until=mid)
        sim.drain()                 # what ScenarioResult.detach() does
        blob = pickle.dumps(link)
        # Only queued packets may ride along, never the one in transit.
        assert (b"Packet" in blob) == bool(len(link.queue))
        assert bool(link._plan) == bool(len(link.queue))    # a plan pending
        clone = pickle.loads(blob)
        assert clone._arrival is None and clone._service is None
        assert not clone._plan
        assert len(clone.queue) == len(link.queue)
        assert (clone.bytes_sent, clone.packets_sent) == \
               (link.bytes_sent, link.packets_sent)
        assert clone.accounting_violation() is None
        assert link.accounting_violation() is None


def test_unpickled_result_reports_the_same_wire_counters():
    """A scenario cut off mid-transfer (time cap) leaves packets on the
    serialisers and a CBR train pending; the detached, pickled result still
    reads the same, cross-traffic books included."""
    from repro.experiments.common import ScenarioConfig, run_scenario
    from repro.traffic.cbr import CbrSource

    def links(res):
        net = res.net
        routes = (*net.left._routes.values(), *net.right._routes.values())
        return [net.forward, net.backward,
                *(r for r in routes if isinstance(r, Link))]

    def books(res):
        return [(l.name, l.bytes_sent, l.packets_sent, l.packets_lost_wire,
                 l.accounting_violation()) for l in links(res)]

    def cross_books(res, cbr):
        (port,) = res.net.cross_ports
        (tx,) = port.senders.values()
        assert cbr.sender is tx
        return (port.egress.packets, port.egress.bytes, tx.packets_sent,
                tx.bytes_sent, cbr.datagrams_sent)

    res = run_scenario(ScenarioConfig(transport="iq", workload="greedy",
                                      n_frames=5000, cbr_bps=16e6, seed=1,
                                      time_cap=0.7))
    assert any(l.sim.now < l._free_at for l in links(res))   # mid-flight
    # The source lives in the bottleneck only: it reads the train, whose
    # next packet is still to arrive at the cut.
    (cbr,) = [train for *_, train in res.net.forward._trains]
    assert isinstance(cbr, CbrSource) and cbr._event is None
    assert cbr._at > res.sim.now
    before, cross_before = books(res), cross_books(res, cbr)
    assert 0 < cross_before[0] < cross_before[4] == 973
    clone, cbr_clone = pickle.loads(pickle.dumps((res.detach(), cbr)))
    assert books(clone) == before
    assert cross_books(clone, cbr_clone) == cross_before
    assert all(row[-1] is None for row in before)
    assert all(l._arrival is None and l._service is None
               for l in links(clone))
