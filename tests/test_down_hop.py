"""The far end is asked at departure (``Link(ahead=True)``, ``Router.arriving``).

The reference is the wiring every flow had before: four access ``Link``\\ s
per host pair and bottlenecks that send their router one arrival event per
packet.  With the routers asked at departure a flow host's down hop is a
:class:`DownHop` and a cross port's egress a held-back counter; both must
hand every packet to the same host at the same float instant and read the
same at any instant, whatever happens to the bottleneck in between.
"""

import pickle
import random

import pytest

from repro.invariants.checks import CHECK_PRIORITY
from repro.obs.bus import TraceBus
from repro.obs.events import QUEUE_DEPTH
from repro.obs.sinks import RingBufferSink
from repro.sim.engine import SimulationError, Simulator
from repro.sim.link import DelayJitter, GilbertElliottLoss, Link, LossModel
from repro.sim.node import Host
from repro.sim.packet import Packet, PacketKind
from repro.sim.topology import ACCESS_QUEUE_BYTES, DownHop, Dumbbell
from repro.traffic.cbr import CbrSource
from repro.transport.udp import UdpSender

STATS = ("arrivals", "departures", "drops", "bytes_in", "bytes_dropped",
         "peak_bytes", "peak_packets", "flushed")


class Echo:
    """Bound on both hosts of a pair: notes every delivery; the receiving
    side answers a data packet with a 40-byte acknowledgement."""

    def __init__(self, sim, host, log):
        self.sim, self.host, self.log = sim, host, log
        host.bind(1, self)

    def receive(self, pkt):
        self.log.append((self.sim.now, self.host.name, pkt.flow_id, pkt.seq))
        if pkt.kind is PacketKind.DATA:
            self.host.send(Packet(pkt.flow_id, PacketKind.ACK, pkt.seq, size=0,
                                  src=pkt.dst, dst=pkt.src, sport=1, dport=1))


def reference_flow_hosts(net, name):
    """``Dumbbell.add_flow_hosts`` as it was: the two down hops are links."""
    sender = Host(net.sim, net._next_addr, name=f"{name}-snd")
    receiver = Host(net.sim, net._next_addr + 1, name=f"{name}-rcv")
    net._next_addr += 2

    def access(sink, name):
        return Link(net.sim, net.ACCESS_BPS, net.ACCESS_DELAY_S, sink,
                    name=name)

    sender.attach_uplink(access(net.left, f"{sender.name}-up"))
    receiver.attach_uplink(access(net.right, f"{receiver.name}-up"))
    net.left.add_route(receiver.address, net.forward)
    net.left.add_route(sender.address, access(sender, f"{sender.name}-down"))
    net.right.add_route(sender.address, net.backward)
    net.right.add_route(receiver.address,
                        access(receiver, f"{receiver.name}-down"))
    return sender, receiver


def build(wiring, *, flows=2, cbr_bps=0.0, trace=None, **net_kw):
    sim = Simulator()
    if trace is not None:
        sim.bus = TraceBus(sim, [trace])
    net = Dumbbell(sim, **net_kw)
    if wiring == "links":
        for attr, sink in (("forward", net.right), ("backward", net.left)):
            asked = getattr(net, attr)
            setattr(net, attr, Link(sim, asked.bandwidth_bps, asked.delay_s,
                                    sink, name=asked.name,
                                    queue_bytes=asked.queue.capacity_bytes))
    log, pairs = [], []
    for i in range(flows):
        pair = (reference_flow_hosts(net, f"f{i}") if wiring == "links"
                else net.add_flow_hosts(f"f{i}"))
        for host in pair:
            Echo(sim, host, log)
        pairs.append(pair)
    if cbr_bps:
        port = net.add_cross_port("x")
        CbrSource(sim, UdpSender(sim, port, port=7, peer_addr=port.peer_address,
                                 peer_port=7), rate_bps=cbr_bps, stop=0.6)
    return sim, net, pairs, log


def apply(sim, net, pairs, rng, op, *args):
    if op == "burst":               # flow, first seq, payload sizes
        flow, seq, sizes = args
        snd, rcv = pairs[flow]
        for k, size in enumerate(sizes):
            snd.send(Packet(flow + 1, PacketKind.DATA, seq + k, size=size,
                            src=snd.address, dst=rcv.address, sport=1,
                            dport=1, created_at=sim.now))
        return
    direction, op = op.split(".")
    link = getattr(net, direction)
    if op == "jitter":
        link.jitter = DelayJitter(max_extra_s=args[0], rng=rng)
    elif op == "calm":
        link.jitter = None
    elif op == "loss":
        link.loss = GilbertElliottLoss(p_gb=0.2, p_bg=0.5, rng=rng)
    elif op == "plain":
        link.loss = LossModel()
    else:   # fail / recover / set_delay / set_bandwidth
        getattr(link, op)(*args)


def run(wiring, script, *, until=2.0, seed=0, sample_every=0.0007, **kw):
    """Everything a reader can see of one run of ``script`` --
    ``(time, op, *args)`` rows -- on a dumbbell wired the ``"links"``
    (reference) or the ``"hops"`` way."""
    sim, net, pairs, log = build(wiring, **kw)
    rng = random.Random(seed)
    for when, *op in script:
        sim.at(when, apply, sim, net, pairs, rng, *op)
    hosts = [host for pair in pairs for host in pair]
    samples = []

    def sample():
        # Read mid-flight, after all work of the instant like the checker.
        samples.append((sim.now, [h.packets_received for h in hosts],
                        [(p.egress.packets, p.egress.bytes)
                         for p in net.cross_ports],
                        [(l.bytes_sent, l.packets_sent, len(l.queue))
                         for l in (net.forward, net.backward)]))
        if sim.now < until:
            sim.schedule(sample_every, sample, priority=CHECK_PRIORITY)

    sim.schedule(sample_every, sample, priority=CHECK_PRIORITY)
    fired = sim.run(until=until + 1.0)
    assert not sim.pending()
    return {
        "delivered": log, "samples": samples,
        "stats": [{k: getattr(l.queue.stats, k) for k in STATS}
                  for l in (net.forward, net.backward)],
        "wire": [(l.bytes_sent, l.packets_sent, l.packets_lost_wire,
                  l.accounting_violation())
                 for l in (net.forward, net.backward)],
        # Nothing is in flight any more.
        "forwarded": (net.left.forwarded, net.right.forwarded),
        "egress": [(p.egress.packets, p.egress.bytes)
                   for p in net.cross_ports],
    }, fired, net


def assert_same(script, **kw):
    want, ref_fired, _ = run("links", script, **kw)
    got, fired, net = run("hops", script, **kw)
    assert len(got["delivered"]) == len(want["delivered"])
    differing = [(a, b) for a, b in zip(want["delivered"], got["delivered"])
                 if a != b]
    assert not differing, differing[:3]
    assert got == want
    assert fired < ref_fired
    return got, net


def bursts(n, *, at=0.01, gap=0.02, size=1400, count=20, flow=0):
    return [(at + k * gap, "burst", flow, k * count, [size] * count)
            for k in range(n)]


# ----------------------------------------------------------------------
# Differential: hops == links, delivery for delivery, read for read
# ----------------------------------------------------------------------
def test_clean_and_backlogged_paths_deliver_at_the_same_instants():
    got, _ = assert_same(bursts(5, count=1))            # every hop idle
    assert len(got["delivered"]) == 2 * 5
    got, _ = assert_same(bursts(5, count=40) + bursts(3, flow=1, at=0.015),
                         cbr_bps=12e6)
    assert got["stats"][0]["peak_packets"] > 30         # really backlogged
    assert got["egress"][0][0] > 500
    # ... read while cross packets were on the wire, too.
    assert any(0 < s[2][0][0] < got["egress"][0][0] for s in got["samples"])


def test_small_packets_behind_a_large_one_wait_at_the_hop():
    """At 400 Mb/s a 40-byte packet leaves the bottleneck 0.8 us behind a
    1440-byte one that needs 11.52 us of the access hop: the hop's FIFO
    arithmetic (start at ``_free_at``, not at the arrival) is what runs."""
    script = [(0.01 + 0.001 * k, "burst", 0, 10 * k, [1400, 0, 0, 700, 0])
              for k in range(20)]
    got, net = assert_same(script, bottleneck_bps=400e6)
    hop = net.right._routes[net._hosts[1].address]
    assert isinstance(hop, DownHop) and hop._backlog > 0
    times = [t for t, host, *_ in got["delivered"] if host == "f0-rcv"]
    assert min(b - a for a, b in zip(times, times[1:])) < 1e-6


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_delay_ramp_down_under_backlog_lets_later_packets_overtake(direction):
    script = bursts(6, count=40, gap=0.03)
    script += [(0.02 + 0.004 * k, f"{direction}.set_delay",
                0.01495 * (1 - k / 8)) for k in range(1, 9)]
    got, _ = assert_same(script, cbr_bps=8e6)
    host = "f0-rcv" if direction == "forward" else "f0-snd"
    seqs = [seq for _, h, _, seq in got["delivered"] if h == host]
    assert seqs != sorted(seqs)                          # it did reorder


def test_jitter_lifted_with_jittered_packets_in_flight():
    script = bursts(8, count=30, gap=0.01)
    script += [(0.012, "forward.jitter", 0.03), (0.021, "forward.calm"),
               (0.024, "backward.jitter", 0.02), (0.04, "backward.calm")]
    for seed in range(4):
        got, _ = assert_same(script, seed=seed, cbr_bps=6e6)
        seqs = [seq for _, h, _, seq in got["delivered"] if h == "f0-rcv"]
        assert seqs != sorted(seqs)


@pytest.mark.parametrize("op", [("fail",), ("set_bandwidth", 5e6),
                                ("set_bandwidth", 20e6), ("loss",)])
def test_mutation_while_booked_packets_still_wait(op):
    name, *args = op
    script = bursts(4, count=40, gap=0.03)
    script += [(0.02, f"forward.{name}", *args), (0.03, "forward.recover"),
               (0.031, f"backward.{name}", *args), (0.05, "backward.recover"),
               (0.06, "forward.plain"), (0.06, "backward.plain")]
    got, _ = assert_same(script, cbr_bps=10e6)
    if name == "fail":
        assert got["stats"][0]["flushed"] > 10


def test_unplan_after_a_replay_cancels_the_replayed_arrival(monkeypatch):
    """The stale-handle case: jitter is lifted with jittered packets in
    flight, so the backlog planned after it is booked, then taken back by
    the hop when a jittered packet arrives ahead of it; the link failing
    next must reach the replayed arrivals, or they are delivered twice."""
    stale = []
    withdraw = DownHop.unbook

    def spy(hop, pkt, at):
        (entry,) = [row for row in hop._log if row[1].args[0] is pkt]
        stale.append(entry[2] is None)      # taken back by the hop since
        assert entry[1].alive
        withdraw(hop, pkt, at)
        assert not entry[1].alive and entry not in hop._log

    monkeypatch.setattr(DownHop, "unbook", spy)
    # 20 jittered packets leave by 0.0217 and arrive until 0.067; the 40
    # sent plain at 0.0225 are booked for 0.038-0.061 and the last ten
    # still wait at the link when it fails.  Then the same without jitter.
    script = [(0.010, "forward.jitter", 0.03),
              (0.0101, "burst", 0, 0, [1400] * 20), (0.022, "forward.calm"),
              (0.0225, "burst", 0, 20, [1400] * 40), (0.040, "forward.fail"),
              (0.050, "forward.recover"),
              (0.100, "burst", 0, 60, [1400] * 40), (0.110, "forward.fail")]
    for seed in range(6):
        got, _ = assert_same(script, seed=seed)
        keys = [row[1:] for row in got["delivered"]]
        assert len(keys) == len(set(keys))               # nothing twice
    # The case is real: bookings the hop had replayed were withdrawn, and
    # bookings it still held.
    assert any(stale) and not all(stale)


@pytest.mark.parametrize("seed", range(12))
def test_generated_traffic_and_mutations_match_the_reference(seed):
    r = random.Random(500 + seed)
    t, script, seq = 0.005, [], [0, 0]
    for _ in range(120):
        t += r.choice((0.0, r.uniform(0, 0.0004), r.uniform(0, 0.004),
                       r.uniform(0.004, 0.03)))
        roll = r.random()
        if roll < 0.6:
            flow = r.randrange(2)
            sizes = [r.choice((0, 200, 700, 1400))
                     for _ in range(r.randint(1, 30))]
            script.append((t, "burst", flow, seq[flow], sizes))
            seq[flow] += len(sizes)
        else:
            direction = r.choice(("forward", "backward"))
            op = r.choice(("fail", "recover", "recover", "set_delay",
                           "set_delay", "set_bandwidth", "loss", "plain",
                           "jitter", "calm", "calm"))
            args = {"set_delay": (r.choice((0.0, 0.002, 0.01495, 0.04)),),
                    "set_bandwidth": (r.choice((5e6, 20e6, 100e6)),),
                    "jitter": (r.uniform(0.001, 0.03),)}.get(op, ())
            script.append((t, f"{direction}.{op}", *args))
    assert_same(script, seed=seed, cbr_bps=r.choice((0.0, 6e6, 15e6)),
                until=t + 0.5)


# ----------------------------------------------------------------------
# The hop on its own
# ----------------------------------------------------------------------
def hop_and_host():
    sim = Simulator()
    host = Host(sim, 5, name="h")
    got = []
    host.receive = lambda pkt: got.append((sim.now, pkt.seq))
    return sim, DownHop(sim, host, access_bps=1e9, access_delay_s=25e-6), got


def test_the_overflow_guard_raises_booked_or_arriving():
    sim, hop, _ = hop_and_host()
    full = ACCESS_QUEUE_BYTES // 1440
    for seq in range(full + 1):             # one serialising + a full queue
        assert hop.book(Packet(1, seq=seq, size=1400), 0.5)
    with pytest.raises(SimulationError, match="access hop"):
        hop.book(Packet(1, seq=99, size=1400), 0.5)
    sim, hop, _ = hop_and_host()
    for seq in range(full + 1):
        hop.send(Packet(1, seq=seq, size=1400))
    with pytest.raises(SimulationError, match="access hop"):
        hop.send(Packet(1, seq=99, size=1400))


def test_a_booking_out_of_order_is_refused_and_arrives_for_real():
    sim, hop, got = hop_and_host()
    early, late = Packet(1, seq=1, size=1400), Packet(1, seq=0, size=1400)
    assert hop.book(late, 0.5)
    assert not hop.book(early, 0.4)         # would overtake ``late``
    sim.at(0.4, hop.send, early, priority=-1)   # ... as its link now does
    sim.run()
    tx = 1440 * 8.0 / 1e9
    assert got == [((0.4 + tx) + 25e-6, 1), ((0.5 + tx) + 25e-6, 0)]
    # Until a known real arrival has happened nothing is booked behind it.
    sim, hop, got = hop_and_host()
    assert hop.book(late, 0.5) and not hop.book(early, 0.4)
    assert not hop.book(Packet(1, seq=2), 0.45)
    assert hop.book(Packet(1, seq=3), 0.6)


def test_a_pickled_hop_keeps_its_books_not_its_bookings():
    sim, hop, _ = hop_and_host()
    hop.host = Host(sim, 5, name="h")
    hop.book(Packet(1, seq=0, size=1400), 0.5)
    sim.drain()
    clone = pickle.loads(pickle.dumps(hop))
    assert hop._log and clone._log is None
    assert (clone.name, clone._free_at) == (hop.name, hop._free_at)


# ----------------------------------------------------------------------
# Traced runs look ahead nowhere and report what the links reported
# ----------------------------------------------------------------------
def test_a_traced_run_is_event_for_event_the_reference():
    script = bursts(3, count=40) + [(0.02, "forward.set_delay", 0.002)]
    traces = []
    for wiring in ("links", "hops"):
        sink = RingBufferSink()
        out, fired, net = run(wiring, script, trace=sink, cbr_bps=10e6)
        traces.append(([ev.as_obj() for ev in sink.events], out, fired))
    (ref_events, ref_out, ref_fired), (events, out, fired) = traces
    assert events == ref_events and out == ref_out
    depth = [ev["queue"] for ev in events if ev["event"] == QUEUE_DEPTH
             and ev["queue"].endswith("-down")]
    assert depth == ["f0-rcv-down", "f0-snd-down"]
    # Two fewer links per pair run the fused hop; nothing else differs.
    assert fired == ref_fired


# ----------------------------------------------------------------------
# Counted work
# ----------------------------------------------------------------------
def test_a_clean_greedy_transfer_is_four_events_per_acknowledged_datagram():
    from repro.experiments.common import ScenarioConfig
    from repro.obs.profiler import profile_scenario

    n = 4000
    res, prof = profile_scenario(ScenarioConfig(
        transport="rudp", workload="greedy", n_frames=n, seed=1))
    counts = prof.counts()
    assert res.completed and res.conn.sender.stats.retransmissions == 0
    # Uplink arrival at each router, Host.receive at each host.
    assert counts["Router.receive"] == 2 * n
    assert counts["Host.receive"] == 2 * n
    assert "Link._tx_done" not in counts
    # What is left is not per datagram: the pump, metric and epoch ticks,
    # and the lazy retransmission timer's early wake-ups.
    assert prof.events_fired - 4 * n == 52
    # On a plain bottleneck no event exists whose only effect is a counter.
    assert {"Link.send", "_Egress.send", "DownHop.send"}.isdisjoint(counts)
