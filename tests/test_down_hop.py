"""The far end is asked at departure (``Link(ahead=True)``, ``Router.arriving``)
and a bottleneck one up hop alone feeds is booked when its host sends
(``Link.book``).

The reference is the wiring every flow had before: four access ``Link``\\ s
per host pair and bottlenecks that send their router one arrival event per
packet.  With the routers asked at departure a flow host's hops are an
:class:`UpHop` and a :class:`DownHop` and a cross port's egress a held-back
counter; all must hand every packet to the same host at the same float
instant and read the same at any instant, whatever happens to the
bottleneck in between.  Every script runs with one host pair too, where
both bottlenecks are booked.
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

    def wire():
        name = f"f{len(pairs)}"
        pair = (reference_flow_hosts(net, name) if wiring == "links"
                else net.add_flow_hosts(name))
        for host in pair:
            Echo(sim, host, log)
        pairs.append(pair)

    for _ in range(flows):
        wire()
    if cbr_bps:
        port = net.add_cross_port("x")
        CbrSource(sim, UdpSender(sim, port, port=7, peer_addr=port.peer_address,
                                 peer_port=7), rate_bps=cbr_bps, stop=0.6)
    return sim, net, pairs, log, wire


def apply(sim, net, pairs, rng, op, *args):
    if op == "burst":               # flow, first seq, payload sizes
        flow, seq, sizes = args
        snd, rcv = pairs[flow % len(pairs)]
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
    elif op == "capacity":
        link.queue.set_capacity(*args)
    else:   # fail / recover / set_delay / set_bandwidth
        getattr(link, op)(*args)


def uplink_stats(host):
    uplink = host._uplink
    stats = uplink.queue.stats if isinstance(uplink, Link) else uplink.stats
    return {k: getattr(stats, k) for k in STATS}


def run(wiring, script, *, until=2.0, seed=0, sample_every=0.0007, **kw):
    """Everything a reader can see of one run of ``script`` --
    ``(time, op, *args)`` rows; ``"wire"`` adds a host pair, ``"read"``
    reads -- on a dumbbell wired the ``"links"`` (reference) or the
    ``"hops"`` way."""
    sim, net, pairs, log, wire = build(wiring, **kw)
    rng = random.Random(seed)
    samples = []

    def read():
        # Read mid-flight, after all work of the instant like the checker.
        samples.append((sim.now, [h.packets_received for p in pairs
                                  for h in p],
                        [(p.egress.packets, p.egress.bytes)
                         for p in net.cross_ports],
                        [(l.bytes_sent, l.packets_sent, len(l.queue),
                          l.queue.stats.peak_packets)
                         for l in (net.forward, net.backward)]))

    for when, *op in script:
        if op == ["wire"] or op == ["read"]:
            sim.at(when, wire if op == ["wire"] else read)
        else:
            sim.at(when, apply, sim, net, pairs, rng, *op)

    def sample():
        read()
        if sim.now < until:
            sim.schedule(sample_every, sample, priority=CHECK_PRIORITY)

    sim.schedule(sample_every, sample, priority=CHECK_PRIORITY)
    fired = sim.run(until=until + 1.0)
    assert not sim.pending()
    return {
        "delivered": log, "samples": samples,
        "stats": [{k: getattr(l.queue.stats, k) for k in STATS}
                  for l in (net.forward, net.backward)],
        "uplinks": [uplink_stats(h) for p in pairs for h in p],
        "wire": [(l.bytes_sent, l.packets_sent, l.packets_lost_wire,
                  l.accounting_violation())
                 for l in (net.forward, net.backward)],
        # Nothing is in flight any more.
        "forwarded": (net.left.forwarded, net.right.forwarded),
        "egress": [(p.egress.packets, p.egress.bytes)
                   for p in net.cross_ports],
    }, fired, net


def assert_same(script, *, flows=2, ties_in_order=True, **kw):
    """Hops == links for ``script`` as given and with one host pair, where
    its up hops book both bottlenecks (the forward one unless a cross port
    feeds it too); returns the first run's readings and dumbbell, which
    notes the bookings taken.  ``ties_in_order=False`` forgives which of
    two packets tied at a down hop goes first (DESIGN.md section 2, caveat
    (i))."""
    book, booked = Link.book, []

    def counted(link, pkt, at):
        booked.append(book(link, pkt, at))
        return booked[-1]

    runs = []
    for n in dict.fromkeys((flows, 1)):
        want, ref_fired, _ = run("links", script, flows=n, **kw)
        Link.book, booked[:] = counted, []
        try:
            got, fired, net = run("hops", script, flows=n, **kw)
        finally:
            Link.book = book
        for out in () if ties_in_order else (want, got):
            # The same packets, at the same instants, but two that tie at a
            # down hop may swap places there.
            log = out["delivered"]
            out["delivered"] = [sorted((h, t) for t, h, *_ in log),
                                sorted((h, f, s) for _, h, f, s in log)]
        assert len(got["delivered"]) == len(want["delivered"])
        differing = [(a, b) for a, b in zip(want["delivered"],
                                            got["delivered"]) if a != b]
        assert not differing, (n, differing[:3])
        assert got == want, n
        assert fired < ref_fired
        assert bool(booked) == (n == 1), n     # asked while it alone feeds
        net.booked = booked.count(True)
        runs.append((got, net))
    return runs[0]


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
    assert isinstance(hop, DownHop) and hop._backlog     # packets waited
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


def test_a_stream_at_the_access_rate_waits_one_packet_at_each_hop():
    """Offered at the spacing of the access hop, every packet finds the one
    before it finishing: the links' queues hold one packet at a time,
    however long the stream, and so do the hops' (they used to count every
    byte since the serialiser was idle, and raised after 64)."""
    spacing = 1440 * 8 / Dumbbell.ACCESS_BPS
    script = [(0.01 + k * spacing, "burst", 0, k, [1400]) for k in range(300)]
    kw = dict(bottleneck_bps=1e9, queue_pkts=1000, until=0.2)
    got, net = assert_same(script, flows=1, **kw)
    assert sum(h == "f0-rcv" for _, h, *_ in got["delivered"]) == 300
    _, _, ref = run("links", script, flows=1, **kw)
    (down,) = [r for r in ref.right._routes.values() if r is not ref.backward]
    assert (down.queue.stats.peak_packets, down.queue.stats.drops) == (1, 0)
    hop = net.right._routes[net._hosts[1].address]
    assert len(hop._backlog) <= 1


def test_an_up_hop_drops_what_the_uplink_dropped():
    got, net = assert_same([(0.01, "burst", 0, 0, [1400] * 80),
                            (0.0101, "burst", 0, 80, [200] * 40),
                            (0.03, "burst", 1, 0, [700] * 10)])
    # One serialising and 64 queued, then room in bytes for 40 small ones.
    assert got["uplinks"][0]["drops"] == 80 - 65
    assert got["uplinks"][0]["peak_packets"] > 64
    assert net.booked == 0      # two pairs: nothing was booked


# The dyadic dumbbell: rates, delays and wire sizes are powers of two, so
# every float sum is exact and instants tie wherever the arithmetic says.
ACCESS_TX = 2 ** -17            # 1024 wire bytes at 2**30 b/s
DYADIC = dict(bottleneck_bps=2 ** 24, rtt_s=2 * (2 ** -7 + 2 ** -14))


@pytest.fixture
def dyadic(monkeypatch):
    monkeypatch.setattr(Dumbbell, "ACCESS_BPS", 2 ** 30)
    monkeypatch.setattr(Dumbbell, "ACCESS_DELAY_S", 2 ** -15)
    return DYADIC


def booked_at(t, i):
    """The instant router L meets packet ``i`` of a burst sent at ``t``."""
    return t + (i + 1) * ACCESS_TX + 2 ** -15


def dyadic_script(flows=2):
    """Every 2**-9 s each pair sends two 1024-byte packets, and one more
    2**-11 s (a bottleneck transmission) later: that one reaches router L
    the instant the second starts on the bottleneck.  Read at every instant
    a packet reaches router L."""
    script = []
    for k in range(40):
        t = 2 ** -6 + k * 2 ** -9
        for flow in range(flows):
            script += [(t, "burst", flow, 3 * k, [984] * 2),
                       (t + 2 ** -11, "burst", flow, 3 * k + 2, [984])]
        script += [(booked_at(t, i), "read") for i in range(2)]
        script.append((booked_at(t + 2 ** -11, 0), "read"))
    return script


def test_exact_ties_read_and_deliver_as_the_reference(dyadic):
    for flows in (2, 1):
        got, net = assert_same(dyadic_script(flows), flows=flows, until=0.3,
                               **dyadic)
    # At the tie the arrival comes first and finds the second packet still
    # queued: two packets, never more; a start first would have left one.
    assert got["stats"][0]["peak_packets"] == 2
    assert net.booked == 2 * 3 * 40         # data and ACKs, all booked


def ack_booked_at(t, i):
    """The instant router R meets the ACK of packet ``i`` of a burst sent at
    ``t`` onto an idle bottleneck."""
    delivered = booked_at(t, 0) + (i + 1) * 2 ** -11 + 2 ** -7 + ACCESS_TX
    return delivered + 2 ** -15 + 40 * 8 / 2 ** 30 + 2 ** -15


@pytest.fixture
def taken_back(monkeypatch):
    """How many bookings each ``Link._take_back`` took back."""
    taken = []
    take_back = Link._take_back

    def spy(link):
        before = len(link._held)
        take_back(link)
        taken.append(before - len(link._held))

    monkeypatch.setattr(Link, "_take_back", spy)
    return taken


@pytest.mark.parametrize("before", [0.0, 2 ** -20])
@pytest.mark.parametrize("op", [
    ("fail",), ("set_delay", 2 ** -9), ("set_bandwidth", 2 ** 23),
    ("loss",), ("jitter", 2 ** -10), ("capacity", 3 * 1024),
    ("capacity", 2 ** 20)])
def test_a_mutation_at_or_just_before_a_booked_instant(dyadic, taken_back,
                                                       op, before):
    """Mutations meet bookings: exactly at a booked instant (the arrival,
    priority -1, has happened) and just before it (taken back), on the
    data's bottleneck and on the ACKs'."""
    name, *args = op
    ack, data = (2 ** -6 + k * 2 ** -9 for k in (12, 30))   # two bursts
    script = dyadic_script(1) + [
        (ack_booked_at(ack, 0) - before, f"backward.{name}", *args),
        (booked_at(data, 1) - before, f"forward.{name}", *args)]
    for direction in ("forward", "backward"):
        script += [(2 ** -3, f"{direction}.recover"),
                   (2 ** -3, f"{direction}.calm"),
                   (2 ** -3, f"{direction}.plain")]
    # A delay cut lets a packet that left later reach router R the instant
    # an earlier one booked there does: caveat (i), the order at that
    # instant may differ (it did before bookings at router L, too).
    got, net = assert_same(script, flows=1, until=0.3, **dyadic,
                           ties_in_order=name != "set_delay")
    assert net.booked > 50
    # Just before, each mutation (a larger budget excepted) met one.
    assert sum(taken_back) == (2 if before and args != [2 ** 20] else 0)


@pytest.mark.parametrize("offset", [-2 ** -20, 0.0, 2 ** -20])
def test_a_feeder_wired_while_bookings_wait(dyadic, taken_back, offset):
    t = 2 ** -4
    script = dyadic_script(1) + [(booked_at(t, 0) + offset, "wire"),
                                 (t + 2 ** -7, "burst", 1, 200, [984] * 8)]
    got, net = assert_same(script, flows=1, until=0.3, **dyadic)
    assert any(taken_back)
    assert net.forward.feeders == net.backward.feeders == 2


@pytest.mark.parametrize("seed", range(6))
def test_generated_mutations_on_booked_instants(dyadic, seed):
    """Random bursts on the dyadic dumbbell, and mutations, capacity
    changes, reads and a second pair placed at, just before and just after
    the instants their packets reach router L."""
    r = random.Random(900 + seed)
    script, seq, t = [], 0, 2 ** -6
    for _ in range(40):
        t += r.randrange(1, 8) * 2 ** -10
        n = r.randint(1, 5)
        script.append((t, "burst", 0, seq, [r.choice((984, 472, 0))] * n))
        seq += n
        when = booked_at(t, r.randrange(n)) + r.choice((-1, 0, 0, 1)) * 2 ** -20
        direction = r.choice(("forward", "backward"))
        op = r.choice(("read", "read", "fail", "recover", "set_delay",
                       "set_bandwidth", "loss", "plain", "jitter", "calm",
                       "capacity", "capacity"))
        args = {"set_delay": (r.choice((2 ** -7, 2 ** -10, 2 ** -6)),),
                "set_bandwidth": (r.choice((2 ** 23, 2 ** 24, 2 ** 26)),),
                "jitter": (2 ** -11,),
                "capacity": (r.choice((2, 8, 90)) * 1024,)}.get(op, ())
        script.append((when, "read") if op == "read"
                      else (when, f"{direction}.{op}", *args))
    if seed % 2:
        script.append((booked_at(2 ** -4, 0), "wire"))
    assert_same(script, flows=1, until=t + 0.3, ties_in_order=False,
                **dyadic)


def test_a_cut_and_a_pickle_while_bookings_wait(dyadic):
    """A run cut (``run(until=...)``) while packets are booked but still on
    their up hops reads -- and pickles -- as the reference at that instant:
    the bookings are not in the books yet."""
    t = 2 ** -5
    script = [(t + k * 2 ** -9, "burst", 0, 8 * k, [984] * 8)
              for k in range(6)]
    cut = booked_at(t + 5 * 2 ** -9, 3) - 2 ** -20

    def books(link):
        return (link.bytes_sent, link.packets_sent, len(link.queue),
                link.queue.bytes, link.accounting_violation(),
                {k: getattr(link.queue.stats, k) for k in STATS})

    reads = []
    for wiring in ("links", "hops"):
        sim, net, pairs, log, _ = build(wiring, flows=1, **dyadic)
        for when, *op in script:
            sim.at(when, apply, sim, net, pairs, random.Random(0), *op)
        sim.run(until=cut)
        if wiring == "hops":
            assert net.forward._held            # booked, not arrived
        reads.append([books(l) for l in (net.forward, net.backward)])
        sim.drain()                             # what ``detach`` does
        clones = pickle.loads(pickle.dumps((net.forward, net.backward)))
        assert [books(l) for l in clones] == reads[-1]
        assert not any(l._held for l in clones)
    assert reads[0] == reads[1]


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


def test_a_traced_down_hop_reports_every_peak_its_link_did():
    """At 400 Mb/s small packets wait at the down hop behind a large one:
    its queue peaks past one packet, and the trace says so each time."""
    script = [(0.01 + 0.001 * k, "burst", 0, 10 * k, [1400, 0, 0, 700, 0])
              for k in range(20)]
    script += [(0.05, "burst", 0, 500, [1400] * 80)]    # the uplink drops
    traces = []
    for wiring in ("links", "hops"):
        sink = RingBufferSink()
        out, fired, _ = run(wiring, script, trace=sink, bottleneck_bps=400e6)
        traces.append(([ev.as_obj() for ev in sink.events], out, fired))
    (ref_events, ref_out, ref_fired), (events, out, fired) = traces
    assert events == ref_events and out == ref_out and fired == ref_fired
    peaks = [ev["pkts"] for ev in events if ev["event"] == QUEUE_DEPTH
             and ev["queue"] == "f0-rcv-down"]
    assert peaks == sorted(peaks) and peaks[-1] > 1
    assert any(ev["event"] == "PACKET_DROP" and ev["link"] == "f0-snd-up"
               for ev in events)


# ----------------------------------------------------------------------
# Counted work
# ----------------------------------------------------------------------
def test_a_clean_greedy_transfer_is_two_events_per_acknowledged_datagram():
    from repro.experiments.common import ScenarioConfig
    from repro.obs.profiler import profile_scenario

    n = 4000
    res, prof = profile_scenario(ScenarioConfig(
        transport="rudp", workload="greedy", n_frames=n, seed=1))
    counts = prof.counts()
    assert res.completed and res.conn.sender.stats.retransmissions == 0
    # Host.receive at each host: each up hop books its bottleneck when its
    # host sends, and that bottleneck books the down hop.
    assert counts["Host.receive"] == 2 * n
    assert "Router.receive" not in counts
    assert "Link._tx_done" not in counts
    # What is left is not per datagram: the pump, metric and epoch ticks,
    # and the lazy retransmission timer's early wake-ups.
    assert prof.events_fired - 2 * n == 52
    # On a plain bottleneck no event exists whose only effect is a counter.
    assert {"Link.send", "_Egress.send", "DownHop.send"}.isdisjoint(counts)
    # Every booking entered the books: the uplinks' and the bottlenecks'
    # counters agree with what the transfer sent.
    net = res.net
    ups = [host._uplink.stats for host in net._hosts]
    assert [st.arrivals for st in ups] == [n, n]
    assert (net.forward.queue.stats.arrivals, net.backward.queue.stats.arrivals,
            net.forward.packets_sent, net.backward.packets_sent) == (n,) * 4
