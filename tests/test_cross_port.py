"""Cross traffic enters at the bottleneck (``Dumbbell.add_cross_port``).

The reference is the wiring every cross flow had before: a sender/receiver
host pair with its four access links and a ``UdpSink``.  A cross port must
offer the forward bottleneck the same packets at the same float instants;
everything downstream of that call is shared code.
"""

import functools
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.bus import TraceBus
from repro.obs.flight import FlightRecorder
from repro.sim import topology
from repro.sim.engine import SimulationError, Simulator
from repro.sim.link import BernoulliLoss, Link, LossModel
from repro.sim.packet import Packet, PacketKind
from repro.sim.topology import CrossPort, Dumbbell
from repro.traffic.cbr import CbrSource
from repro.traffic.vbr import VbrSource
from repro.transport.udp import UdpSender, UdpSink

STATS = ("arrivals", "departures", "drops", "bytes_in", "bytes_dropped",
         "peak_bytes", "peak_packets", "flushed")


class RecordingLink(Link):
    """The forward bottleneck, noting every packet offered to it: each real
    arrival, and each train packet it reads, at its instant."""

    __slots__ = ("offered",)

    def _note(self, pkt, now):
        self.offered.append((now, pkt.flow_id, pkt.seq, pkt.wire_size,
                             pkt.created_at))

    def send(self, pkt):
        self._read_trains()     # what arrived before it is noted first
        self._note(pkt, self.sim.now)
        return super().send(pkt)

    def _admit(self, pkt, now):
        if self._reading:
            self._note(pkt, now)
        return super()._admit(pkt, now)

    def book(self, pkt, at):
        return False        # every packet is offered when it arrives


def run_wiring(wiring, sources, ops=(), until=None, ahead=False, **net_kw):
    """Build ``sources`` on a dumbbell wired the ``"hosts"`` (reference) or
    the ``"port"`` way, apply ``ops`` -- ``(time, name, *args)`` -- and run.
    Returns everything the bottleneck saw and every counter a reader has.
    With ``ahead`` the bottleneck asks its far end, so it reads the trains.

    A source is ``("cbr" | "vbr", kwargs)``; an op is ``set_rate i rate``,
    ``stop i``, ``start i``, ``fail`` or ``recover`` (the last two on the
    forward bottleneck)."""
    sim = Simulator()
    net = Dumbbell(sim, **net_kw)
    fwd = net.forward
    net.forward = rec = RecordingLink(
        sim, fwd.bandwidth_bps, fwd.delay_s, net.right,
        queue_bytes=fwd.queue.capacity_bytes, name=fwd.name, ahead=ahead)
    rec.offered = []
    srcs, far_ends, senders = [], [], []
    for i, (kind, kw) in enumerate(sources):
        if wiring == "hosts":
            snd, rcv = net.add_flow_hosts(f"x{i}")
            tx = UdpSender(sim, snd, port=7000 + i, peer_addr=rcv.address,
                           peer_port=7000 + i)
            far_ends.append(UdpSink(sim, rcv, port=7000 + i,
                                    flow_id=tx.flow_id))
        else:
            port = net.add_cross_port(f"x{i}")
            tx = UdpSender(sim, port, port=7000 + i,
                           peer_addr=port.peer_address, peer_port=7000 + i)
            far_ends.append(port.egress)
        senders.append(tx)
        srcs.append((CbrSource if kind == "cbr" else VbrSource)(sim, tx,
                                                                **kw))

    def apply(name, *args):
        if name in ("fail", "recover"):
            getattr(rec, name)()
        else:
            getattr(srcs[args[0]], name)(*args[1:])

    for when, *op in ops:
        sim.at(when, apply, *op)
    sim.run(until=until)
    drained = not sim.pending() and not rec._trains
    if drained and until is None:
        # Nothing is left but what the bottleneck planned and a far end
        # counts ahead of the clock.  A run cut at ``until`` is read there:
        # a planned packet still serialising posts no event to wait for.
        sim.run(until=sim.now + 0.1)
    out = {
        "offered": rec.offered,
        "fwd": {k: getattr(rec.queue.stats, k) for k in STATS},
        "bwd": {k: getattr(net.backward.queue.stats, k) for k in STATS},
        "wire": (rec.bytes_sent, rec.packets_sent, rec.packets_lost_wire),
        "sent": [s.datagrams_sent if isinstance(s, CbrSource)
                 else s.frames_sent for s in srcs],
    }
    if drained:
        # Nothing is between a sender's counters and the far end.
        out["senders"] = [(tx.packets_sent, tx.bytes_sent) for tx in senders]
        out["far_ends"] = [
            (e.packets_received, e.bytes_received) if wiring == "hosts"
            else (e.packets, e.bytes) for e in far_ends]
    return out


def assert_same(sources, ops=(), until=None, **net_kw):
    """The port wiring offers the bottleneck what the host pair did, with
    its trains fired as events and read by the link."""
    ref = run_wiring("hosts", sources, ops, until, **net_kw)
    for ahead in (False, True):
        want = dict(ref)
        got = run_wiring("port", sources, ops, until, ahead, **net_kw)
        assert len(got["offered"]) == len(want["offered"]), ahead
        differing = [(a, b) for a, b in zip(want["offered"], got["offered"])
                     if a != b]
        assert not differing, (ahead, differing[:3])
        if ("far_ends" in got) != ("far_ends" in want):
            # The host pair's far end is one access hop (36.52 us) behind
            # the port's, and a train the link reads leaves no event after
            # it: a cut finds only one of the two drained.
            for out in (got, want):
                out.pop("far_ends", None)
                out.pop("senders", None)
        assert got == want, ahead
    return got


def nominal_ticks(rate_bps, n, start=0.0, payload=1400):
    """The tick chain's clock: ``t_{k+1} = t_k + interval``, summed."""
    interval = (payload + 40) * 8.0 / rate_bps
    ticks = [start]
    for _ in range(n):
        ticks.append(ticks[-1] + interval)
    return ticks


#: One access hop for a 1440-byte wire packet: 11.52 us + 25 us.
HOP_S = 1440 * 8.0 / Dumbbell.ACCESS_BPS + Dumbbell.ACCESS_DELAY_S


# ----------------------------------------------------------------------
# Differential: port == host pair, element for element
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rate", [1e6, 5.76e6, 12e6, 16e6, 19.9e6])
def test_cbr_train_offers_what_the_host_pair_offered(rate):
    got = assert_same([("cbr", dict(rate_bps=rate, start=0.0137, stop=0.9))])
    n = got["sent"][0]
    assert n == len(got["offered"]) > 70
    assert got["far_ends"] == [(n, n * 1400)] == got["senders"]
    # ... also when the run is cut with a packet between tick and arrival.
    assert_same([("cbr", dict(rate_bps=rate, start=0.0137))], until=0.5)


def test_cbr_small_payloads_and_oversized_datagrams():
    assert_same([("cbr", dict(rate_bps=3e6, payload_bytes=200, stop=0.3))])
    # Above the MSS a datagram is two back-to-back segments: no train, the
    # tick chain goes through the port's send.
    got = assert_same([("cbr", dict(rate_bps=8e6, payload_bytes=2000,
                                    stop=0.3))])
    assert len(got["offered"]) == 2 * got["sent"][0]


def test_vbr_frames_of_one_to_eight_segments():
    sizes = [1400 * k - 37 * (k % 3) for k in range(1, 9)]
    got = assert_same([("vbr", dict(frame_sizes=sizes, frame_rate=500.0,
                                    trace_step_s=0.01, stop=0.4))])
    assert got["fwd"]["drops"] > 0
    assert got["sent"] == [200] and len(got["offered"]) == 5 * 36 * 5


def test_sources_that_tie_keep_their_order():
    # CBR and the step source both start at 0 with 1400 B: every packet of
    # the two trains ties until the first toggle.
    both = [("cbr", dict(rate_bps=8e6, stop=0.5)),
            ("cbr", dict(rate_bps=8e6, stop=0.5))]
    got = assert_same(both, ops=[(0.2, "set_rate", 1, 3e6)])
    first = got["offered"][:40]
    assert [f for _, f, *_ in first] == [1, 2] * 20
    assert all(a[0] == b[0] for a, b in zip(first[::2], first[1::2]))
    # A train against a tick-and-post source on the same clock (0.002 s).
    assert_same([("cbr", dict(rate_bps=5.76e6, stop=0.3)),
                 ("vbr", dict(frame_sizes=[1400], frame_rate=500.0,
                              stop=0.3))])


@pytest.mark.parametrize("where", ["before", "on", "inside", "twice_inside"])
def test_set_rate_around_a_nominal_tick(where):
    t = nominal_ticks(16e6, 200)
    assert t[101] - t[100] > HOP_S
    when = {"before": t[100] - 1e-5, "on": t[100],
            "inside": t[100] + HOP_S / 2,
            "twice_inside": t[100] + 1e-6}[where]
    ops = [(when, "set_rate", 0, 7e6)]
    if where == "twice_inside":
        ops.append((t[100] + HOP_S - 1e-6, "set_rate", 0, 2e6))
    got = assert_same([("cbr", dict(rate_bps=16e6, stop=0.4))], ops=ops)
    created = [c for *_, c in got["offered"]]
    assert created[:101] == t[:101]
    # The interval in force at tick 100 spaces packet 101.
    gap = created[101] - created[100]
    assert gap == pytest.approx(11520 / (16e6 if "inside" in where else 7e6))


def test_bottleneck_failing_and_recovering_mid_train():
    got = assert_same([("cbr", dict(rate_bps=16e6, stop=0.5)),
                       ("vbr", dict(frame_sizes=[4000, 9000],
                                    frame_rate=500.0, trace_step_s=0.05,
                                    stop=0.5))],
                      ops=[(0.1, "fail"), (0.2, "recover"),
                           (0.3000071, "fail"), (0.35, "recover")])
    assert got["wire"][2] > 100               # lost on the down link


@pytest.mark.parametrize("offset", [-1e-5, HOP_S / 3, HOP_S / 2])
def test_stop_and_restart_around_a_nominal_tick(offset):
    t = nominal_ticks(12e6, 60)
    ops = [(t[50] + offset, "stop", 0), (t[50] + offset + 4e-6, "start", 0),
           (t[55] + offset, "stop", 0), (0.1, "start", 0)]
    assert_same([("cbr", dict(rate_bps=12e6, stop=0.2))], ops=ops)


@pytest.mark.parametrize("after", [0.0, 5e-6, 2e-5, 1e-4])
def test_restart_while_the_first_packet_is_on_the_access_hop(after):
    # The restart's packet queues behind packet 0 while that serialises.
    ops = [(0.01 + after, "stop", 0), (0.01 + after, "start", 0)]
    got = assert_same([("cbr", dict(rate_bps=12e6, start=0.01, stop=0.05))],
                      ops=ops)
    gap = got["offered"][1][0] - got["offered"][0][0]
    assert gap == pytest.approx(max(after, 1.152e-5))


def test_cut_and_read_between_tick_and_arrival():
    t = nominal_ticks(16e6, 30)
    for until, sent in ((t[20] + HOP_S / 2, 21), (t[20] - 1e-7, 20),
                        (t[21] - 1e-9, 21)):
        got = assert_same([("cbr", dict(rate_bps=16e6))], until=until)
        assert got["sent"] == [sent]


rates = st.floats(min_value=1e6, max_value=19.9e6)
times = st.floats(min_value=0.0, max_value=0.12)


@given(rate=rates, payload=st.integers(min_value=100, max_value=1400),
       start=st.floats(min_value=0.0, max_value=0.05),
       toggles=st.lists(st.tuples(times, st.one_of(
           st.tuples(st.just("set_rate"), st.just(0), rates),
           st.tuples(st.sampled_from(["stop", "start"]),
                     st.integers(0, 1)))), max_size=6),
       frames=st.lists(st.integers(min_value=1, max_value=8 * 1400),
                       min_size=1, max_size=6),
       until=st.floats(min_value=0.06, max_value=0.15))
@settings(max_examples=40, deadline=None)
def test_generated_mixes_match_the_reference(rate, payload, start, toggles,
                                             frames, until):
    sources = [("cbr", dict(rate_bps=rate, payload_bytes=payload,
                            start=start, stop=0.11)),
               ("vbr", dict(frame_sizes=frames, frame_rate=500.0,
                            trace_step_s=0.004, start=start / 2))]
    ops = [(when, *op) for when, op in toggles]
    assert_same(sources, ops=ops, until=until)


@given(k=st.integers(min_value=1, max_value=80),
       frac=st.floats(min_value=0.0, max_value=1.0),
       rate=rates, new=rates)
@settings(max_examples=40, deadline=None)
def test_generated_rate_changes_inside_the_access_hop(k, frac, rate, new):
    t = nominal_ticks(rate, k)
    assert_same([("cbr", dict(rate_bps=rate, stop=t[k] + 0.01))],
                ops=[(t[k] + frac * HOP_S, "set_rate", 0, new)])


def test_the_differential_sees_a_reassociated_sum(monkeypatch):
    """``(start + tx) + delay`` is the link's order; ``start + (tx +
    delay)`` rounds differently often enough for the reference to tell."""

    class Reassociated(CrossPort):
        def arrival(self, t, wire):
            start = t if t > self._free_at else self._free_at
            tx = wire * 8.0 / self.access_bps
            self._free_at = start + tx
            return start + (tx + self.access_delay_s)

    monkeypatch.setattr(topology, "CrossPort", Reassociated)
    for sources in ([("cbr", dict(rate_bps=16e6, stop=0.5))],
                    [("vbr", dict(frame_sizes=[5000], frame_rate=500.0,
                                  stop=0.5))]):
        with pytest.raises(AssertionError):
            assert_same(sources)


# ----------------------------------------------------------------------
# The access hop never drops: checked, not trusted
# ----------------------------------------------------------------------
def test_port_refuses_what_the_access_queue_would_have_dropped():
    sim = Simulator()
    port = Dumbbell(sim).add_cross_port("x")
    tx = UdpSender(sim, port, port=1, peer_addr=port.peer_address,
                   peer_port=1)
    assert tx.send(65 * 1400) == 65           # one serialising + 64 queued
    sim.run(until=0.01)
    with pytest.raises(SimulationError, match="access hop"):
        tx.send(100_000)
    # The host pair did drop it: 72 segments offered, 65 through.
    sim = Simulator()
    snd, rcv = Dumbbell(sim).add_flow_hosts("x")
    UdpSender(sim, snd, port=1, peer_addr=rcv.address,
              peer_port=1).send(100_000)
    assert snd._uplink.stats.drops == 72 - 65


def test_cbr_on_a_port_must_stay_below_the_access_rate():
    sim = Simulator()
    net = Dumbbell(sim)
    port = net.add_cross_port("x")
    tx = UdpSender(sim, port, port=1, peer_addr=port.peer_address,
                   peer_port=1)
    with pytest.raises(ValueError, match="access hop"):
        CbrSource(sim, tx, rate_bps=Dumbbell.ACCESS_BPS)
    src = CbrSource(sim, tx, rate_bps=10e6)
    with pytest.raises(ValueError, match="access hop"):
        src.set_rate(2 * Dumbbell.ACCESS_BPS)
    # The train stands for the one packet in the hop: the interval must
    # outlast it (315 Mb/s for 1400-byte datagrams).
    src.set_rate(11520 / (HOP_S * 1.001))
    with pytest.raises(ValueError, match="access hop"):
        src.set_rate(11520 / HOP_S)
    assert src.rate_bps == 11520 / (HOP_S * 1.001)
    # A plain host has a real queue to drop into; no such limit there.
    snd, rcv = net.add_flow_hosts("y")
    CbrSource(sim, UdpSender(sim, snd, port=1, peer_addr=rcv.address,
                             peer_port=1), rate_bps=Dumbbell.ACCESS_BPS)


# ----------------------------------------------------------------------
# Counted work
# ----------------------------------------------------------------------
@pytest.fixture
def link_sends(monkeypatch):
    calls = []
    link_send = Link.send

    @functools.wraps(link_send)     # the profiler keys on the qualname
    def send(self, pkt):
        calls.append((self.name, pkt.flow_id))
        return link_send(self, pkt)

    monkeypatch.setattr(Link, "send", send)
    return calls


def cbr_only(wiring, rates, until):
    sim = Simulator()
    net = Dumbbell(sim)
    srcs = []
    for i, rate in enumerate(rates):
        if wiring == "port":
            host = net.add_cross_port(f"x{i}")
            peer = host.peer_address
        else:
            host, rcv = net.add_flow_hosts(f"x{i}")
            peer = rcv.address
        tx = UdpSender(sim, host, port=1, peer_addr=peer, peer_port=1)
        srcs.append(CbrSource(sim, tx, rate_bps=rate, stop=until))
    fired = sim.run()
    return fired, sum(s.datagrams_sent for s in srcs), net


def test_a_cbr_datagram_is_no_event_on_an_idle_bottleneck(link_sends):
    """Two before the far end was asked at departure, one before the
    bottleneck read its trains; none now.  What fires is the start, the
    first packet's arrival (it goes the plain way) and the train's one
    event, at its last packet's arrival.  The far end is a counter."""
    fired, n, net = cbr_only("port", [16e6], until=1.0)
    assert n == 1389
    assert fired == 3
    assert link_sends == [("bottleneck-fwd", 1)]
    assert net.forward.queue.stats.arrivals == n
    (port,) = net.cross_ports
    # No event carries the clock to the far end: where the train's last
    # event left it, 15 ms of packets are still on the wire.
    assert port.egress.packets == n - 22 and port.egress.bytes == (n - 22) * 1400
    net.sim.run(until=1.1)
    assert (port.egress.packets, port.egress.bytes) == (n, n * 1400)


def test_a_cbr_datagram_is_no_event_on_a_backlogged_one(link_sends):
    """Three before backlogs were planned, one before trains were read;
    none now, as on an idle one."""
    fired, n, net = cbr_only("port", [12e6, 12e6], until=1.0)
    st_ = net.forward.queue.stats
    assert st_.drops > 200
    assert fired == 2 * 3
    assert len(link_sends) == 2 and st_.arrivals == n
    net.sim.run(until=1.1)                    # what waited and flew arrives
    assert sum(p.egress.packets for p in net.cross_ports) == n - st_.drops
    # (``link.queue`` is what settles the books: ask it again.)
    assert (net.forward.queue.stats.departures == net.forward.packets_sent
            == n - st_.drops)
    # The host pair: three events apiece (five before) -- the tick, the
    # arrival at router L (two pairs feed the bottleneck: nothing is
    # booked) and Host.receive -- and one Link.send (three before).
    del link_sends[:]
    ref_fired, ref_n, _ = cbr_only("hosts", [12e6, 12e6], until=1.0)
    assert ref_n == n
    assert 2.8 * n < ref_fired < 3.1 * n and len(link_sends) == n


def test_table5_shaped_cell_event_total(link_sends):
    from repro.experiments.common import ScenarioConfig
    from repro.obs.profiler import profile_scenario

    res, prof = profile_scenario(ScenarioConfig(
        transport="iq", workload="trace_clocked", n_frames=60,
        cbr_bps=16e6, seed=1))
    counts = prof.counts()
    (port,) = res.net.cross_ports
    (tx,) = port.senders.values()
    n = tx.packets_sent
    assert n == 8334
    assert prof.events_fired == 3460          # 11793 with a CBR event each
    # The bottleneck read every datagram but the first, which went the
    # plain way; the train, without ``stop=``, keeps no event.
    assert {"CbrSource._depart", "CbrSource._tick",
            "CbrSource._last"}.isdisjoint(counts)
    assert counts["Link.send"] == 1
    cross = [name for name, flow in link_sends if flow == tx.flow_id]
    assert cross == ["bottleneck-fwd"]
    flow = sum(name == "bottleneck-fwd" for name, _ in link_sends) - 1
    assert res.net.forward.queue.stats.arrivals == n + flow
    # What is left is the flow under test and the timers: three events per
    # acknowledged datagram (its ACK is booked when the receiver sends it;
    # the datagram shares the bottleneck with the port), none of them a
    # completion.
    assert "Link._tx_done" not in counts
    assert set(counts) >= {"Host.receive", "Router.receive"}


# ----------------------------------------------------------------------
# Read, not fired: a train its bottleneck reads against the same train
# firing one event per packet (the link refusing to carry it)
# ----------------------------------------------------------------------
#: The dyadic dumbbell of ``tests/test_down_hop.py``: rates, delays and
#: sizes are powers of two or small integers, so every float sum is exact
#: and instants tie wherever the arithmetic says.
DYADIC = dict(bottleneck_bps=2 ** 24, rtt_s=2 * (2 ** -7 + 2 ** -14))
DYADIC_HOP = 2 ** -17 + 2 ** -15    # a 1024-byte wire packet's access hop


@pytest.fixture
def dyadic(monkeypatch):
    monkeypatch.setattr(Dumbbell, "ACCESS_BPS", 2 ** 30)
    monkeypatch.setattr(Dumbbell, "ACCESS_DELAY_S", 2 ** -15)
    return DYADIC


class Deliveries:
    def __init__(self, sim, host):
        self.sim, self.got = sim, []
        host.bind(1, self)

    def receive(self, pkt):
        self.got.append((self.sim.now, pkt.flow_id, pkt.seq))


def books(net, srcs):
    """Every counter a reader has of the bottleneck and the cross flows,
    read in an order that leaves the senders' own counters for last.  A
    VBR sender's are left out: fired, it counts a segment at its frame's
    tick; read, when the segment meets the bottleneck."""
    fwd = net.forward
    st_ = fwd.queue.stats
    sent = [s.datagrams_sent if isinstance(s, CbrSource) else s.frames_sent
            for s in srcs]
    return (tuple(getattr(st_, k) for k in STATS), len(fwd.queue),
            fwd.queue.bytes, fwd.bytes_sent, fwd.packets_sent,
            fwd.packets_lost_wire, fwd.accounting_violation(),
            fwd.telemetry_probe(), sent,
            [(p.egress.packets, p.egress.bytes) for p in net.cross_ports],
            [(s.sender.packets_sent, s.sender.bytes_sent) for s in srcs
             if isinstance(s, CbrSource)])


def world(script, sources, *, read, until, **net_kw):
    """One host pair and ``sources`` on cross ports, an untraced run with a
    flight ring; with ``read=False`` the link reads no train, so the
    trains fire their events.  ``script`` rows are ``(time, op, *args)``:
    ``burst n size`` from the host, ``read``, ``set_rate i r``, ``stop
    i``, ``start i``, and ``fail``, ``recover``, ``set_delay s``,
    ``loss``, ``plain``, ``capacity bytes`` on the forward bottleneck.
    Returns every reading, the deliveries, the ring, the books at the cut
    and those of a pickle."""
    sim = Simulator()
    sim.bus = TraceBus(sim, ring=FlightRecorder(capacity=100_000))
    net = Dumbbell(sim, **net_kw)
    snd, rcv = net.add_flow_hosts("f")
    got = Deliveries(sim, rcv)
    srcs = []
    for i, (kind, kw) in enumerate(sources):
        port = net.add_cross_port(f"x{i}")
        tx = UdpSender(sim, port, port=7, peer_addr=port.peer_address,
                       peer_port=7)
        srcs.append((CbrSource if kind == "cbr" else VbrSource)(sim, tx,
                                                                **kw))
    readings, seq = [], [0]

    def apply(op, *args):
        fwd = net.forward
        if op == "burst":
            for _ in range(args[0]):
                snd.send(Packet(99, PacketKind.DATA, seq[0], size=args[1],
                                src=snd.address, dst=rcv.address, sport=1,
                                dport=1, created_at=sim.now))
                seq[0] += 1
        elif op == "read":
            readings.append((sim.now, books(net, srcs)))
        elif op in ("set_rate", "stop", "start"):
            getattr(srcs[args[0]], op)(*args[1:])
        elif op == "loss":
            fwd.loss = BernoulliLoss(0.3, random.Random(7))
        elif op == "plain":
            fwd.loss = LossModel()
        elif op == "capacity":      # on the queue object: no read first
            fwd._queue.set_capacity(args[0])
        else:
            getattr(fwd, op)(*args)

    for when, *op in script:
        sim.at(when, apply, *op)
    original = Link._reads
    if not read:
        Link._reads = lambda link: False
    try:
        sim.run(until=until)
        cut = books(net, srcs)
    finally:
        Link._reads = original
    ring = sim.bus.ring.dump()
    sim.drain()
    clone = pickle.loads(pickle.dumps((net, srcs)))
    return readings, got.got, ring, cut, books(*clone)


def assert_read_as_fired(script, sources, *, until, **net_kw):
    fired = world(script, sources, read=False, until=until, **net_kw)
    read = world(script, sources, read=True, until=until, **net_kw)
    for name, a, b in zip(("readings", "deliveries", "ring", "cut",
                           "pickle"), fired, read):
        assert a == b, name
    return read


def dyadic_script(start, interval, n, offsets):
    """Around train packet ``k`` (nominally sent at ``start + k *
    interval``): a host burst offered the same instant, so its first packet
    reaches router L exactly when the train's does, or ``offsets`` off it,
    and reads at the train's instants."""
    script = []
    for k in range(1, n):
        t = start + k * interval
        off = offsets[k % len(offsets)]
        script += [(t + off, "burst", 1 + k % 3, 984),
                   (t + DYADIC_HOP, "read"),
                   (t + DYADIC_HOP + off, "read")]
    return script


#: A CBR train on the grid the host offers on, and a second one tying a
#: VBR train of one- and three-segment frames half a grid step later.
GRID = 2 ** -10


def dyadic_trains(start, stop=None):
    return [("cbr", dict(rate_bps=2 ** 23, payload_bytes=984, start=start,
                         stop=stop)),
            ("cbr", dict(rate_bps=2 ** 22, payload_bytes=984,
                         start=start + GRID / 2)),
            ("vbr", dict(frame_sizes=[984, 2 * 1400 + 600], frame_rate=512,
                         trace_step_s=2 ** -6, start=start + GRID / 2))]


@pytest.mark.parametrize("offsets", [(0.0,), (-2 ** -20,), (2 ** -20,),
                                     (0.0, 2 ** -20, -2 ** -20)])
def test_flow_packets_at_and_around_train_instants(dyadic, offsets):
    """A host packet reaching the bottleneck at, just before or just after
    a train packet, and train packets tying each other: the link reading
    the trains decides, reads, notes and pickles what the fired trains
    did."""
    start = 2 ** -6
    script = dyadic_script(start, GRID, 100, offsets)
    readings, deliveries, ring, *_ = assert_read_as_fired(
        script, dyadic_trains(start, stop=2 ** -3), until=2 ** -2,
        queue_pkts=4, **dyadic)
    drops = [ev for ev in ring["events"] if ev["event"] == "PACKET_DROP"]
    assert {ev["flow"] for ev in drops} == {1, 2, 3, 99}
    assert len(deliveries) > 40


@pytest.mark.parametrize("op", [("set_rate", 0, 2 ** 22), ("stop", 0),
                                ("fail",), ("loss",), ("capacity", 2048)])
@pytest.mark.parametrize("offset", [-2 ** -20, 0.0, DYADIC_HOP / 2])
def test_changes_between_train_instants(dyadic, op, offset):
    """A rate change, a stop, a failure, wire loss and a smaller queue, at,
    just before and inside a train packet's access hop, each undone again
    later: while the link cannot plan the train fires, then it is read."""
    start = 2 ** -6
    sources = dyadic_trains(start, stop=2 ** -3)
    undo = {"set_rate": ("set_rate", 0, 2 ** 23), "stop": ("start", 0),
            "fail": ("recover",), "loss": ("plain",),
            "capacity": ("capacity", 4 * 1440)}[op[0]]
    # Host packets just off the train instants: at an exact tie, a train
    # handed back to its event at the change goes behind the host packets
    # offered before it (caveat (iv), witnessed below).
    script = dyadic_script(start, GRID, 80, (2 ** -20, -2 ** -20))
    for k in (20, 41):
        t = start + k * GRID + offset
        script += [(t, *op), (t + 7 * GRID, *undo),
                   (t + 7 * GRID + DYADIC_HOP, "read")]
    assert_read_as_fired(script, sources, until=0.2, queue_pkts=4, **dyadic)


def test_trains_that_tie_go_in_the_fired_order(dyadic):
    """Train against train at an exact tie: the order the fired trains had,
    which is the order their events were posted -- a CBR packet's at the
    previous packet's arrival, a VBR segment's at its frame's tick.  Every
    VBR tick here ties a packet of each CBR train, and the queue of two
    packets drops whichever comes third."""
    start = 2 ** -6
    sources = [("vbr", dict(frame_sizes=[984, 2 * 1400 + 600, 984],
                            frame_rate=512, trace_step_s=2 ** -7,
                            start=start)),
               ("cbr", dict(rate_bps=2 ** 23, payload_bytes=984,
                            start=start)),
               ("cbr", dict(rate_bps=2 ** 22, payload_bytes=984,
                            start=start))]
    script = [(start + (k + 0.25) * GRID, "read") for k in range(60)]
    *_, ring, _, _ = assert_read_as_fired(script, sources, until=0.1,
                                          queue_pkts=1, **dyadic)
    dropped = {ev["flow"] for ev in ring["events"]
               if ev["event"] == "PACKET_DROP"}
    assert {1, 3} <= dropped        # ties decide who is third


@pytest.mark.parametrize("op", [("set_rate", 0, 2 ** 22), ("stop", 0),
                                ("start", 0), ("fail",), ("recover",),
                                ("loss",), ("capacity", 2048),
                                ("set_delay", 2 ** -9), ("burst", 3, 984)])
def test_a_change_with_nothing_read_since(dyadic, op):
    """Nothing reads the link for many train packets, then one change --
    or one real arrival -- lands: the link first admits what arrived before
    it, under the books as they stood."""
    start = 2 ** -6
    script = [(start + 40.25 * GRID, "burst", 2, 984), (0.1, "fail"),
              (0.1 + 30 * GRID, "recover")]
    for k in (63, 64, 83):
        script += [(start + k * GRID + DYADIC_HOP / 2, *op),
                   (start + (k + 9) * GRID, "read")]
    assert_read_as_fired(script, dyadic_trains(start), until=0.15,
                         queue_pkts=4, **dyadic)


toggles = st.lists(st.tuples(
    st.floats(min_value=0.0, max_value=0.12),
    st.one_of(st.tuples(st.just("set_rate"), st.integers(0, 1), rates),
              st.tuples(st.sampled_from(["stop", "start"]),
                        st.integers(0, 2)),
              st.tuples(st.sampled_from(["fail", "recover", "loss",
                                         "plain", "read"])),
              st.tuples(st.just("capacity"),
                        st.integers(1440, 40 * 1440)),
              st.tuples(st.just("burst"), st.integers(1, 30),
                        st.sampled_from([40, 700, 1400])))), max_size=12)


@given(rate=rates, rate2=rates,
       payload=st.integers(min_value=100, max_value=1400),
       start=st.floats(min_value=0.0, max_value=0.03), toggles=toggles,
       frames=st.lists(st.integers(min_value=1, max_value=8 * 1400),
                       min_size=1, max_size=4),
       stop=st.one_of(st.none(), st.floats(min_value=0.05, max_value=0.2)))
@settings(max_examples=40, deadline=None)
def test_generated_mixes_read_as_fired(rate, rate2, payload, start, toggles,
                                       frames, stop):
    sources = [("cbr", dict(rate_bps=rate, payload_bytes=payload,
                            start=start, stop=stop)),
               ("cbr", dict(rate_bps=rate2, start=start / 3)),
               ("vbr", dict(frame_sizes=frames, frame_rate=500.0,
                            trace_step_s=0.004, start=start / 2, stop=stop))]
    # Off the VBR tick grid: a host packet offered at a tick's instant is
    # caveat (iv).
    script = [(when + 1e-7 * math.pi, *op) for when, op in toggles]
    script += [(k * 0.01, "read") for k in range(15)]
    assert_read_as_fired(script, sources, until=0.15, queue_pkts=20)


def test_every_reader_brings_the_trains_up_to_the_clock():
    """Each of these reads admits every train packet that has arrived: the
    link holds nothing at or before the clock once it returns."""
    readers = {
        "queue": lambda net, src: net.forward.queue,
        "bytes_sent": lambda net, src: net.forward.bytes_sent,
        "packets_sent": lambda net, src: net.forward.packets_sent,
        "accounting": lambda net, src: net.forward.accounting_violation(),
        "telemetry": lambda net, src: net.forward.telemetry_probe(),
        "egress": lambda net, src: net.cross_ports[0].egress.packets,
        "datagrams_sent": lambda net, src: src.datagrams_sent,
        "note": lambda net, src: net.sim.bus.note("app", "NOTE"),
        "cold": lambda net, src: net.sim.bus.cold("net", "LINK_FAIL"),
        "pickle": lambda net, src: pickle.dumps(net.forward.queue.stats),
    }
    for name, reader in readers.items():
        sim = Simulator()
        sim.bus = TraceBus(sim, ring=FlightRecorder())
        net = Dumbbell(sim)
        port = net.add_cross_port("x")
        src = CbrSource(sim, UdpSender(sim, port, port=7,
                                       peer_addr=port.peer_address,
                                       peer_port=7), rate_bps=16e6)
        sim.run(until=0.05)
        (at, *_), = net.forward._trains
        assert at < sim.now, name           # nothing has read it yet
        reader(net, src)
        (at, *_), = net.forward._trains
        assert at > sim.now, name
    # Only a note on a bus with a ring waits for the trains.
    assert sim.bus.settlers == [net.forward._read_trains]


def test_a_cross_drop_is_noted_at_its_instant_in_ring_order():
    """A drop the link decides while reading a train reaches the ring with
    its own instant, before what is noted later -- a drop is itself a note,
    and reading does not start again from inside it."""
    sim = Simulator()
    sim.bus = TraceBus(sim, ring=FlightRecorder())
    net = Dumbbell(sim, queue_pkts=2)
    for i, rate in enumerate((12e6, 12e6)):
        port = net.add_cross_port(f"x{i}")
        CbrSource(sim, UdpSender(sim, port, port=7,
                                 peer_addr=port.peer_address, peer_port=7),
                  rate_bps=rate, stop=0.1)
    sim.at(0.05, sim.bus.note, "app", "MIDDLE")
    sim.run()
    events = sim.bus.ring.dump()["events"]
    middle = [ev["event"] for ev in events].index("MIDDLE")
    drops = [ev["t"] for ev in events if ev["event"] == "PACKET_DROP"]
    assert len(drops) > 20 and drops == sorted(drops)
    assert 5 < middle < len(drops) - 5
    assert all(t <= 0.05 for t in drops[:middle])
    assert all(t > 0.05 for t in drops[middle:])
    assert events[middle]["t"] == 0.05


@pytest.mark.parametrize("case", ["held_host_packet", "vbr_tick",
                                  "handed_back"])
def test_the_order_at_an_exact_tie_with_a_host_packet(dyadic, case):
    """Caveat (iv), DESIGN.md section 2.  Fired, a train packet and a host
    packet reaching router L at the same float instant went in the order
    their events were posted.  Read, the train packet goes first; handed
    back to its event at a change of the link, it goes behind what was
    posted before the change.  The two swap places in the queue, and the
    host packet's delivery moves by one bottleneck transmission:

    * ``held_host_packet``: the 18th packet of a host burst is on its up
      hop longer than one interval of a 64 Mb/s train;
    * ``vbr_tick``: a host packet offered at a VBR tick's instant, by an
      event the tick follows;
    * ``handed_back``: the delay changes after a host packet is offered at
      a CBR train's nominal instant."""
    t = 2 ** -5
    if case == "held_host_packet":
        interval = 2 ** -13                 # 16 access hops of 2**-17
        sources = [("cbr", dict(rate_bps=2 ** 26, payload_bytes=984,
                                start=t - 3 * interval + 17 * 2 ** -17,
                                stop=t + 2 * interval))]
        script, seq, shift = [(t, "burst", 20, 984)], 17, 2 ** -11
    elif case == "vbr_tick":
        sources = [("vbr", dict(frame_sizes=[984], frame_rate=512,
                                start=t - 4 * 2 ** -9, stop=t + 0.01))]
        script, seq, shift = [(t, "burst", 1, 984)], 0, 2 ** -11
    else:
        sources = [("cbr", dict(rate_bps=2 ** 23, payload_bytes=984,
                                start=t - 4 * GRID, stop=t + 0.01))]
        script = [(t, "burst", 1, 984), (t, "set_delay", 2 ** -8)]
        seq, shift = 0, -2 ** -11
    kw = dict(until=0.1, queue_pkts=100, **dyadic)
    _, fired, *_ = world(script, sources, read=False, **kw)
    _, read, *_ = world(script, sources, read=True, **kw)
    swapped = [(a, b) for a, b in zip(fired, read) if a != b]
    assert [a[2] for a, _ in swapped] == [seq]
    ((t_fired, *_), (t_read, *_)), = swapped
    assert t_read == t_fired + shift
