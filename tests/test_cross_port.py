"""Cross traffic enters at the bottleneck (``Dumbbell.add_cross_port``).

The reference is the wiring every cross flow had before: a sender/receiver
host pair with its four access links and a ``UdpSink``.  A cross port must
offer the forward bottleneck the same packets at the same float instants;
everything downstream of that call is shared code.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import topology
from repro.sim.engine import SimulationError, Simulator
from repro.sim.link import Link
from repro.sim.topology import CrossPort, Dumbbell
from repro.traffic.cbr import CbrSource
from repro.traffic.vbr import VbrSource
from repro.transport.udp import UdpSender, UdpSink

STATS = ("arrivals", "departures", "drops", "bytes_in", "bytes_dropped",
         "peak_bytes", "peak_packets", "flushed")


class RecordingLink(Link):
    """The forward bottleneck, noting every packet offered to it."""

    __slots__ = ("offered",)

    def send(self, pkt):
        self.offered.append((self.sim.now, pkt.flow_id, pkt.seq,
                             pkt.wire_size, pkt.created_at))
        return super().send(pkt)

    def book(self, pkt, at):
        return False        # every packet is offered when it arrives


def run_wiring(wiring, sources, ops=(), until=None, **net_kw):
    """Build ``sources`` on a dumbbell wired the ``"hosts"`` (reference) or
    the ``"port"`` way, apply ``ops`` -- ``(time, name, *args)`` -- and run.
    Returns everything the bottleneck saw and every counter a reader has.

    A source is ``("cbr" | "vbr", kwargs)``; an op is ``set_rate i rate``,
    ``stop i``, ``start i``, ``fail`` or ``recover`` (the last two on the
    forward bottleneck)."""
    sim = Simulator()
    net = Dumbbell(sim, **net_kw)
    fwd = net.forward
    net.forward = rec = RecordingLink(
        sim, fwd.bandwidth_bps, fwd.delay_s, net.right,
        queue_bytes=fwd.queue.capacity_bytes, name=fwd.name)
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
    out = {
        "offered": rec.offered,
        "fwd": {k: getattr(rec.queue.stats, k) for k in STATS},
        "bwd": {k: getattr(net.backward.queue.stats, k) for k in STATS},
        "wire": (rec.bytes_sent, rec.packets_sent, rec.packets_lost_wire),
        "sent": [s.datagrams_sent if isinstance(s, CbrSource)
                 else s.frames_sent for s in srcs],
    }
    if not sim.pending():
        # Drained: nothing is between a sender's counters and the far end.
        out["senders"] = [(tx.packets_sent, tx.bytes_sent) for tx in senders]
        out["far_ends"] = [
            (e.packets_received, e.bytes_received) if wiring == "hosts"
            else (e.packets, e.bytes) for e in far_ends]
    return out


def assert_same(sources, ops=(), until=None, **net_kw):
    ref = run_wiring("hosts", sources, ops, until, **net_kw)
    got = run_wiring("port", sources, ops, until, **net_kw)
    assert len(got["offered"]) == len(ref["offered"])
    differing = [(a, b) for a, b in zip(ref["offered"], got["offered"])
                 if a != b]
    assert not differing, differing[:3]
    if ("far_ends" in got) != ("far_ends" in ref):
        # The host pair's far end is one access hop (36.52 us) behind the
        # port's: a cut inside that hop finds only one of the two drained.
        for out in (got, ref):
            out.pop("far_ends", None)
            out.pop("senders", None)
    assert got == ref
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


def test_a_cbr_datagram_is_two_events_on_an_idle_bottleneck(link_sends):
    """Two before the far end was asked at departure; one now -- the
    train's event, which offers the packet.  Its far end is a counter."""
    fired, n, net = cbr_only("port", [16e6], until=1.0)
    assert n == 1389
    assert fired == n + 1                     # the train; one start
    assert link_sends == [("bottleneck-fwd", 1)] * n
    (port,) = net.cross_ports
    # No event carries the clock to the far end: where the last train
    # event left it, 15 ms of packets are still on the wire.
    assert port.egress.packets == n - 22 and port.egress.bytes == (n - 22) * 1400
    net.sim.run(until=1.1)
    assert (port.egress.packets, port.egress.bytes) == (n, n * 1400)


def test_a_cbr_datagram_is_three_events_on_a_backlogged_one(link_sends):
    """Three before backlogs were planned; one now, as on an idle one."""
    fired, n, net = cbr_only("port", [12e6, 12e6], until=1.0)
    st_ = net.forward.queue.stats
    assert st_.drops > 200
    assert fired == n + 2
    assert len(link_sends) == n
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
    assert prof.events_fired == 11793         # 12913 with ACKs unbooked
    # One event per datagram (the first is posted by ``start``) ...
    assert counts["CbrSource._depart"] + counts["Link.send"] == n
    assert "CbrSource._tick" not in counts
    # ... and one Link.send: nothing of the cross flow meets a second link.
    assert ([name for name, flow in link_sends if flow == tx.flow_id]
            == ["bottleneck-fwd"] * n)
    # What is left is the flow under test and the timers: three events per
    # acknowledged datagram (its ACK is booked when the receiver sends it;
    # the datagram shares the bottleneck with the port), none of them a
    # completion.
    assert "Link._tx_done" not in counts
    assert set(counts) >= {"Host.receive", "Router.receive"}
