"""Unit tests for hosts, routers and the dumbbell topology."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.node import Host, Router
from repro.sim.packet import Packet
from repro.sim.topology import Dumbbell


class Recorder:
    def __init__(self):
        self.got = []

    def receive(self, pkt):
        self.got.append(pkt)


def test_host_port_demux():
    sim = Simulator()
    h = Host(sim, address=1)
    a, b = Recorder(), Recorder()
    h.bind(10, a)
    h.bind(11, b)
    h.receive(Packet(flow_id=1, dport=10))
    h.receive(Packet(flow_id=1, dport=11))
    h.receive(Packet(flow_id=1, dport=99))  # unbound: silently sunk
    assert len(a.got) == 1 and len(b.got) == 1
    assert h.packets_received == 3


def test_host_double_bind_rejected():
    sim = Simulator()
    h = Host(sim, address=1)
    h.bind(10, Recorder())
    with pytest.raises(ValueError):
        h.bind(10, Recorder())


def test_host_send_without_uplink_counts_drop():
    sim = Simulator()
    h = Host(sim, address=1)
    assert not h.send(Packet(flow_id=1))
    assert h.no_route_drops == 1


def test_router_forwards_by_destination():
    sim = Simulator()
    r = Router(sim, address=9)
    sink = Recorder()

    class FakeLink:
        def send(self, pkt):
            sink.got.append(pkt)
            return True

    r.add_route(5, FakeLink())
    r.receive(Packet(flow_id=1, dst=5))
    r.receive(Packet(flow_id=1, dst=6))  # no route
    assert len(sink.got) == 1
    assert r.forwarded == 1 and r.no_route_drops == 1


def test_router_default_route():
    sim = Simulator()
    r = Router(sim, address=9)
    sink = Recorder()

    class FakeLink:
        def send(self, pkt):
            sink.got.append(pkt)
            return True

    r.set_default_route(FakeLink())
    r.receive(Packet(flow_id=1, dst=123))
    assert len(sink.got) == 1


class TestDumbbell:
    def test_paper_defaults(self):
        sim = Simulator()
        net = Dumbbell(sim)
        assert net.bottleneck_bps == 20e6
        assert net.rtt_s == pytest.approx(0.030)
        assert net.mss == 1400

    def test_round_trip_delivery(self):
        """A packet crosses sender -> bottleneck -> receiver, and a reply
        returns, in approximately one configured RTT."""
        sim = Simulator()
        net = Dumbbell(sim, rtt_s=0.030)
        snd, rcv = net.add_flow_hosts("t")
        fwd, bwd = Recorder(), Recorder()
        rcv.bind(7, fwd)
        snd.bind(7, bwd)

        def reply(pkt):
            rcv.send(Packet(flow_id=1, dst=snd.address, dport=7, size=0))

        fwd.receive = reply  # type: ignore[method-assign]
        t0 = sim.now
        snd.send(Packet(flow_id=1, dst=rcv.address, dport=7, size=0))
        sim.run()
        assert len(bwd.got) == 1
        # 30 ms propagation plus a little serialization.
        assert 0.029 < sim.now - t0 < 0.035

    def test_flow_pairs_are_isolated(self):
        sim = Simulator()
        net = Dumbbell(sim)
        s1, r1 = net.add_flow_hosts("a")
        s2, r2 = net.add_flow_hosts("b")
        rec1, rec2 = Recorder(), Recorder()
        r1.bind(7, rec1)
        r2.bind(7, rec2)
        s1.send(Packet(flow_id=1, dst=r1.address, dport=7, size=10))
        s2.send(Packet(flow_id=2, dst=r2.address, dport=7, size=10))
        sim.run()
        assert len(rec1.got) == 1 and len(rec2.got) == 1
        assert rec1.got[0].flow_id == 1 and rec2.got[0].flow_id == 2

    def test_utilization(self):
        sim = Simulator()
        net = Dumbbell(sim, bottleneck_bps=1e6)
        snd, rcv = net.add_flow_hosts("u")
        rcv.bind(7, Recorder())
        for _ in range(10):
            snd.send(Packet(flow_id=1, dst=rcv.address, dport=7, size=1400))
        sim.run()
        # 10 x 1440B on a 1 Mbps link = 115.2 ms busy.
        assert net.utilization(0.1152) == pytest.approx(1.0, rel=0.01)

    def test_bottleneck_queue_is_shared(self):
        sim = Simulator()
        net = Dumbbell(sim, queue_pkts=4)
        s1, r1 = net.add_flow_hosts("a")
        rec = Recorder()
        r1.bind(7, rec)
        for _ in range(20):
            s1.send(Packet(flow_id=1, dst=r1.address, dport=7, size=1400))
        sim.run()
        assert net.bottleneck_queue.stats.drops > 0
        assert len(rec.got) < 20
