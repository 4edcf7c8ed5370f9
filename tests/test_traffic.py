"""Unit tests for traffic generators: MBone trace, CBR, VBR, bulk."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Host
from repro.sim.packet import Packet
from repro.sim.topology import Dumbbell
from repro.traffic.bulk import BulkSource
from repro.traffic.cbr import CbrSource
from repro.traffic.mbone import MboneParams, mbone_trace, trace_frame_sizes
from repro.traffic.vbr import VbrSource
from repro.transport.udp import UdpSender, UdpSink


class TestMbone:
    def test_deterministic_for_seed(self):
        a = mbone_trace(500, seed=11)
        b = mbone_trace(500, seed=11)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(mbone_trace(500, seed=1),
                                  mbone_trace(500, seed=2))

    def test_positive_and_floored(self):
        p = MboneParams(min_members=2)
        tr = mbone_trace(1000, seed=3, params=p)
        assert tr.min() >= 2

    def test_mean_near_equilibrium(self):
        p = MboneParams(join_rate=2.0, mean_lifetime=4.0, burst_prob=0.0)
        tr = mbone_trace(5000, seed=5, params=p)
        # Equilibrium mean = join_rate * mean_lifetime = 8.
        assert 6.0 < tr.mean() < 10.0

    def test_bursts_create_spikes(self):
        calm = MboneParams(burst_prob=0.0)
        bursty = MboneParams(burst_prob=0.1, burst_size=30)
        a = mbone_trace(2000, seed=7, params=calm)
        b = mbone_trace(2000, seed=7, params=bursty)
        assert b.max() > a.max()

    def test_trace_is_bursty_not_constant(self):
        """Section 3.3 relies on 'constant and very fast changes in rate'."""
        tr = mbone_trace(2000, seed=7)
        assert tr.std() / tr.mean() > 0.15

    def test_frame_sizes_multiplier(self):
        tr = mbone_trace(100, seed=9)
        fs = trace_frame_sizes(100, 3000, seed=9)
        assert np.array_equal(fs, tr * 3000)

    def test_validation(self):
        with pytest.raises(ValueError):
            mbone_trace(0)
        with pytest.raises(ValueError):
            MboneParams(join_rate=0)
        with pytest.raises(ValueError):
            MboneParams(burst_prob=1.5)

    @given(st.integers(min_value=1, max_value=500),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_length_and_positivity(self, n, seed):
        tr = mbone_trace(n, seed=seed)
        assert tr.shape == (n,)
        assert (tr >= 1).all()


def udp_pair(sim, net, port=7001):
    s, r = net.add_flow_hosts("x")
    tx = UdpSender(sim, s, port=port, peer_addr=r.address, peer_port=port)
    rx = UdpSink(sim, r, port=port, flow_id=tx.flow_id)
    return tx, rx


class TestCbr:
    def test_rate_accuracy(self):
        sim = Simulator()
        net = Dumbbell(sim)
        tx, rx = udp_pair(sim, net)
        CbrSource(sim, tx, rate_bps=2e6, payload_bytes=1400)
        sim.run(until=10.0)
        wire_bytes = tx.packets_sent * 1440
        rate = wire_bytes * 8 / 10.0
        assert rate == pytest.approx(2e6, rel=0.01)

    def test_start_stop_window(self):
        sim = Simulator()
        net = Dumbbell(sim)
        tx, rx = udp_pair(sim, net)
        src = CbrSource(sim, tx, rate_bps=1e6, start=2.0, stop=4.0)
        sim.run(until=10.0)
        assert src.datagrams_sent > 0
        expected = 1e6 * 2 / (1440 * 8)
        assert src.datagrams_sent == pytest.approx(expected, rel=0.05)

    def test_set_rate_changes_interval(self):
        sim = Simulator()
        net = Dumbbell(sim)
        tx, rx = udp_pair(sim, net)
        src = CbrSource(sim, tx, rate_bps=1e6)
        old = src.interval
        src.set_rate(2e6)
        assert src.interval == pytest.approx(old / 2)

    def test_validation(self):
        sim = Simulator()
        net = Dumbbell(sim)
        tx, _ = udp_pair(sim, net)
        with pytest.raises(ValueError):
            CbrSource(sim, tx, rate_bps=0)



class TestVbr:
    def test_mean_rate_tracks_trace(self):
        sim = Simulator()
        net = Dumbbell(sim)
        tx, rx = udp_pair(sim, net)
        VbrSource(sim, tx, frame_sizes=[1000], frame_rate=100.0)
        sim.run(until=5.0)
        assert tx.bytes_sent == pytest.approx(1000 * 100 * 5, rel=0.01)

    def test_trace_advances_per_step_not_per_frame(self):
        """Membership dynamics evolve at trace_step_s, not the frame clock:
        all frames within a step share one size."""
        sim = Simulator()
        net = Dumbbell(sim)
        tx, rx = udp_pair(sim, net)
        src = VbrSource(sim, tx, frame_sizes=[100, 200], frame_rate=10.0,
                        trace_step_s=1.0)
        sizes = []
        orig = tx.send

        def spy(size, **kw):
            sizes.append(size)
            return orig(size, **kw)

        tx.send = spy
        sim.run(until=2.0)
        assert sizes[:10] == [100] * 10
        assert sizes[10:20] == [200] * 10

    def test_trace_wraps(self):
        sim = Simulator()
        net = Dumbbell(sim)
        tx, rx = udp_pair(sim, net)
        src = VbrSource(sim, tx, frame_sizes=[100, 200], frame_rate=1.0,
                        trace_step_s=1.0)
        sim.run(until=5.0)
        assert src.frames_sent == 6  # kept running past trace length

    def test_validation(self):
        sim = Simulator()
        net = Dumbbell(sim)
        tx, _ = udp_pair(sim, net)
        with pytest.raises(ValueError):
            VbrSource(sim, tx, frame_sizes=[], frame_rate=10)
        with pytest.raises(ValueError):
            VbrSource(sim, tx, frame_sizes=[0], frame_rate=10)


class _Recorder:
    """Stands where a host stands for a ``UdpSender``: keeps every slot of
    each packet it is given, as it is given."""

    def __init__(self, address):
        self.address = address
        self.packets = []

    def bind(self, port, endpoint):
        pass

    def send(self, pkt):
        self.packets.append(_slots(pkt))
        return True


def _slots(pkt):
    """Every slot's value; a slot left unset raises AttributeError here."""
    return {name: getattr(pkt, name) for name in Packet.__slots__}


class TestTrainPacket:
    """A train its link reads builds each packet itself: it must be the
    packet ``UdpSender.send`` builds at the same nominal instant, every
    slot of it -- the comparison fails on a slot the train leaves out."""

    def _read_and_sent(self, monkeypatch, source, until, **kw):
        """Every slot of each packet a train on a cross port leaves to the
        forward bottleneck, as it is admitted, and of each packet the same
        source's ``UdpSender`` on a plain host sends."""
        sim = Simulator()
        net = Dumbbell(sim)
        port = net.add_cross_port("x")
        tx = UdpSender(sim, port, port=7, peer_addr=port.peer_address,
                       peer_port=7)
        admitted = []
        admit = Link._admit

        def spy(link, pkt, now):
            admitted.append(_slots(pkt))
            return admit(link, pkt, now)

        monkeypatch.setattr(Link, "_admit", spy)
        source(sim, tx, **kw)
        fired = sim.run(until=until)
        assert net.forward._trains, "the link does not read the train"
        net.forward._read_trains()      # what has arrived by ``until``
        assert fired < len(admitted) / 2

        ref_sim = Simulator()
        host = _Recorder(port.address)
        source(ref_sim, UdpSender(ref_sim, host, port=7,
                                  peer_addr=port.peer_address, peer_port=7,
                                  flow_id=tx.flow_id), **kw)
        ref_sim.run(until=until)
        return admitted, host.packets

    def test_a_cbr_datagram(self, monkeypatch):
        read, sent = self._read_and_sent(monkeypatch, CbrSource, 0.02,
                                         rate_bps=10e6, payload_bytes=1000)
        assert len(read) > 10
        assert len(read) >= len(sent) - 1      # one may be on its hop
        for k in (1, 2, len(read) - 1):     # packet 0 is the first tick's
            assert read[k] == sent[k], k

    def test_a_vbr_frame_first_middle_and_last_segment(self, monkeypatch):
        read, sent = self._read_and_sent(
            monkeypatch, VbrSource, 0.009, frame_sizes=[5000, 3000],
            frame_rate=500.0, trace_step_s=0.004)
        assert len(read) > 12
        # Frame 0 (segments 0-3) is ticked; frame 1 is read: 1400, 1400,
        # 1400 and 800 bytes, then frame 2's 3000 as 1400, 1400 and 200.
        for k in (4, 5, 7, 8, 10):
            assert read[k] == sent[k], k
        assert [read[k]["last_of_frame"] for k in range(4, 11)] == [
            False, False, False, True, False, False, True]


class TestUdpSink:
    def test_loss_ratio_estimate(self):
        sim = Simulator()
        rx = UdpSink(sim, Host(sim, 1), port=5)
        from repro.sim.packet import Packet
        for seq in (0, 1, 3, 4):  # seq 2 lost
            rx.receive(Packet(flow_id=None if False else 1, seq=seq,
                              dport=5))
        rx.flow_id = None
        assert rx.packets_received == 4
        assert rx.loss_ratio == pytest.approx(0.2)


class TestBulk:
    def test_fixed_total_bytes(self):
        sim = Simulator()
        net = Dumbbell(sim)
        s, r = net.add_flow_hosts("b")
        from repro.transport.tcp import TcpConnection
        conn = TcpConnection(sim, s, r)
        bulk = BulkSource(conn, chunk_bytes=1400, total_bytes=140_000)
        conn.sender.on_space = bulk.pump
        bulk.start()
        sim.run(until=30.0)
        assert bulk.done
        assert bulk.submitted_bytes == 140_000
        assert conn.completed

    def test_validation(self):
        with pytest.raises(ValueError):
            BulkSource(None, chunk_bytes=0)
        with pytest.raises(ValueError):
            BulkSource(None, total_bytes=0)
