"""Property-based end-to-end transport invariants (hypothesis).

The central reliability contract: whatever the loss pattern, a fully
reliable transport delivers every submitted byte exactly once, in order;
a loss-tolerant transport never withholds marked data and never exceeds
its skip budget.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.middleware.receiver import DeliveryLog
from repro.sim.engine import Simulator
from repro.sim.link import BernoulliLoss
from repro.sim.packet import Packet, PacketKind
from repro.sim.topology import Dumbbell
from repro.transport.base import WindowedReceiver
from repro.transport.rudp import RudpConnection
from repro.transport.tcp import TcpConnection

FAST = settings(max_examples=12, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def run_transfer(cls, *, sizes, fwd_loss=0.0, bwd_loss=0.0, seed=0,
                 queue_pkts=16, **kw):
    sim = Simulator()
    net = Dumbbell(sim, queue_pkts=queue_pkts)
    if fwd_loss:
        net.forward.loss = BernoulliLoss(fwd_loss, random.Random(seed))
    if bwd_loss:
        net.backward.loss = BernoulliLoss(bwd_loss, random.Random(seed + 1))
    snd, rcv = net.add_flow_hosts("p")
    log = DeliveryLog()
    conn = cls(sim, snd, rcv, on_deliver=log.on_deliver, **kw)
    for i, size in enumerate(sizes):
        conn.submit(size, frame_id=i)
    conn.finish()
    sim.run(until=600.0)
    return conn, log


@given(sizes=st.lists(st.integers(min_value=1, max_value=6000),
                      min_size=1, max_size=60),
       fwd=st.sampled_from([0.0, 0.05, 0.15]),
       seed=st.integers(min_value=0, max_value=100))
@FAST
def test_reliable_exactly_once_in_order(sizes, fwd, seed):
    conn, log = run_transfer(RudpConnection, sizes=sizes, fwd_loss=fwd,
                             seed=seed)
    assert conn.completed
    # Every byte of every frame delivered, frames in submission order.
    assert log.total_bytes == sum(sizes)
    per_frame = {}
    for fid, size in zip(log.frame_ids, log.sizes):
        per_frame[fid] = per_frame.get(fid, 0) + int(size)
    assert per_frame == {i: s for i, s in enumerate(sizes)}
    completions = list(log.frame_ids[[bool(x) for x in
                                      (log.frame_ids >= 0)]])
    # In-order: frame ids of deliveries never decrease.
    assert all(a <= b for a, b in zip(completions, completions[1:]))


@given(sizes=st.lists(st.integers(min_value=100, max_value=3000),
                      min_size=5, max_size=40),
       bwd=st.sampled_from([0.1, 0.3]),
       seed=st.integers(min_value=0, max_value=50))
@FAST
def test_tcp_survives_ack_loss(sizes, bwd, seed):
    conn, log = run_transfer(TcpConnection, sizes=sizes, bwd_loss=bwd,
                             seed=seed)
    assert conn.completed
    assert log.total_bytes == sum(sizes)


@given(tolerance=st.sampled_from([0.1, 0.3, 0.6]),
       seed=st.integers(min_value=0, max_value=50))
@FAST
def test_loss_tolerant_invariants(tolerance, seed):
    """Marked frames always arrive; total skips respect the tolerance."""
    rng = random.Random(seed)
    marked = [rng.random() < 0.3 for _ in range(120)]
    sim = Simulator()
    net = Dumbbell(sim, queue_pkts=16)
    net.forward.loss = BernoulliLoss(0.1, random.Random(seed + 7))
    snd, rcv = net.add_flow_hosts("p")
    log = DeliveryLog()
    conn = RudpConnection(sim, snd, rcv, loss_tolerance=tolerance,
                          on_deliver=log.on_deliver)
    for i, m in enumerate(marked):
        conn.submit(1400, marked=m, frame_id=i)
    conn.finish()
    sim.run(until=600.0)
    assert conn.completed
    delivered = set(int(f) for f in log.frame_ids)
    for i, m in enumerate(marked):
        if m:
            assert i in delivered, f"marked frame {i} withheld"
    st_ = conn.sender.stats
    if st_.skips_sent:
        total = st_.skips_sent + st_.acked_packets
        assert st_.skips_sent / total <= tolerance + 0.05


# ----------------------------------------------------------------------
# The receiver's in-order fast path against the path it skips
# ----------------------------------------------------------------------
class ReferenceReceiver(WindowedReceiver):
    """``receive`` without its in-order fast path: every data segment goes
    through ``ReorderBuffer.offer`` and ``_consume``, then the ACK."""

    def receive(self, pkt):
        if pkt.flow_id != self.flow_id or pkt.kind != PacketKind.DATA:
            return
        reorder = self.reorder
        verdict = reorder.offer(pkt.seq, pkt)
        if verdict == "inorder":
            self._consume(pkt)
            reorder.advance()
            for _seq, buffered in reorder.drain():
                self._consume(buffered)
        elif verdict == "dup":
            self.stats.duplicates += 1
        ack = Packet(self.flow_id, PacketKind.ACK, ack=reorder.rcv_nxt)
        if reorder._buf and self.use_eack:
            ack.sack = tuple(reorder.buffered_seqs()[:self.EACK_LIMIT])
        self.host.send(ack)


class _Host:
    """Binds the receiver and keeps the ACK stream it sends."""

    address = 2

    def __init__(self):
        self.acks = []

    def bind(self, port, endpoint):
        pass

    def send(self, pkt):
        self.acks.append((pkt.ack, pkt.sack))
        return True


class _Spans:
    def __init__(self):
        self.calls = []

    def on_deliver(self, pkt):
        self.calls.append(("deliver", pkt.seq))

    def on_skip(self, pkt):
        self.calls.append(("skip", pkt.seq))


def _receive_all(cls, arrivals, *, spans, eack):
    sim, host, delivered = Simulator(), _Host(), []
    rx = cls(sim, host, port=1, peer_addr=1, peer_port=1, flow_id=1,
             on_deliver=lambda pkt, now: delivered.append((pkt.seq, now)),
             use_eack=eack)
    if spans:
        rx.spans = _Spans()
    for t, (seq, skip) in enumerate(arrivals):
        sim._now = float(t)
        pkt = Packet(1, PacketKind.DATA, seq, size=0 if skip else 100)
        pkt.skip = skip
        rx.receive(pkt)
    return (delivered, rx.stats.as_dict(), rx.reorder.duplicates,
            rx.reorder.rcv_nxt, rx.reorder.buffered_seqs(), host.acks,
            rx.spans.calls if spans else None)


@given(arrivals=st.lists(st.tuples(st.integers(min_value=0, max_value=24),
                                   st.booleans()), max_size=80),
       spans=st.booleans(), eack=st.booleans())
@settings(max_examples=200, deadline=None)
def test_in_order_receive_equals_offer_and_consume(arrivals, spans, eack):
    """Reordered, duplicated and skip segments, spans on and off: the
    deliveries, the duplicate counts and the ACK stream (cumulative point
    and EACK list) are the reference's, arrival for arrival."""
    got = _receive_all(WindowedReceiver, arrivals, spans=spans, eack=eack)
    want = _receive_all(ReferenceReceiver, arrivals, spans=spans, eack=eack)
    assert got == want
