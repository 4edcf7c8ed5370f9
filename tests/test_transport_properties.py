"""Property-based end-to-end transport invariants (hypothesis).

The central reliability contract: whatever the loss pattern, a fully
reliable transport delivers every submitted byte exactly once, in order;
a loss-tolerant transport never withholds marked data and never exceeds
its skip budget.
"""

import random
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.middleware.receiver import DeliveryLog
from repro.obs.bus import TraceBus
from repro.obs.events import PACKET_ACK
from repro.obs.flight import FlightRecorder
from repro.sim.engine import Simulator
from repro.sim.link import BernoulliLoss, GilbertElliottLoss
from repro.sim.packet import Packet, PacketKind
from repro.sim.topology import Dumbbell
from repro.transport import rudp as rudp_mod
from repro.transport.base import (DUP_ACK_THRESHOLD, WindowedReceiver,
                                  WindowedSender)
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


# ----------------------------------------------------------------------
# One loss-repair path against NewReno's own branches
# ----------------------------------------------------------------------
class NewRenoSender(WindowedSender):
    """``receive`` and ``_on_dup_ack`` as they were while the sender forked
    loss repair on an EACK flag, the flag off (TCP's branches), line for
    line: a partial ACK retransmits the new head unconditionally, and no
    repair is stamped or swept."""

    def receive(self, pkt):
        if pkt.kind != PacketKind.ACK or pkt.flow_id != self.flow_id:
            return
        ack = pkt.ack
        una = self.snd_una
        if ack <= una:
            if ack == una and self.snd_nxt > ack:
                self._on_dup_ack()
            return
        newly = ack - una
        tr = self.trace
        if tr.enabled:
            tr.emit("transport", PACKET_ACK, flow=self.flow_id, ack=ack,
                    newly=newly)
        if self._consec_timeouts:
            self._consec_timeouts = 0
            if self._stalled:
                self._stalled = False
                self.stats.stall_recoveries += 1
                tr.note("transport", "RESUME", flow=self.flow_id,
                        recoveries=self.stats.stall_recoveries)
                self.coordinator.on_resume(self.sim.now)
        sample = None
        now = self.sim._now
        window = self._window
        stats = self.stats
        metrics = self.metrics
        for s in range(una, ack):
            entry = window.pop(s, None)
            if entry is not None:
                size = entry.size
                stats.acked_packets += 1
                stats.acked_bytes += size
                metrics._acked_bytes += size
                if entry.retransmit == 0 and not entry.skip:
                    sample = now - entry.sent_at
        self.snd_una = ack
        self._dup_acks = 0
        if self._sacked:
            self._sacked = {s for s in self._sacked if s >= ack}
        if sample is not None:
            self.rtt.sample(sample)
        if self._in_recovery:
            if ack >= self._recover_point:
                self._in_recovery = False
                self._repaired.clear()
                self.cc.on_recovery_exit()
            else:
                # NewReno-style partial ACK: the next hole is also lost.
                self._retransmit(self.snd_una, timeout=False)
        elif self.cc.acks_move_window:
            self.cc.on_ack(newly)
        self._arm_rto()
        self._pump()

    def _on_dup_ack(self):
        self._dup_acks += 1
        if self._in_recovery:
            self.cc.on_dupack_in_recovery()
            self._pump()
        elif self._dup_acks == DUP_ACK_THRESHOLD:
            self.stats.fast_retransmits += 1
            self._in_recovery = True
            self._recover_point = self.snd_nxt
            self.cc.on_fast_retransmit(self.inflight)
            self._retransmit(self.snd_una, timeout=False)
            self._arm_rto()


def _tcp_transfer(sender_cls, loss, sizes):
    """A TCP transfer over a lossy forward link with every ring note kept:
    the flight dump, the sender's counters and its final window."""
    with mock.patch.object(rudp_mod, "WindowedSender", sender_cls):
        sim = Simulator()
        flight = FlightRecorder(capacity=1 << 20)
        sim.bus = TraceBus(sim, ring=flight)
        net = Dumbbell(sim, queue_pkts=16)
        net.forward.loss = loss
        snd, rcv = net.add_flow_hosts("p")
        conn = TcpConnection(sim, snd, rcv)
    assert type(conn.sender) is sender_cls
    for i, size in enumerate(sizes):
        conn.submit(size, frame_id=i)
    conn.finish()
    sim.run(until=600.0)
    sender = conn.sender
    return flight.dump(), sender.stats.as_dict(), sender.cc.cwnd


_LOSSES = {
    "bernoulli": lambda p, seed: BernoulliLoss(p, random.Random(seed)),
    "gilbert-elliott": lambda p, seed: GilbertElliottLoss(
        p_gb=p, p_bg=0.4, rng=random.Random(seed)),
}


@given(sizes=st.lists(st.integers(min_value=1, max_value=6000),
                      min_size=1, max_size=80),
       kind=st.sampled_from(sorted(_LOSSES)),
       p=st.sampled_from([0.01, 0.05, 0.15]),
       seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_merged_repair_path_is_newreno_without_an_eack(sizes, kind, p, seed):
    """With no EACK the one repair path (``_repair``, the EACK sweep) is
    NewReno: the same ring, event for event, the same counters and the same
    final window as the unmerged branches, under IID and bursty loss."""
    got = _tcp_transfer(WindowedSender, _LOSSES[kind](p, seed), sizes)
    want = _tcp_transfer(NewRenoSender, _LOSSES[kind](p, seed), sizes)
    assert got == want


def test_the_differential_reaches_fast_retransmit_and_partial_acks():
    """A burst-loss transfer the differential above draws from enters
    recovery and repairs heads on partial ACKs, so it compares those
    branches, not just the clean path."""
    flight, stats, _ = _tcp_transfer(
        WindowedSender, _LOSSES["gilbert-elliott"](0.05, 2), [1400] * 80)
    repairs = sum(e["event"] == "PACKET_RETX" and e["reason"] == "fast"
                  for e in flight["events"])
    assert stats["fast_retransmits"] > 0
    assert repairs > stats["fast_retransmits"]    # partial-ACK repairs too
