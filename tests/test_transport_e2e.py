"""End-to-end transport tests on the dumbbell: delivery, ordering,
retransmission, congestion response, skips, EACK."""

from functools import partial

import pytest

from repro.middleware.receiver import DeliveryLog
from repro.sim.engine import Simulator
from repro.sim.link import BernoulliLoss
from repro.sim.topology import Dumbbell
from repro.transport.rudp import RudpConnection
from repro.transport.tcp import TcpConnection


def make(conn_cls, *, queue_pkts=64, rtt=0.03, **kw):
    sim = Simulator()
    net = Dumbbell(sim, queue_pkts=queue_pkts, rtt_s=rtt)
    snd, rcv = net.add_flow_hosts("t")
    log = DeliveryLog()
    conn = conn_cls(sim, snd, rcv, on_deliver=log.on_deliver, **kw)
    return sim, net, conn, log


@pytest.mark.parametrize("cls", [TcpConnection, RudpConnection,
                                 partial(RudpConnection, law="iq")],
                         ids=["TcpConnection", "RudpConnection", "iq"])
def test_small_transfer_delivers_everything(cls):
    sim, net, conn, log = make(cls)
    for i in range(20):
        conn.submit(1000, frame_id=i)
    conn.finish()
    sim.run(until=10.0)
    assert conn.completed
    assert len(log) == 20
    assert log.total_bytes == 20_000


@pytest.mark.parametrize("cls", [TcpConnection, RudpConnection])
def test_large_frames_are_segmented_and_reassembled(cls):
    sim, net, conn, log = make(cls)
    conn.submit(10_000, frame_id=0)  # 8 segments at MSS 1400
    conn.finish()
    sim.run(until=10.0)
    assert conn.completed
    assert len(log) == 8
    assert log.total_bytes == 10_000
    assert log.message_times().size == 1  # one frame completion


@pytest.mark.parametrize("cls", [TcpConnection, RudpConnection])
def test_in_order_delivery_under_queue_loss(cls):
    """Overflow the 8-packet bottleneck queue; everything still arrives
    exactly once and in order."""
    sim, net, conn, log = make(cls, queue_pkts=8)
    n = 2500
    for i in range(n):
        conn.submit(1400, frame_id=i)
    conn.finish()
    sim.run(until=120.0)
    assert conn.completed
    assert net.bottleneck_queue.stats.drops > 0  # loss really happened
    assert list(log.frame_ids) == list(range(n))
    assert conn.sender.stats.retransmissions > 0


@pytest.mark.parametrize("cls", [TcpConnection, RudpConnection])
def test_survives_random_wire_loss(cls):
    import random
    sim, net, conn, log = make(cls)
    net.forward.loss = BernoulliLoss(0.05, random.Random(3))
    n = 200
    for i in range(n):
        conn.submit(1400, frame_id=i)
    conn.finish()
    sim.run(until=120.0)
    assert conn.completed
    assert list(log.frame_ids) == list(range(n))


def test_ack_path_loss_recovers_via_rto():
    import random
    sim, net, conn, log = make(RudpConnection)
    net.backward.loss = BernoulliLoss(0.3, random.Random(5))
    for i in range(50):
        conn.submit(1400, frame_id=i)
    conn.finish()
    sim.run(until=120.0)
    assert conn.completed
    assert len(log) == 50


def test_window_limits_inflight():
    sim, net, conn, log = make(RudpConnection)
    for i in range(500):
        conn.submit(1400, frame_id=i)
    s = conn.sender
    assert s.inflight <= s.window_limit
    sim.run(until=0.05)
    assert s.inflight <= s.window_limit


def test_rudp_skips_unmarked_losses_within_tolerance():
    sim, net, conn, log = make(RudpConnection, queue_pkts=8,
                               loss_tolerance=0.5)
    n = 2500
    for i in range(n):
        # Every 5th datagram marked; others droppable.
        conn.submit(1400, marked=(i % 5 == 0), frame_id=i)
    conn.finish()
    sim.run(until=120.0)
    assert conn.completed
    st = conn.sender.stats
    assert st.skips_sent > 0
    # All marked datagrams arrived.
    delivered = set(log.frame_ids)
    assert all(i in delivered for i in range(0, n, 5))
    # Skipped ones were counted at the receiver.
    assert conn.receiver.stats.skipped_received == st.skips_sent


def test_rudp_full_reliability_when_tolerance_none():
    sim, net, conn, log = make(RudpConnection, queue_pkts=8)
    for i in range(200):
        conn.submit(1400, marked=False, frame_id=i)
    conn.finish()
    sim.run(until=60.0)
    assert conn.completed
    assert len(log) == 200
    assert conn.sender.stats.skips_sent == 0


def test_discard_unmarked_never_transmits():
    sim, net, conn, log = make(RudpConnection, law="iq", loss_tolerance=0.9)
    conn.sender.discard_unmarked = True
    for i in range(100):
        conn.submit(1000, marked=(i % 2 == 0), frame_id=i)
    conn.finish()
    sim.run(until=30.0)
    assert conn.completed
    st = conn.sender.stats
    assert st.discarded_msgs == 50
    assert len(log) == 50
    assert all(f % 2 == 0 for f in log.frame_ids)


def test_rtt_estimate_close_to_path_rtt():
    sim, net, conn, log = make(RudpConnection)
    for i in range(100):
        conn.submit(1400, frame_id=i)
    conn.finish()
    sim.run(until=30.0)
    assert conn.completed
    assert 0.028 < conn.sender.rtt.rtt < 0.08  # 30 ms path + queueing


def test_metrics_exported_during_transfer():
    from repro.core.attributes import NET_CWND, NET_RATE
    sim, net, conn, log = make(RudpConnection)
    for i in range(200):
        conn.submit(1400, frame_id=i)
    conn.finish()
    sim.run(until=30.0)
    assert conn.query_metric(NET_CWND) > 0
    assert conn.query_metric(NET_RATE) > 0


def test_callbacks_fire_on_congestion():
    sim, net, conn, log = make(RudpConnection, queue_pkts=6,
                               metric_period=0.1)
    fired = []
    conn.register_callbacks(upper=0.01, lower=0.001,
                            on_upper=lambda e, m: fired.append(e) or None)
    for i in range(800):
        conn.submit(1400, frame_id=i)
    conn.finish()
    sim.run(until=60.0)
    assert fired, "congestion never reported to the application"


def test_long_rtt_path():
    sim, net, conn, log = make(RudpConnection, rtt=0.25)
    for i in range(50):
        conn.submit(1400, frame_id=i)
    conn.finish()
    sim.run(until=60.0)
    assert conn.completed
    assert conn.sender.rtt.rtt > 0.2


def test_submit_after_finish_rejected():
    sim, net, conn, log = make(RudpConnection)
    conn.submit(100)
    conn.finish()
    with pytest.raises(RuntimeError):
        conn.submit(100)


def test_zero_size_rejected():
    sim, net, conn, log = make(RudpConnection)
    with pytest.raises(ValueError):
        conn.submit(0)


def test_eack_repairs_bursts_without_rto_storms():
    """Sustained queue-overflow bursts are repaired by EACK/fast
    retransmit; the RTO stays a rare backstop (tail losses only) --
    regression guard for the repair pacing logic."""
    sim, net, conn, log = make(RudpConnection, queue_pkts=8)
    for i in range(2500):
        conn.submit(1400, frame_id=i)
    conn.finish()
    sim.run(until=120.0)
    assert conn.completed
    st = conn.sender.stats
    assert st.retransmissions > 50          # losses really happened
    assert st.fast_retransmits > 0          # loss events repaired via ACKs
    assert st.timeouts <= st.retransmissions * 0.1 + 2
