"""Unit tests for the IQ-ECho event-channel middleware."""

import pytest

from repro.core.attributes import ADAPT_PKTSIZE, AttributeSet
from repro.middleware.echo import EventChannel
from repro.sim.engine import Simulator
from repro.sim.topology import Dumbbell
from repro.transport.rudp import RudpConnection


def make_channel():
    sim = Simulator()
    net = Dumbbell(sim)
    snd, rcv = net.add_flow_hosts("e")
    holder = {}
    conn = RudpConnection(
        sim, snd, rcv, law="iq",
        on_deliver=lambda pkt, now: holder["ch"].on_deliver(pkt, now))
    ch = EventChannel(sim, conn, name="test")
    holder["ch"] = ch
    return sim, conn, ch


def test_submit_and_deliver_event():
    sim, conn, ch = make_channel()
    events = []
    ch.subscribe(events.append)
    ch.submit(1000)
    ch.close()
    sim.run(until=5.0)
    assert len(events) == 1
    ev = events[0]
    assert ev.size == 1000 and ev.segments == 1
    assert ev.latency > 0


def test_multi_segment_event_assembled():
    sim, conn, ch = make_channel()
    events = []
    ch.subscribe(events.append)
    ch.submit(5000)  # 4 segments
    ch.close()
    sim.run(until=5.0)
    assert len(events) == 1
    assert events[0].segments == 4
    assert events[0].size == 5000


def test_frame_ids_assigned_sequentially():
    sim, conn, ch = make_channel()
    ids = [ch.submit(100) for _ in range(5)]
    assert ids == list(range(5))
    assert ch.events_submitted == 5


def test_events_delivered_in_order():
    sim, conn, ch = make_channel()
    order = []
    ch.subscribe(lambda ev: order.append(ev.frame_id))
    for _ in range(20):
        ch.submit(2000)
    ch.close()
    sim.run(until=10.0)
    assert order == list(range(20))
    assert ch.events_delivered == 20


def test_cmwritev_attr_reaches_coordinator():
    sim, conn, ch = make_channel()
    # A sub-MSS event carrying a resolution attribute triggers the
    # over-reaction coordination.
    ch.cmwritev_attr(700, AttributeSet({ADAPT_PKTSIZE: 0.5}))
    assert conn.coordinator.count("window_rescale") == 1


def test_multiple_subscribers():
    sim, conn, ch = make_channel()
    a, b = [], []
    ch.subscribe(a.append)
    ch.subscribe(b.append)
    ch.submit(100)
    ch.close()
    sim.run(until=5.0)
    assert len(a) == len(b) == 1


def test_event_repr_and_latency():
    sim, conn, ch = make_channel()
    got = []
    ch.subscribe(got.append)
    ch.submit(1400, tagged=True)
    ch.close()
    sim.run(until=5.0)
    ev = got[0]
    assert ev.tagged_segments == 1
    assert "latency" in repr(ev)
