"""Unit tests for drop-tail and RED queues."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.bus import TraceBus
from repro.obs.events import PACKET_DROP
from repro.obs.flight import FlightRecorder
from repro.obs.sinks import RingBufferSink
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue, REDQueue


def mkpkt(size=1400, flow=1):
    return Packet(flow_id=flow, size=size)


def test_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        DropTailQueue(0)


def test_fifo_order():
    q = DropTailQueue(10_000_000)
    pkts = [mkpkt(100) for _ in range(5)]
    for p in pkts:
        assert q.push(p)
    assert [q.pop() for _ in range(5)] == pkts


def test_byte_accounting_includes_headers():
    q = DropTailQueue(10_000_000)
    q.push(mkpkt(1400))
    assert q.bytes == 1440  # payload + 40B header
    q.pop()
    assert q.bytes == 0


def test_tail_drop_when_full():
    q = DropTailQueue(capacity_bytes=2 * 1440)
    assert q.push(mkpkt())
    assert q.push(mkpkt())
    assert not q.push(mkpkt())
    assert q.stats.drops == 1
    assert q.stats.arrivals == 3
    assert len(q) == 2


def test_drop_callback_observes_dropped_packet():
    dropped = []
    q = DropTailQueue(capacity_bytes=1440, on_drop=dropped.append)
    q.push(mkpkt())
    victim = mkpkt()
    q.push(victim)
    assert dropped == [victim]


def test_small_packet_fits_after_large_drop():
    """Byte budget, not packet slots: a small packet can still fit."""
    q = DropTailQueue(capacity_bytes=1500)
    assert q.push(mkpkt(1400))   # 1440 bytes
    assert not q.push(mkpkt(1400))
    assert q.push(mkpkt(10))     # 50 bytes fits in the remaining 60


def test_drop_ratio():
    q = DropTailQueue(capacity_bytes=1440)
    q.push(mkpkt())
    q.push(mkpkt())
    q.push(mkpkt())
    assert q.stats.drop_ratio == pytest.approx(2 / 3)


def test_peak_tracking():
    q = DropTailQueue(capacity_bytes=10 * 1440)
    for _ in range(4):
        q.push(mkpkt())
    q.pop()
    assert q.stats.peak_packets == 4
    assert q.stats.peak_bytes == 4 * 1440


def test_clear_resets_contents_but_not_stats():
    q = DropTailQueue(capacity_bytes=10 * 1440)
    q.push(mkpkt())
    q.clear()
    assert q.empty and q.bytes == 0
    assert q.stats.arrivals == 1


@given(st.lists(st.integers(min_value=1, max_value=3000), max_size=200))
@settings(max_examples=50, deadline=None)
def test_bytes_never_exceed_capacity(sizes):
    """Invariant: queued bytes stay within the configured budget."""
    q = DropTailQueue(capacity_bytes=8 * 1440)
    for s in sizes:
        q.push(mkpkt(s))
        assert q.bytes <= 8 * 1440
    # Conservation: arrivals = drops + still-queued + departures(0)
    assert q.stats.arrivals == q.stats.drops + len(q)


@given(st.lists(st.integers(min_value=1, max_value=3000), min_size=1,
                max_size=200), st.data())
@settings(max_examples=50, deadline=None)
def test_pop_returns_in_push_order(sizes, data):
    q = DropTailQueue(capacity_bytes=1 << 30)
    pkts = [mkpkt(s) for s in sizes]
    for p in pkts:
        q.push(p)
    out = [q.pop() for _ in range(len(pkts))]
    assert out == pkts


class TestRed:
    def test_no_drops_when_idle(self):
        q = REDQueue(100 * 1440, rng=random.Random(1))
        assert all(q.push(mkpkt()) for _ in range(10))

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            REDQueue(1000, min_th=0.9, max_th=0.5)

    def test_early_and_tail_drops_share_one_report_path(self):
        """A drop is reported in the queue, where it is decided: RED's
        early drop as ``red``, its inherited tail drop as ``queue``, each
        once, with the occupancy it met, before ``on_drop`` runs."""
        def reported():
            return [ev.fields for ev in trace.events
                    if ev.etype == PACKET_DROP]

        observed = []
        # A slow average: the buffer fills (tail drops) before RED reacts.
        q = REDQueue(6 * 1440, weight=0.05, rng=random.Random(7),
                     on_drop=lambda pkt: observed.append(
                         (pkt.seq, len(reported()))))
        trace = RingBufferSink()
        q.trace = TraceBus(Simulator(), [trace],
                           ring=FlightRecorder(capacity=100))
        q.name = "q0"
        for i in range(60):
            pkt = mkpkt()
            pkt.seq = i
            q.push(pkt)
        drops = reported()
        assert len(drops) == q.stats.drops
        assert {d["kind"] for d in drops} == {"red", "queue"}
        assert all(d["link"] == "q0" and d["queued_pkts"] <= 6
                   and d["queued_bytes"] == 1440 * d["queued_pkts"]
                   for d in drops)
        # on_drop saw packet i after report i was already in the trace.
        assert observed == [(d["pkt"], n + 1) for n, d in enumerate(drops)]
        assert [e["event"] for e in q.trace.ring.dump()["events"]] \
            == [PACKET_DROP] * len(drops)

    def test_standalone_queue_reports_nowhere(self):
        q = REDQueue(2 * 1440, rng=random.Random(1))
        assert not q.trace.recording and q.spans is None
        assert [q.push(mkpkt()) for _ in range(3)] == [True, True, False]
        assert q.stats.drops == 1

    def test_drops_probabilistically_before_full(self):
        q = REDQueue(40 * 1440, max_p=0.5, weight=0.5,
                     rng=random.Random(7))
        accepted = sum(q.push(mkpkt()) for _ in range(30))
        # The queue never reached its hard byte budget, yet RED dropped.
        assert q.bytes < q.capacity_bytes
        assert q.stats.drops > 0
        assert accepted > 0
