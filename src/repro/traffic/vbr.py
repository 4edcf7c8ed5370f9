"""Variable-bit-rate UDP source driven by a frame-size trace.

Paper section 3.1, changing-network setting: "a variable bit rate UDP source
is used as cross traffic ... The UDP source also has a fixed frame rate
(500 frames/sec) and the frame size fluctuation follows the same MBone
trace.  The frame size is the group size multiplied by 2000."
"""

from __future__ import annotations

from math import inf
from typing import Sequence

from ..sim.engine import Simulator
from ..sim.packet import HEADER_BYTES, Packet, PacketKind
from ..sim.topology import CrossPort
from ..transport.udp import UdpSender

__all__ = ["VbrSource"]

_DATA = PacketKind.DATA


class VbrSource:
    """Emits one trace-sized frame every ``1/frame_rate`` seconds.

    The trace wraps around when exhausted so the source can outlive the
    trace length (cross traffic must persist for the whole experiment).

    Bound to a :class:`~repro.sim.topology.CrossPort` the source is a
    *train*, like :class:`~repro.traffic.cbr.CbrSource`: frame ``k`` is sent
    at the tick chain's nominal time ``t_k``, sized from the trace step at
    ``t_k``, and its MSS segments leave back to back through
    ``port.arrival``.  While the bottleneck can plan it reads the segments;
    otherwise the source ticks as on a plain host, one event per frame and
    one ``Link.send`` post per segment.  ``frames_sent`` counts a frame
    from ``t_k`` on (a read at exactly ``t_k`` counts as before it); the
    sender's own ``packets_sent``/``bytes_sent`` count a segment read by
    the link when it meets the bottleneck, one ticked when it is ticked.
    """

    def __init__(self, sim: Simulator, sender: UdpSender, *,
                 frame_sizes: Sequence[int], frame_rate: float,
                 trace_step_s: float = 1.0, start: float = 0.0):
        if frame_rate <= 0:
            raise ValueError("frame rate must be positive")
        if trace_step_s <= 0:
            raise ValueError("trace step must be positive")
        if len(frame_sizes) == 0:
            raise ValueError("empty frame-size trace")
        self.sim = sim
        self.sender = sender
        self.frame_sizes = list(int(s) for s in frame_sizes)
        if any(s <= 0 for s in self.frame_sizes):
            raise ValueError("frame sizes must be positive")
        self.interval = 1.0 / frame_rate
        # Membership dynamics evolve on a seconds timescale (Figure 1), far
        # slower than the frame clock: the trace index advances once per
        # ``trace_step_s``, so congestion swings persist long enough for
        # transports and applications to react -- the regime the paper's
        # coordination schemes are designed for.
        self.trace_step_s = trace_step_s
        self._frames = 0        # frames ticked, and one a read train holds
        self._start_time = start
        self._running = False
        self._event = None      # the one pending tick
        # A train holds one frame at a time: each must have met the
        # bottleneck before the next is ticked, or the source ticks.
        port, mss = sender.host, sender.mss
        largest = max(self.frame_sizes)
        wire = largest + (largest + mss - 1) // mss * HEADER_BYTES
        self._port = (port if isinstance(port, CrossPort)
                      and wire * 8.0 / port.access_bps + port.access_delay_s
                      < self.interval else None)
        # Train: the pending segment -- nominal time, size and id of its
        # frame, its index there, when it meets the bottleneck -- and
        # whether the link holds it (``_read``).  A segment's event would
        # have been posted by its frame's tick.
        self._t = self._posted = self._at = inf
        self._size = self._seg = self._fid = 0
        self._read = False
        sim.at(start, self.start)

    _priority = 0       # a tick posted the segments

    @property
    def frames_sent(self) -> int:
        if self._port is not None:
            self._port.link._read_trains()
        # The link may hold the first segment of a frame still to be ticked.
        return self._frames - (self._read and self._seg == 0
                               and self.sim._now <= self._t)

    def start(self) -> None:
        if not self._running:
            self._running = True
            self._start_time = self.sim.now
            self._tick()

    def current_size(self) -> int:
        """Frame size for the current trace step (wraps around)."""
        return self._size_at(self.sim.now)

    def _size_at(self, t: float) -> int:
        # The epsilon absorbs float accumulation from the frame clock so a
        # frame nominally at a step boundary lands in the new step.
        step = int((t - self._start_time) / self.trace_step_s + 1e-9)
        return self.frame_sizes[step % len(self.frame_sizes)]

    def _tick(self) -> None:
        self.sender.send(self.current_size(), frame_id=self._frames)
        self._frames += 1
        port = self._port
        if port is not None and port.link._reads():
            self._frame(self.sim._now + self.interval)
            port.link._carry(self)
            self._read = True
            self._event = None
        else:
            self._event = self.sim.schedule(self.interval, self._tick)

    # -- the train: segments the link reads ------------------------------
    def _frame(self, t: float) -> None:
        """Hold frame ``_frames``, nominally sent at ``t``: its first
        segment's arrival."""
        self._t = self._posted = t
        self._size = size = self._size_at(t)
        self._seg = 0
        self._fid = self._frames
        self._frames += 1
        mss = self.sender.mss
        self._at = self._port.arrival(
            t, (mss if mss < size else size) + HEADER_BYTES)

    def _emit(self) -> Packet:
        """The pending segment, built at its arrival as ``UdpSender.send``
        built it at ``_t`` -- slot by slot, as ``Packet.copy`` does -- and
        the train moved on to the next segment, or to the next frame."""
        tx = self.sender
        mss = tx.mss
        size = self._size
        seg = self._seg
        remaining = size - seg * mss
        last = mss >= remaining
        cut = remaining if last else mss
        pkt = object.__new__(Packet)
        pkt.flow_id = tx.flow_id
        pkt.kind = _DATA
        pkt.seq = tx._seq
        pkt.ack = -1
        pkt.size = cut
        pkt.wire_size = cut + HEADER_BYTES
        pkt.src = tx.host.address
        pkt.dst = tx.peer_addr
        pkt.sport = tx.port
        pkt.dport = tx.peer_port
        pkt.created_at = pkt.sent_at = t = self._t
        pkt.marked = True
        pkt.tagged = False
        pkt.frame_id = self._fid
        pkt.retransmit = 0
        pkt.attrs = None
        pkt.ecn = False
        pkt.sack = None
        pkt.skip = False
        pkt.last_of_frame = last
        pkt.fec = None
        pkt.deadline = 0.0
        tx._seq += 1
        tx.packets_sent += 1
        tx.bytes_sent += cut
        if last:
            self._frame(t + self.interval)
        else:
            self._seg = seg + 1
            remaining -= mss
            self._at = self._port.arrival(
                t, (mss if mss < remaining else remaining) + HEADER_BYTES)
        return pkt

    def _hand_back(self) -> float:
        """Turn the held segment back into what the tick chain left: the
        rest of a ticked frame is offered for real, and the frame not yet
        ticked is withdrawn.  Returns when the next tick is due."""
        port = self._port
        sim = self.sim
        send = port.link.send
        while self._seg or sim._now > self._t:
            at = self._at
            sim.post(at, -1, send, (self._emit(),))
        port.withdraw()
        self._frames -= 1
        return self._t

    def _release(self) -> None:
        """The link stops reading the train: back to ticks (through ``at``,
        as ``CbrSource._release``)."""
        self._read = False
        self._event = self.sim.at(self._hand_back(), self._tick)
