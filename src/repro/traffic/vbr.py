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


def _cut(size: int, seg: int, mss: int) -> int:
    """Payload bytes of segment ``seg`` of a ``size``-byte frame, cut as
    ``UdpSender.send`` cuts it."""
    remaining = size - seg * mss
    return mss if mss < remaining else remaining


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
                 trace_step_s: float = 1.0,
                 start: float = 0.0, stop: float | None = None):
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
        self.stop_time = stop
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
        return self._frames - (self._read and self._at < inf
                               and self._seg == 0 and self.sim._now <= self._t)

    def start(self) -> None:
        if not self._running:
            self._running = True
            self._start_time = self.sim.now
            self._tick()

    def stop(self) -> None:
        self._running = False
        port = self._port
        if port is not None:
            port.link._read_trains()    # what has arrived was sent
        if self._event is not None:
            self._event.cancel()
        if self._read and self._at < inf:
            port.link._drop_train(self)
            self._hand_back()
        self._read = False
        self._at = inf

    def current_size(self) -> int:
        """Frame size for the current trace step (wraps around)."""
        return self._size_at(self.sim.now)

    def _size_at(self, t: float) -> int:
        # The epsilon absorbs float accumulation from the frame clock so a
        # frame nominally at a step boundary lands in the new step.
        step = int((t - self._start_time) / self.trace_step_s + 1e-9)
        return self.frame_sizes[step % len(self.frame_sizes)]

    def _tick(self) -> None:
        if self.stop_time is not None and self.sim.now >= self.stop_time:
            self._running = False
            return
        self.sender.send(self.current_size(), frame_id=self._frames)
        self._frames += 1
        t = self.sim._now + self.interval
        port = self._port
        if (port is not None and (self.stop_time is None or t < self.stop_time)
                and port.link._reads()):
            self._frame(t)
            port.link._carry(self)
            self._read = True
            self._event = (None if self.stop_time is None else
                           self.sim.post(self._end(), -1, self._last, ()))
        else:
            self._event = self.sim.schedule(self.interval, self._tick)

    # -- the train: segments the link reads ------------------------------
    def _frame(self, t: float) -> None:
        """Hold frame ``_frames``, nominally sent at ``t``: its first
        segment's arrival."""
        self._t = self._posted = t
        self._size = self._size_at(t)
        self._seg = 0
        self._fid = self._frames
        self._frames += 1
        self._at = self._port.arrival(t, self._wire())

    def _wire(self) -> int:
        """The pending segment's wire size."""
        return _cut(self._size, self._seg, self.sender.mss) + HEADER_BYTES

    def _packet(self) -> Packet:
        """The pending segment, as ``UdpSender.send`` built it at ``_t``."""
        tx = self.sender
        seg = _cut(self._size, self._seg, tx.mss)
        pkt = Packet(tx.flow_id, _DATA, tx._seq, -1, seg, tx.host.address,
                     tx.peer_addr, tx.port, tx.peer_port, self._t, True,
                     False, self._fid)
        pkt.last_of_frame = (self._seg + 1) * tx.mss >= self._size
        tx._seq += 1
        tx.packets_sent += 1
        tx.bytes_sent += seg
        return pkt

    def _emit(self) -> Packet:
        """The pending segment, built at its arrival; the train moves on to
        the next segment, or to the next frame (none past ``stop=``)."""
        pkt = self._packet()
        if not pkt.last_of_frame:
            self._seg += 1
            self._at = self._port.arrival(self._t, self._wire())
        elif self.stop_time is not None and (
                self._t + self.interval >= self.stop_time):
            self._at = inf
        else:
            self._frame(self._t + self.interval)
        return pkt

    def _hand_back(self) -> float:
        """Turn the held segment back into what the tick chain left: a
        frame not yet ticked is withdrawn, the rest of a ticked one is
        offered for real.  Returns when the next tick is due."""
        port = self._port
        if self._seg == 0 and self.sim._now <= self._t:
            port.withdraw()
            self._frames -= 1
            return self._t
        link = port.link
        while True:
            pkt = self._packet()
            self.sim.post(self._at, -1, link.send, (pkt,))
            if pkt.last_of_frame:
                return self._t + self.interval
            self._seg += 1
            self._at = port.arrival(self._t, self._wire())

    def _release(self) -> None:
        """The link stops reading the train: back to ticks (through ``at``,
        as ``CbrSource._release``)."""
        self._read = False
        if self._event is not None:
            self._event.cancel()
        self._event = self.sim.at(self._hand_back(), self._tick)

    def _end(self) -> float:
        """Where the tick chain leaves a drained run's clock: the tick that
        finds ``stop=`` passed, or the last segment's arrival if later."""
        t = self._t
        while t < self.stop_time:
            t += self.interval
        return max(t, self._at, self._port.last_arrival(self._rest()))

    def _rest(self):
        """``(t_k, wire)`` of each segment after the pending one."""
        mss = self.sender.mss
        t, size, seg = self._t, self._size, self._seg + 1
        while t < self.stop_time:
            for j in range(seg, (size + mss - 1) // mss):
                yield t, _cut(size, j, mss) + HEADER_BYTES
            t += self.interval
            size, seg = self._size_at(t), 0

    def _last(self) -> None:
        """The clock has reached the end of the train: the link reads it."""
        self._port.link._read_trains()
