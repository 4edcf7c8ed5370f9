"""Constant-bit-rate UDP source -- the paper's ``iperf`` cross traffic.

"To congest the 20M link, we use the iperf tool to generate UDP cross
traffic at a fixed rate that differs across experiments" (section 3.1).
iperf's UDP mode emits fixed-size datagrams on a fixed interval; this class
does exactly that on the simulated clock.

Bound to a plain ``Host`` the source ticks and sends.  Bound to a
:class:`~repro.sim.topology.CrossPort` it is a *train*: packet ``k`` of a
CBR flow is fully determined by its nominal send time ``t_k``, so it meets
the bottleneck at ``port.arrival(t_k, wire)``, built as ``UdpSender.send``
would have built it at ``t_k``.  While that link can plan, it *reads* the
train: it holds the next packet's instant and admits each packet there
itself, and no engine event exists per packet.  Otherwise the train keeps
one standing event at that instant, which offers the packet and moves on
(DESIGN.md section 2).
"""

from __future__ import annotations

from math import inf

from ..sim.engine import Simulator
from ..sim.packet import HEADER_BYTES, Packet, PacketKind
from ..sim.topology import CrossPort
from ..transport.udp import UdpSender

__all__ = ["CbrSource"]

_DATA = PacketKind.DATA


class CbrSource:
    """Sends ``payload_bytes`` datagrams so the *wire* rate is ``rate_bps``.

    The interval accounts for header overhead (iperf's -b targets the UDP
    payload rate; the distinction is a constant factor -- we target wire
    rate so "18 Mbps cross traffic on a 20 Mbps link" leaves the 2 Mbps the
    paper's numbers imply).

    On a train, a ``set_rate`` or read of ``datagrams_sent`` at
    exactly a nominal send time ``t_k`` counts as before it -- what the
    tick chain does for any event scheduled more than one interval ahead
    -- and the sender's own ``packets_sent``/``bytes_sent`` follow one
    access hop (36.52 us) behind ``datagrams_sent``, and are brought up to
    the clock by a read of the link or of ``datagrams_sent``.  A train its
    link reads keeps one event only when ``stop=`` is finite: at its last
    packet's arrival, where the clock of a drained run ends.
    """

    def __init__(self, sim: Simulator, sender: UdpSender, *,
                 rate_bps: float, payload_bytes: int = 1400,
                 start: float = 0.0, stop: float | None = None):
        if payload_bytes <= 0:
            raise ValueError("payload size must be positive")
        self.sim = sim
        self.sender = sender
        self.payload_bytes = payload_bytes
        self.stop_time = stop
        # A datagram above the MSS leaves as back-to-back segments: ticks.
        port = sender.host
        self._port = (port if isinstance(port, CrossPort)
                      and payload_bytes <= sender.mss else None)
        self._sent = 0
        self._running = False
        self._event = None      # the one pending tick / train event
        # Train: nominal send time of the pending packet, and of the one
        # after it once a rate change has landed in between; when the
        # pending packet meets the bottleneck, and when and at what priority
        # its event was (or would have been) posted.  ``_read``: the link
        # holds it.
        self._t = self._at = inf
        self._t_after: float | None = None
        self._posted = 0.0
        self._priority = -1
        self._read = False
        self.set_rate(rate_bps)
        sim.at(start, self.start)

    @property
    def datagrams_sent(self) -> int:
        if self._port is not None:
            self._port.link._read_trains()
        return self._sent + (self.sim._now > self._t)

    def start(self) -> None:
        if not self._running:
            self._running = True
            self._tick()

    def _tick(self) -> None:
        now = self.sim._now
        if self.stop_time is not None and now >= self.stop_time:
            self._running = False
            return
        self.sender.send(self.payload_bytes)
        self._sent += 1
        if self._port is None:
            self._event = self.sim.schedule(self.interval, self._tick)
            return
        # That first packet went the plain way (same-instant starts keep
        # their order); the train carries the rest, from the one sent at
        # ``t``: it notes the instant that one meets the bottleneck (inf
        # past ``stop=``).
        self._posted, self._priority = now, 0
        t = now + self.interval
        if self.stop_time is not None and t >= self.stop_time:
            # ``_running`` holds until ``t``, as on the tick chain; after
            # it a ``start()`` sends nothing either way.
            self._t = self._at = inf
        else:
            self._t = t
            self._at = self._port.arrival(t, self.payload_bytes
                                          + HEADER_BYTES)
        self._place()

    def _place(self) -> None:
        """Give the pending packet to the link to read, or post its event."""
        self._event = None
        if self._at == inf:
            return
        if self._port.link._carry(self):
            self._read = True
            if self.stop_time is not None:
                self._event = self.sim.post(self._end(), -1, self._last, ())
        else:
            self._event = self.sim.post(self._at, -1, self._depart, ())

    def _end(self) -> float:
        """When the last packet before ``stop=`` meets the bottleneck."""
        return max(self._at, self._port.last_arrival(self._rest()))

    def _rest(self):
        """``(t_k, wire)`` of each packet after the pending one."""
        t = self._t_after
        if t is None:
            t = self._t + self.interval
        wire = self.payload_bytes + HEADER_BYTES
        while t < self.stop_time:
            yield t, wire
            t += self.interval

    def _last(self) -> None:
        """The clock has reached the last packet: the link reads it."""
        self._port.link._read_trains()

    def _emit(self) -> Packet:
        """The pending packet, built at its arrival as ``UdpSender.send``
        would have built it at ``_t`` -- slot by slot, as ``Packet.copy``
        does -- and the train moved on to the next, whose event this one's
        arrival would have posted, as :meth:`_tick` moves it on."""
        tx = self.sender
        size = self.payload_bytes
        pkt = object.__new__(Packet)
        pkt.flow_id = tx.flow_id
        pkt.kind = _DATA
        pkt.seq = tx._seq
        pkt.ack = -1
        pkt.size = size
        pkt.wire_size = wire = size + HEADER_BYTES
        pkt.src = tx.host.address
        pkt.dst = tx.peer_addr
        pkt.sport = tx.port
        pkt.dport = tx.peer_port
        pkt.created_at = pkt.sent_at = self._t
        pkt.marked = True
        pkt.tagged = False
        pkt.frame_id = -1
        pkt.retransmit = 0
        pkt.attrs = None
        pkt.ecn = False
        pkt.sack = None
        pkt.skip = False
        pkt.last_of_frame = True
        pkt.fec = None
        pkt.deadline = 0.0
        tx._seq += 1
        tx.packets_sent += 1
        tx.bytes_sent += size
        self._sent += 1
        t = self._t_after
        if t is None:
            t = self._t + self.interval
        self._t_after = None
        self._posted, self._priority = self._at, -1
        if self.stop_time is not None and t >= self.stop_time:
            self._t = self._at = inf
            return pkt
        self._t = t
        self._at = self._port.arrival(t, wire)
        return pkt

    def _depart(self) -> None:
        self._port.link.send(self._emit())
        self._place()

    def _release(self) -> None:
        """The link stops reading the train: its packet gets its event --
        through ``at``, so that whatever watches ``schedule``/``at`` for
        callbacks (the benchmark's tracer) meets ``_depart``."""
        self._read = False
        if self._event is not None:
            self._event.cancel()
        self._event = self.sim.at(self._at, self._depart, priority=-1)

    def set_rate(self, rate_bps: float) -> None:
        """Change the target rate mid-run (used by step-congestion tests).
        The interval in force at one send spaces the next."""
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        wire = self.payload_bytes + HEADER_BYTES
        interval = wire * 8.0 / rate_bps
        port = self._port
        if port is not None:
            # The train's one event stands for the one packet in the hop.
            if interval <= wire * 8.0 / port.access_bps + port.access_delay_s:
                raise ValueError(f"{rate_bps:g} b/s puts a second "
                                 f"{wire}-byte packet on the access hop "
                                 f"before the first has left it")
            port.link._read_trains()
            if self._t_after is None and self.sim._now > self._t:
                self._t_after = self._t + self.interval
        self.rate_bps = rate_bps
        self.interval = interval
        if self._read and self.stop_time is not None and self._at < inf:
            self._event.cancel()    # the last packet has moved
            self._event = self.sim.post(self._end(), -1, self._last, ())
