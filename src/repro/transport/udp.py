"""Plain (unreliable) UDP endpoints.

Used for the experiments' cross traffic: the "iperf" constant-bit-rate
source and the MBone-driven VBR source both send over this.  No ACKs, no
retransmission -- losses simply vanish at the bottleneck, which is what makes
UDP cross traffic so aggressive against the responsive flows under test.
"""

from __future__ import annotations

from typing import Callable

from ..sim.engine import Simulator
from ..sim.node import Host
from ..sim.packet import Packet, PacketKind
from .base import make_flow_id

__all__ = ["UdpSender", "UdpSink"]

_DATA = PacketKind.DATA


class UdpSender:
    """Datagram sender; frames above the MSS are segmented."""

    def __init__(self, sim: Simulator, host: Host, *, port: int,
                 peer_addr: int, peer_port: int, mss: int = 1400,
                 flow_id: int | None = None):
        self.sim = sim
        self.host = host
        self.port = port
        self.peer_addr = peer_addr
        self.peer_port = peer_port
        self.mss = mss
        self.flow_id = flow_id if flow_id is not None else make_flow_id(sim)
        self.packets_sent = 0
        self.bytes_sent = 0
        self._seq = 0
        host.bind(port, self)

    def send(self, size: int, *, frame_id: int = -1) -> int:
        """Emit one datagram of ``size`` bytes; returns segments sent."""
        if size <= 0:
            raise ValueError("datagram size must be positive")
        now = self.sim._now
        mss = self.mss
        nseg = (size + mss - 1) // mss
        remaining = size
        host = self.host
        last = nseg - 1
        for i in range(nseg):
            seg = mss if mss < remaining else remaining
            remaining -= seg
            # Positional: flow_id, kind, seq, ack, size, src, dst, sport,
            # dport, created_at, marked, tagged, frame_id.
            pkt = Packet(self.flow_id, _DATA, self._seq, -1, seg,
                         host.address, self.peer_addr, self.port,
                         self.peer_port, now, True, False, frame_id)
            pkt.last_of_frame = (i == last)
            self._seq += 1
            host.send(pkt)
            self.packets_sent += 1
            self.bytes_sent += seg
        return nseg

    def receive(self, pkt: Packet) -> None:
        pass  # one-way flow; nothing comes back


class UdpSink:
    """Counts received datagrams; estimates loss from sequence gaps."""

    def __init__(self, sim: Simulator, host: Host, *, port: int,
                 flow_id: int | None = None,
                 on_deliver: Callable[[Packet, float], None] | None = None):
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.on_deliver = on_deliver
        self.packets_received = 0
        self.bytes_received = 0
        self.highest_seq = -1
        host.bind(port, self)

    def receive(self, pkt: Packet) -> None:
        if self.flow_id is not None and pkt.flow_id != self.flow_id:
            return
        self.packets_received += 1
        self.bytes_received += pkt.size
        if pkt.seq > self.highest_seq:
            self.highest_seq = pkt.seq
        if self.on_deliver is not None:
            self.on_deliver(pkt, self.sim.now)

    @property
    def loss_ratio(self) -> float:
        """Fraction of the sequence space never seen (in-order estimate)."""
        expected = self.highest_seq + 1
        if expected <= 0:
            return 0.0
        return max(0.0, 1.0 - self.packets_received / expected)
