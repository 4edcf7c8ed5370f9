"""Dumbbell topology builder reproducing the paper's Emulab setup.

Paper section 3.1: "All experiments are conducted on emulated 20Mb physical
links with a path RTT of 30ms, unless otherwise noted, and a maximum RUDP
segment size of 1400 bytes."  Section 3.5's changing-network experiment uses
a path with 125 ms one-way delay instead.

The dumbbell is::

    senders --fast access--> [L router] ==bottleneck==> [R router] --> receivers
                                        <=============

Access links are fast and near-zero delay, so the bottleneck link alone sets
the path RTT and loss behaviour, exactly as on the emulated testbed.

One-way cross traffic only has to occupy the bottleneck queue, so it does
not walk that path: a :class:`CrossPort` hands each packet to the forward
bottleneck at the instant the access hop would have, and counts it where it
leaves (DESIGN.md section 2, "What a cross packet costs").
"""

from __future__ import annotations

from math import inf

from .engine import SimulationError, Simulator
from .link import Link
from .node import Host, Router
from .packet import Packet

__all__ = ["CrossPort", "Dumbbell", "PAPER_BOTTLENECK_BPS", "PAPER_RTT_S",
           "PAPER_MSS"]

#: Paper defaults (section 3.1).
PAPER_BOTTLENECK_BPS = 20e6
PAPER_RTT_S = 0.030
PAPER_MSS = 1400

#: ``Link``'s default egress buffer, which every access link has.
ACCESS_QUEUE_BYTES = 64 * 1440


class _Egress:
    """Router R's route for a cross flow: the packet ends here, counted."""

    def __init__(self) -> None:
        self.packets = 0
        self.bytes = 0      # payload bytes, as ``UdpSink.bytes_received``

    def send(self, pkt: Packet) -> bool:
        self.packets += 1
        self.bytes += pkt.size
        return True


class CrossPort:
    """Stands where a one-way flow's sender/receiver host pair stood.

    A ``UdpSender`` binds to it as to a ``Host``: :meth:`send` does the
    access link's arithmetic in the link's order and posts the packet into
    ``link`` (the forward bottleneck) at the float instant router L would
    have; ``egress`` is the far end.  The access hop never drops, and that
    is checked: what its 64-packet queue would have tail-dropped raises.
    """

    def __init__(self, sim: Simulator, address: int, link: Link, *,
                 access_bps: float, access_delay_s: float, name: str = ""):
        self.sim = sim
        self.address = address
        self.peer_address = address + 1
        self.link = link
        self.access_bps = access_bps
        self.access_delay_s = access_delay_s
        self.name = name or f"port{address}"
        self.egress = _Egress()
        self.senders: dict[int, object] = {}
        self._free_at = self._undo = -inf   # access serialiser falls idle
        self._backlog = 0       # wire bytes accepted behind a busy one

    def bind(self, port: int, endpoint) -> None:
        self.senders[port] = endpoint

    def arrival(self, t: float, wire: int) -> float:
        """When a ``wire``-byte packet offered to the access hop at ``t``
        reaches the bottleneck.  The order of the two additions is
        ``Link``'s: ``(start + tx) + delay``."""
        start = self._undo = self._free_at
        if t > start:
            start = t
            self._backlog = 0
        else:
            # Every byte since the serialiser was last idle: at least what
            # the access queue would have held.
            self._backlog += wire
            if self._backlog > ACCESS_QUEUE_BYTES:
                raise SimulationError(
                    f"{self.name}: {self._backlog} bytes back to back "
                    f"overflow the access hop's {ACCESS_QUEUE_BYTES}-byte "
                    f"queue; a cross port never drops")
        self._free_at = free_at = start + wire * 8.0 / self.access_bps
        return free_at + self.access_delay_s

    def withdraw(self) -> None:
        """Undo the last :meth:`arrival`: its packet, asked about ahead of
        time, is not coming after all."""
        self._free_at = self._undo

    def send(self, pkt: Packet) -> bool:
        sim = self.sim
        sim.post(self.arrival(sim._now, pkt.wire_size), -1, self.link.send,
                 (pkt,))
        return True


class Dumbbell:
    """A two-router dumbbell with per-flow sender/receiver host pairs.

    Parameters mirror the paper: ``bottleneck_bps`` link rate and ``rtt_s``
    total two-way propagation delay (split evenly over the two directions of
    the bottleneck).  ``queue_pkts`` sizes the bottleneck buffer in units of
    MSS-sized wire packets; the default approximates one bandwidth-delay
    product plus slack, a standard emulation choice.
    """

    ACCESS_BPS = 1e9
    ACCESS_DELAY_S = 25e-6

    def __init__(self, sim: Simulator, *,
                 bottleneck_bps: float = PAPER_BOTTLENECK_BPS,
                 rtt_s: float = PAPER_RTT_S,
                 mss: int = PAPER_MSS,
                 queue_pkts: int = 64):
        self.sim = sim
        self.bottleneck_bps = bottleneck_bps
        self.rtt_s = rtt_s
        self.mss = mss
        one_way = max(rtt_s / 2.0 - 2 * self.ACCESS_DELAY_S, 0.0)
        qbytes = queue_pkts * (mss + 40)

        self.left = Router(sim, address=1, name="L")
        self.right = Router(sim, address=2, name="R")
        self.forward = Link(sim, bottleneck_bps, one_way, self.right,
                            queue_bytes=qbytes, name="bottleneck-fwd")
        self.backward = Link(sim, bottleneck_bps, one_way, self.left,
                             queue_bytes=qbytes, name="bottleneck-bwd")
        self._next_addr = 10
        self._hosts: list[Host] = []
        self.cross_ports: list[CrossPort] = []

    # ------------------------------------------------------------------
    def add_flow_hosts(self, name: str = "") -> tuple[Host, Host]:
        """Create a (sender, receiver) host pair across the bottleneck.

        The sender sits left, the receiver right; both directions are wired
        so acknowledgements flow back through the reverse bottleneck link.
        """
        sender = Host(self.sim, self._next_addr, name=f"{name}-snd")
        receiver = Host(self.sim, self._next_addr + 1, name=f"{name}-rcv")
        self._next_addr += 2

        up = Link(self.sim, self.ACCESS_BPS, self.ACCESS_DELAY_S, self.left,
                  name=f"{sender.name}-up")
        down = Link(self.sim, self.ACCESS_BPS, self.ACCESS_DELAY_S, receiver,
                    name=f"{receiver.name}-down")
        r_up = Link(self.sim, self.ACCESS_BPS, self.ACCESS_DELAY_S, self.right,
                    name=f"{receiver.name}-up")
        s_down = Link(self.sim, self.ACCESS_BPS, self.ACCESS_DELAY_S, sender,
                      name=f"{sender.name}-down")

        sender.attach_uplink(up)
        receiver.attach_uplink(r_up)
        # Left router: traffic to the receiver crosses the bottleneck;
        # traffic back to the sender exits on its access link.
        self.left.add_route(receiver.address, self.forward)
        self.left.add_route(sender.address, s_down)
        self.right.add_route(sender.address, self.backward)
        self.right.add_route(receiver.address, down)

        self._hosts.extend((sender, receiver))
        return sender, receiver

    def add_cross_port(self, name: str = "") -> CrossPort:
        """A port for one one-way cross flow, in place of
        :meth:`add_flow_hosts`: it takes the pair's two addresses, and
        packets for the second end at router R."""
        port = CrossPort(self.sim, self._next_addr, self.forward,
                         access_bps=self.ACCESS_BPS,
                         access_delay_s=self.ACCESS_DELAY_S, name=name)
        self._next_addr += 2
        self.right.add_route(port.peer_address, port.egress)
        self.cross_ports.append(port)
        return port

    # ------------------------------------------------------------------
    @property
    def bottleneck_queue(self):
        """Forward-direction bottleneck queue (where congestion lives)."""
        return self.forward.queue

    def utilization(self, duration_s: float) -> float:
        """Mean forward bottleneck utilisation over ``duration_s``."""
        if duration_s <= 0:
            return 0.0
        return (self.forward.bytes_sent * 8.0
                / (self.bottleneck_bps * duration_s))
