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

Only the two bottlenecks are :class:`Link` objects.  One-way cross traffic
enters through a :class:`CrossPort`, which hands each packet to the forward
bottleneck at the instant its access hop would have (or the bottleneck
reads the packets of a CBR or VBR train itself), and ends at a counter;
a flow host's hops to and from its router are an :class:`UpHop` and a
:class:`DownHop`.  Far ends are *asked at departure* (``Link(ahead=True)``)
and a bottleneck that one up hop alone feeds is *booked when the host
sends*: a datagram costs one event (DESIGN.md section 2, "Planned transit").
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from math import inf
from operator import itemgetter

from ..obs.events import PACKET_DROP, QUEUE_DEPTH
from .engine import SimulationError, Simulator
from .link import Link
from .node import Host, Router
from .packet import Packet
from .queues import QueueStats

__all__ = ["AccessHop", "CrossPort", "DownHop", "Dumbbell", "UpHop",
           "PAPER_BOTTLENECK_BPS", "PAPER_RTT_S", "PAPER_MSS"]

#: Paper defaults (section 3.1).
PAPER_BOTTLENECK_BPS = 20e6
PAPER_RTT_S = 0.030
PAPER_MSS = 1400

#: ``Link``'s default egress buffer, which every access link has.
ACCESS_QUEUE_BYTES = 64 * 1440


class _Egress:
    """Router R's route for a cross flow: the packet ends here, counted --
    booked ahead, once a reader's clock has reached its arrival instant.
    It takes every booking, so a link reading trains never posts."""

    def __init__(self, sim: Simulator, link: Link | None = None) -> None:
        self.sim = sim
        self.link = link
        self._packets = 0
        self._bytes = 0     # payload bytes, as ``UdpSink.bytes_received``
        self._due: deque = deque()      # (arrival instant, size), sorted

    def send(self, pkt: Packet) -> bool:
        self._packets += 1
        self._bytes += pkt.size
        return True

    def book(self, pkt: Packet, at: float) -> bool:
        due = self._due
        if len(due) > 256:
            self._settled()     # nobody reads: keep what is held back small
        if due and at < due[-1][0]:
            insort(due, (at, pkt.size))     # overtakes a booked one
        else:
            due.append((at, pkt.size))
        return True

    def unbook(self, pkt: Packet, at: float) -> None:
        self._due.remove((at, pkt.size))

    def _settled(self) -> "_Egress":
        due = self._due
        now = self.sim._now
        while due and due[0][0] <= now:
            self._packets += 1
            self._bytes += due.popleft()[1]
        return self

    def _read(self) -> "_Egress":
        if self.link is not None:
            self.link._read_trains()    # what has arrived there is booked
        return self._settled()

    packets = property(lambda self: self._read()._packets)
    bytes = property(lambda self: self._read()._bytes)


class AccessHop:
    """An access link's arithmetic: a FIFO at ``access_bps`` plus
    ``access_delay_s`` in ``Link``'s order, its 64-packet queue counted from
    planned starts.  :meth:`arrival` raises where that queue would drop."""

    __slots__ = ("sim", "name", "access_bps", "access_delay_s", "_free_at",
                 "_undo", "_backlog")

    def __init__(self, sim: Simulator, name: str, access_bps: float,
                 access_delay_s: float):
        self.sim = sim
        self.name = name
        self.access_bps = access_bps
        self.access_delay_s = access_delay_s
        self._free_at = self._undo = -inf   # the serialiser falls idle
        # (start, wire bytes) of each packet that waited for the serialiser:
        # a tuple replaced, never changed, so a saved one stays valid.
        self._backlog = ()

    def _occupancy(self, t: float, wire: int) -> tuple[int, int]:
        """Packets and bytes queued at ``t`` with a ``wire``-byte arrival (a
        start at ``t`` still waits: the arrival precedes the completion)."""
        backlog = self._backlog
        if backlog and backlog[0][0] < t:
            self._backlog = backlog = tuple(e for e in backlog if e[0] >= t)
        return len(backlog) + 1, sum(w for _, w in backlog) + wire

    def arrival(self, t: float, wire: int) -> float:
        """When a ``wire``-byte packet offered at ``t`` reaches the far end.
        The order of the two additions is ``Link``'s: ``(start + tx) +
        delay``."""
        start = self._undo = self._free_at
        if t > start:
            start = t
        else:
            queued = self._occupancy(t, wire)[1]
            if queued > ACCESS_QUEUE_BYTES:
                raise SimulationError(
                    f"{self.name}: {queued} bytes queued overflow the "
                    f"access hop's {ACCESS_QUEUE_BYTES}-byte queue; an "
                    f"access hop never drops")
            self._backlog += ((start, wire),)
        self._free_at = free_at = start + wire * 8.0 / self.access_bps
        return free_at + self.access_delay_s

    def last_arrival(self, offers) -> float:
        """When the last of ``offers`` -- ``(t, wire)`` pairs, offered after
        everything so far -- would reach the far end: :meth:`arrival`'s
        arithmetic run on ahead, without its effects (-inf for none)."""
        free, last = self._free_at, -inf
        for t, wire in offers:
            free = (t if t > free else free) + wire * 8.0 / self.access_bps
            last = free + self.access_delay_s
        return last

    def withdraw(self) -> None:
        """Undo the last :meth:`arrival`: its packet, asked about ahead of
        time, is not coming after all."""
        self._free_at = start = self._undo
        if self._backlog and self._backlog[-1][0] == start:
            self._backlog = self._backlog[:-1]      # it had waited


class UpHop(AccessHop):
    """A flow host's access hop to its router: what the uplink ``Link``
    that stood here did, drops and ``stats`` included (``departures`` counts
    a packet as it is accepted), but the arrival of a packet for ``peer``
    is booked at ``feeds``, the bottleneck the router routes ``peer`` to,
    while this hop alone feeds it.  Routes are static, so that answer is
    held, not looked up per packet."""

    __slots__ = ("router", "feeds", "peer", "stats")

    def __init__(self, sim: Simulator, host: Host, router: Router,
                 feeds: Link, peer: int, *, access_bps: float,
                 access_delay_s: float):
        super().__init__(sim, f"{host.name}-up", access_bps, access_delay_s)
        self.router = router
        # A traced run asks nobody: every hop reports where it always did.
        self.feeds = None if sim.bus.enabled else feeds
        self.peer = peer
        self.stats = QueueStats()

    def send(self, pkt: Packet) -> bool:
        sim = self.sim
        now = sim._now
        wire = pkt.wire_size
        st = self.stats
        st.arrivals += 1
        pkts, queued = (self._occupancy(now, wire) if self._backlog
                        else (1, wire))
        if queued > ACCESS_QUEUE_BYTES:
            st.drops += 1
            st.bytes_dropped += wire
            if getattr(sim, "spans", None) is not None:
                sim.spans.on_drop(pkt, self.name, "queue")
            if sim.bus.recording:
                sim.bus.cold("net", PACKET_DROP, link=self.name, kind="queue",
                             flow=pkt.flow_id, pkt=pkt.seq, size=wire,
                             queued_pkts=pkts - 1, queued_bytes=queued - wire)
            return False
        st.departures += 1
        st.bytes_in += wire
        if queued > st.peak_bytes:
            st.peak_bytes = queued
        if pkts > st.peak_packets:
            st.peak_packets = pkts
            if sim.bus.enabled:
                sim.bus.emit("net", QUEUE_DEPTH, queue=self.name, pkts=pkts,
                             bytes=queued, capacity=ACCESS_QUEUE_BYTES)
        start = self._free_at   # ``arrival``, in line: per packet
        if now > start:
            start = now
        else:
            self._backlog += ((start, wire),)
        self._free_at = at = start + wire * 8.0 / self.access_bps
        at += self.access_delay_s
        feeds = self.feeds
        if (pkt.dst == self.peer and feeds is not None
                and feeds.feeders == 1 and feeds.book(pkt, at)):
            self.router.forwarded += 1
        else:
            sim.post(at, -1, self.router.receive, (pkt,))
        return True


class CrossPort(AccessHop):
    """Stands where a one-way flow's sender/receiver host pair stood.

    A ``UdpSender`` binds to it as to a ``Host``: :meth:`send` does the
    access link's arithmetic and posts the packet into ``link`` (the
    forward bottleneck) at the float instant router L would have;
    ``egress`` is the far end.  A CBR or VBR source bound here is a train:
    it runs :meth:`~AccessHop.arrival` itself, and ``link`` reads its
    packets while it can plan (``Link._carry``).
    """

    def __init__(self, sim: Simulator, address: int, link: Link, *,
                 access_bps: float, access_delay_s: float, name: str = ""):
        super().__init__(sim, name or f"port{address}", access_bps,
                         access_delay_s)
        self.address = address
        self.peer_address = address + 1
        self.link = link
        self.egress = _Egress(sim, link)
        self.senders: dict[int, object] = {}

    def bind(self, port: int, endpoint) -> None:
        self.senders[port] = endpoint

    def send(self, pkt: Packet) -> bool:
        sim = self.sim
        sim.post(self.arrival(sim._now, pkt.wire_size), -1, self.link.send,
                 (pkt,))
        return True


class DownHop(AccessHop):
    """A flow host's access hop from its router: what the ``Link`` that
    stood here computed, with one event -- ``Host.receive`` at the host.

    :meth:`send` is a packet arriving at the router now; :meth:`book` the
    bottleneck asking at departure.  The hop is fed by that link alone, so
    a packet promised for ``at`` goes through the FIFO at once, as long as
    bookings are made in arrival order.  What breaks that order takes
    bookings back and lets their packets arrive for real: a packet arriving
    ahead of booked ones (delay lowered, jitter lifted with jittered
    packets in flight) and the link un-planning its promise.
    """

    __slots__ = ("host", "_log", "_last", "_peak")

    def __init__(self, sim: Simulator, host: Host, *, access_bps: float,
                 access_delay_s: float):
        super().__init__(sim, f"{host.name}-down", access_bps,
                         access_delay_s)
        self.host = host
        # Promised packets still to arrive, by arrival instant: (at, event,
        # _free_at, _backlog) -- booked, with ``Host.receive`` posted and
        # the state before it; or taken back, with the real arrival posted
        # and no state.  No list until the first.
        self._log: list | None = None
        self._last = -inf   # nothing more is booked to arrive before this
        self._peak = 0      # the queue's packet peak, on a traced run

    def send(self, pkt: Packet) -> bool:
        sim = self.sim
        now = sim._now
        log = self._log
        if log and log[-1][0] > now:    # ahead of packets booked for later
            self._take_back(bisect_right(log, now, key=itemgetter(0)))
        wire = pkt.wire_size
        tr = sim.bus
        if tr.enabled:      # each new peak, as the link's queue reported
            pkts, queued = self._occupancy(now, wire)
            if pkts > self._peak:
                self._peak = pkts
                tr.emit("net", QUEUE_DEPTH, queue=self.name, pkts=pkts,
                        bytes=queued, capacity=ACCESS_QUEUE_BYTES)
        sim.post(self.arrival(now, wire), -1, self.host.receive, (pkt,))
        return True

    def book(self, pkt: Packet, at: float) -> bool:
        if at < self._last:
            return False    # overtakes a promised one: ``send`` sorts it out
        self._last = at
        log = self._log
        if log is None:
            log = self._log = []
        elif log and log[0][0] < self.sim._now:
            del log[0]      # has arrived; an entry holds packet and event
        free_at, backlog = self._free_at, self._backlog
        if at > free_at:        # ``arrival``, in line: per packet
            self._free_at = t = at + pkt.wire_size * 8.0 / self.access_bps
            t += self.access_delay_s
        else:
            t = self.arrival(at, pkt.wire_size)
        log.append((at, self.sim.post(t, -1, self.host.receive, (pkt,)),
                    free_at, backlog))
        return True

    def _take_back(self, i: int) -> None:
        """Undo the bookings from ``log[i]`` on, earliest last: their
        packets arrive for real."""
        log = self._log
        for j in range(len(log) - 1, i - 1, -1):
            at, ev, free_at, backlog = log[j]
            if free_at is not None:
                self._free_at, self._backlog = free_at, backlog
                ev.cancel()
                log[j] = (at, self.sim.post(at, -1, self.send, ev.args),
                          None, None)

    def unbook(self, pkt: Packet, at: float) -> None:
        log = self._log
        i = next(i for i in reversed(range(len(log)))
                 if log[i][1].args[0] is pkt)    # the last, as a rule
        self._take_back(i)
        log.pop(i)[1].cancel()

    def __getstate__(self):
        """Promises die with the heap: a pickled hop keeps its books."""
        return None, {name: None if name == "_log" else getattr(self, name)
                      for cls in (AccessHop, DownHop) for name in cls.__slots__}


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
        # What leaves a bottleneck ends at a counter or crosses a private
        # access hop: its router is asked at departure.
        self.forward = Link(sim, bottleneck_bps, one_way, self.right,
                            queue_bytes=qbytes, name="bottleneck-fwd",
                            ahead=True)
        self.backward = Link(sim, bottleneck_bps, one_way, self.left,
                             queue_bytes=qbytes, name="bottleneck-bwd",
                             ahead=True)
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

        access = dict(access_bps=self.ACCESS_BPS,
                      access_delay_s=self.ACCESS_DELAY_S)
        # Left router: traffic to the receiver crosses the bottleneck;
        # traffic back to the sender exits on its access link.
        sender.attach_uplink(UpHop(self.sim, sender, self.left, self.forward,
                                   receiver.address, **access))
        receiver.attach_uplink(UpHop(self.sim, receiver, self.right,
                                     self.backward, sender.address, **access))
        down = DownHop(self.sim, receiver, **access)
        s_down = DownHop(self.sim, sender, **access)
        self.left.add_route(receiver.address, self.forward)
        self.left.add_route(sender.address, s_down)
        self.right.add_route(sender.address, self.backward)
        self.right.add_route(receiver.address, down)
        self.forward.add_feeder()
        self.backward.add_feeder()

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
        self.forward.add_feeder()
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
