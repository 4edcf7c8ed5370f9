"""Hosts and routers.

Addressing is deliberately small: nodes carry integer addresses, hosts demux
on destination port, routers forward on a static next-hop table.  That is all
a dumbbell reproduction needs, and it keeps the per-packet cost low.
"""

from __future__ import annotations

from typing import Callable, Protocol

from .engine import Simulator
from .link import Link
from .packet import Packet

__all__ = ["Endpoint", "Host", "Router"]


class Endpoint(Protocol):
    """A transport endpoint bound to a host port."""

    def receive(self, pkt: Packet) -> None: ...


class Host:
    """End system: owns transport endpoints, sends via its access link."""

    def __init__(self, sim: Simulator, address: int, name: str = ""):
        self.sim = sim
        self.address = address
        self.name = name or f"host{address}"
        self._ports: dict[int, Endpoint] = {}
        self._uplink = None     # a hop: ``send(pkt) -> bool``
        self.packets_received = 0
        self.no_route_drops = 0

    # ------------------------------------------------------------------
    def attach_uplink(self, link) -> None:
        """Set the (single) egress hop toward the network.  The host then
        sends through it directly: ``send`` is the hop's own."""
        self._uplink = link
        self.send = link.send

    def bind(self, port: int, endpoint: Endpoint) -> None:
        """Register ``endpoint`` to receive packets addressed to ``port``."""
        if port in self._ports:
            raise ValueError(f"port {port} already bound on {self.name}")
        self._ports[port] = endpoint

    # ------------------------------------------------------------------
    def send(self, pkt: Packet) -> bool:
        """Transmit toward the network: a host with an uplink sends through
        that hop's ``send`` (:meth:`attach_uplink`), False when its queue
        drops.  This is the host without one: False, a no-route drop."""
        self.no_route_drops += 1
        return False

    def receive(self, pkt: Packet) -> None:
        """Deliver an arriving packet to the endpoint bound on its port."""
        self.packets_received += 1
        try:
            ep = self._ports[pkt.dport]
        except KeyError:
            return      # an unbound port sinks it, like a closed UDP port
        ep.receive(pkt)


class Router:
    """Static-routing store-and-forward router.

    A link built with ``ahead=True`` asks at departure instead of sending
    an arrival event: it offers packet and arrival instant to the route's
    own ``book`` (``_book``, by destination) and counts a packet booked
    there as ``forwarded`` at once; :meth:`withdraw` takes that back.
    Routes are static: an address is routed once, so a hop may hold the
    answer for its peer.
    """

    def __init__(self, sim: Simulator, address: int, name: str = ""):
        self.sim = sim
        self.address = address
        self.name = name or f"router{address}"
        self._routes: dict[int, Link] = {}
        self._book: dict[int, Callable[[Packet, float], bool] | None] = {}
        self._default: Link | None = None
        self.forwarded = 0
        self.no_route_drops = 0

    def add_route(self, dst_address: int, link: Link) -> None:
        """Packets destined to ``dst_address`` leave on ``link``."""
        if dst_address in self._routes:
            raise ValueError(f"{self.name}: address {dst_address} is "
                             f"already routed")
        self._routes[dst_address] = link
        self._book[dst_address] = getattr(link, "book", None)

    def set_default_route(self, link: Link) -> None:
        self._default = link

    def receive(self, pkt: Packet) -> None:
        link = self._routes.get(pkt.dst)
        if link is None:
            link = self._default
            if link is None:
                self.no_route_drops += 1
                return
        self.forwarded += 1
        link.send(pkt)

    def withdraw(self, pkt: Packet, at: float) -> None:
        """``pkt``, booked at its route to arrive at ``at``, will not: undo
        the booking and its count."""
        self.forwarded -= 1
        self._routes[pkt.dst].unbook(pkt, at)
