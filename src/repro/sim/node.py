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
        """Set the (single) egress hop toward the network."""
        self._uplink = link

    def bind(self, port: int, endpoint: Endpoint) -> None:
        """Register ``endpoint`` to receive packets addressed to ``port``."""
        if port in self._ports:
            raise ValueError(f"port {port} already bound on {self.name}")
        self._ports[port] = endpoint

    def unbind(self, port: int) -> None:
        self._ports.pop(port, None)

    # ------------------------------------------------------------------
    def send(self, pkt: Packet) -> bool:
        """Transmit toward the network; False when there is no uplink or the
        access queue drops."""
        if self._uplink is None:
            self.no_route_drops += 1
            return False
        return self._uplink.send(pkt)

    def receive(self, pkt: Packet) -> None:
        """Deliver an arriving packet to the endpoint bound on its port."""
        self.packets_received += 1
        ep = self._ports.get(pkt.dport)
        if ep is not None:
            ep.receive(pkt)
        # Unbound ports silently sink the packet, like a closed UDP port.


class Router:
    """Static-routing store-and-forward router.

    A link built with ``ahead=True`` asks at departure instead of sending
    an arrival event: :meth:`arriving` offers packet and arrival instant to
    a route that can ``book`` it, :meth:`withdraw` takes that back.  A
    booked packet counts as ``forwarded`` at once.
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

    def arriving(self, pkt: Packet, at: float) -> bool:
        """``pkt`` will be here at ``at``: True when its route took that
        as the arrival, False when it has to arrive for real."""
        book = self._book.get(pkt.dst)
        if book is None or not book(pkt, at):
            return False
        self.forwarded += 1
        return True

    def withdraw(self, pkt: Packet, at: float) -> None:
        """It will not: undo :meth:`arriving`."""
        self.forwarded -= 1
        self._routes[pkt.dst].unbook(pkt, at)
