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
"""

from __future__ import annotations

from .engine import Simulator
from .link import Link
from .node import Host, Router

__all__ = ["Dumbbell", "PAPER_BOTTLENECK_BPS", "PAPER_RTT_S", "PAPER_MSS"]

#: Paper defaults (section 3.1).
PAPER_BOTTLENECK_BPS = 20e6
PAPER_RTT_S = 0.030
PAPER_MSS = 1400


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
