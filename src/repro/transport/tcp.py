"""TCP (Reno) endpoints -- the paper's baseline transport.

Built from the shared windowed machinery with Reno congestion control and
full reliability.  Used standalone in Tables 1/2 and as the competing
cross-flow in the fairness test.
"""

from __future__ import annotations

from typing import Callable

from ..core.attributes import AttributeService
from ..sim.engine import Simulator
from ..sim.node import Host
from ..sim.packet import Packet
from .base import WindowedReceiver, WindowedSender, make_flow_id
from .cc import RenoCC
from .reliability import FullReliability

__all__ = ["TcpConnection"]


class TcpConnection:
    """A one-directional TCP flow between two hosts of a topology.

    The paper's applications are one-way bulk/stream senders; the reverse
    path carries only ACKs, so a single sender/receiver pair models the
    connection.
    """

    def __init__(self, sim: Simulator, sender_host: Host, receiver_host: Host,
                 *, port: int = 5001, mss: int = 1400, rwnd: int = 128,
                 metric_period: float = 0.5,
                 on_deliver: Callable[[Packet, float], None] | None = None,
                 on_complete: Callable[[float], None] | None = None,
                 on_space: Callable[[], None] | None = None,
                 initial_ssthresh: float = 64.0,
                 rto_jitter: float = 0.0, rto_rng=None,
                 stall_threshold: int = 0):
        flow_id = make_flow_id(sim)
        self.service = AttributeService()
        self.receiver = WindowedReceiver(
            sim, receiver_host, port=port, peer_addr=sender_host.address,
            peer_port=port, flow_id=flow_id, on_deliver=on_deliver)
        self.sender = WindowedSender(
            sim, sender_host, port=port, peer_addr=receiver_host.address,
            peer_port=port, cc=RenoCC(initial_ssthresh=initial_ssthresh),
            mss=mss, reliability=FullReliability(), service=self.service,
            metric_period=metric_period, rwnd=rwnd, flow_id=flow_id,
            on_complete=on_complete, on_space=on_space,
            rto_jitter=rto_jitter, rto_rng=rto_rng,
            stall_threshold=stall_threshold)
        self.submit = self.sender.submit

    # Convenience passthroughs (``submit`` is the sender's own) -------------
    def finish(self) -> None:
        self.sender.finish()

    @property
    def completed(self) -> bool:
        return self.sender.completed
