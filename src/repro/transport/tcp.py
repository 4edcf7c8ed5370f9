"""TCP Reno, the paper's baseline (Tables 1/2) and the fairness test's
competing cross flow: the one windowed connection under :class:`RenoCC`,
full reliability, the empty coordination law and cumulative ACKs only, so
its loss repair is NewReno's.
"""

from __future__ import annotations

from .cc import RenoCC
from .rudp import RudpConnection

__all__ = ["TcpConnection"]


class TcpConnection(RudpConnection):
    """A one-directional TCP Reno flow (see :class:`RudpConnection`)."""

    default_cc = RenoCC
    eack = False

    def __init__(self, sim, sender_host, receiver_host, *, port: int = 5001,
                 **kw):
        super().__init__(sim, sender_host, receiver_host, port=port, **kw)
