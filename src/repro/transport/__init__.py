"""Transport protocols: TCP baseline, RUDP, IQ-RUDP, and plain UDP."""

from .base import (DUP_ACK_THRESHOLD, FlowStats, WindowedReceiver,
                   WindowedSender, make_flow_id)
from .cc import CongestionControl, FixedWindowCC, RenoCC
from .fec import FecConfig, FecReceiver, FecSender, FecState
from .lda import LdaCC
from .reliability import (FullReliability, LossTolerantReliability,
                          ReliabilityPolicy)
from .rtt import RttEstimator
from .rudp import RudpConnection
from .seqspace import ReorderBuffer
from .tcp import TcpConnection
from .udp import UdpSender, UdpSink

__all__ = [
    "DUP_ACK_THRESHOLD", "FlowStats", "WindowedReceiver", "WindowedSender",
    "make_flow_id",
    "CongestionControl", "FixedWindowCC", "RenoCC", "LdaCC",
    "FecConfig", "FecReceiver", "FecSender", "FecState",
    "RudpConnection", "TcpConnection",
    "FullReliability", "LossTolerantReliability", "ReliabilityPolicy",
    "RttEstimator", "ReorderBuffer", "UdpSender", "UdpSink",
]
