"""Discrete-event network simulation substrate (Emulab substitute).

Public surface: the event engine, packet model, links/queues, nodes and the
dumbbell topology the paper's experiments run on.
"""

from .engine import Event, SimulationError, Simulator
from .link import BernoulliLoss, Link, LossModel
from .node import Host, Router
from .packet import ACK_BYTES, HEADER_BYTES, Packet, PacketKind
from .queues import DropTailQueue, QueueStats, REDQueue
from .rand import RandomStreams
from .topology import PAPER_BOTTLENECK_BPS, PAPER_MSS, PAPER_RTT_S, Dumbbell

__all__ = [
    "Event", "SimulationError", "Simulator",
    "BernoulliLoss", "Link", "LossModel",
    "Host", "Router",
    "ACK_BYTES", "HEADER_BYTES", "Packet", "PacketKind",
    "DropTailQueue", "QueueStats", "REDQueue",
    "RandomStreams",
    "PAPER_BOTTLENECK_BPS", "PAPER_MSS", "PAPER_RTT_S", "Dumbbell",
]
