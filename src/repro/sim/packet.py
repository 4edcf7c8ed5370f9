"""Packet model shared by every protocol in the reproduction.

A single slotted class keeps the hot path cheap (millions of packets per
experiment) while still carrying everything the paper's mechanisms need:

* ``marked`` -- IQ-RUDP sender priority marking: a *marked* packet requires
  reliable delivery, an *unmarked* one may be lost or deliberately discarded
  (paper section 2.1, adaptive reliability).
* ``tagged`` -- the conflict experiment (section 3.3) tags every fifth
  application datagram as control information that must reach the display.
* ``attrs`` -- quality attributes piggybacked on data, the application ->
  transport information flow at the heart of the coordination schemes.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Any

__all__ = ["PacketKind", "Packet", "HEADER_BYTES", "ACK_BYTES"]

#: Transport+IP header overhead charged to every data packet on the wire.
HEADER_BYTES = 40
#: Wire size of a pure acknowledgement.
ACK_BYTES = 40


class PacketKind(IntEnum):
    """Distinguishes transport segment roles on the wire."""

    DATA = 0
    ACK = 1
    SYN = 2
    SYNACK = 3
    FIN = 4


class Packet:
    """One datagram in flight.

    ``size`` is the payload size in bytes; the wire occupies
    ``size + HEADER_BYTES``.  ``seq`` numbers are in *packets* for RUDP (the
    paper's window is packet-based) and in packets-of-MSS for our TCP.
    """

    __slots__ = (
        "flow_id", "kind", "seq", "ack", "size", "wire_size", "src", "dst",
        "sport", "dport", "created_at", "sent_at", "marked", "tagged",
        "frame_id", "retransmit", "attrs", "ecn", "sack", "skip",
        "last_of_frame", "fec", "deadline",
    )

    # Keywords work everywhere; the per-packet sites (segmentation, ACKs,
    # cross traffic) pass positionally, which halves the call's cost.
    def __init__(self, flow_id: int, kind: PacketKind = PacketKind.DATA,
                 seq: int = 0, ack: int = -1, size: int = 0,
                 src: int = 0, dst: int = 0, sport: int = 0, dport: int = 0,
                 created_at: float = 0.0, marked: bool = True,
                 tagged: bool = False, frame_id: int = -1,
                 attrs: dict[str, Any] | None = None):
        self.flow_id = flow_id
        self.kind = kind
        self.seq = seq
        self.ack = ack
        self.size = size
        # Precomputed slot, not a property: links/queues read it several
        # times per packet and the attribute saves a descriptor call each
        # time.  The rare code that rewrites ``size`` after construction
        # (the skip-segment path in transport/base.py) must keep it in sync.
        self.wire_size = size + HEADER_BYTES
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.created_at = created_at
        self.sent_at = created_at
        self.marked = marked
        self.tagged = tagged
        self.frame_id = frame_id
        self.retransmit = 0
        self.attrs = attrs
        self.ecn = False
        self.sack = None
        # ``skip`` marks a zero-payload hole-fill segment: the sender decided
        # (adaptive reliability) not to retransmit a lost unmarked datagram
        # and tells the receiver to advance past its sequence number.
        self.skip = False
        # True on the final segment of an application frame; lets the
        # receiver time frame completions for inter-arrival metrics.
        self.last_of_frame = True
        # Non-None only on FEC repair segments: (generation id, stripe
        # index, covered-member metadata).  Data packets never set it, so
        # the disarmed receive path pays a single ``is None`` check.
        self.fec = None
        # Absolute simulation time after which the segment's frame is
        # stale; 0.0 means no deadline (deadline-aware scheduling off).
        self.deadline = 0.0

    def copy(self) -> "Packet":
        """Shallow duplicate used for retransmissions: a fresh wire image
        of the segment (``sent_at``, ``ecn`` and ``sack`` start over, as
        from the constructor).  Copies slot by slot -- one per transmission,
        so the constructor's call frame is worth skipping;
        ``tests/test_packet.py`` fails if a slot is ever left out."""
        p = object.__new__(Packet)
        p.flow_id = self.flow_id
        p.kind = self.kind
        p.seq = self.seq
        p.ack = self.ack
        p.size = size = self.size
        p.wire_size = size + HEADER_BYTES
        p.src = self.src
        p.dst = self.dst
        p.sport = self.sport
        p.dport = self.dport
        p.created_at = p.sent_at = self.created_at
        p.marked = self.marked
        p.tagged = self.tagged
        p.frame_id = self.frame_id
        p.retransmit = self.retransmit
        p.attrs = self.attrs
        p.ecn = False
        p.sack = None
        p.skip = self.skip
        p.last_of_frame = self.last_of_frame
        p.fec = self.fec
        p.deadline = self.deadline
        return p

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join((
            "M" if self.marked else "u",
            "T" if self.tagged else "-",
            f"R{self.retransmit}" if self.retransmit else "",
        ))
        return (f"<Pkt f{self.flow_id} {self.kind.name} seq={self.seq} "
                f"ack={self.ack} {self.size}B {flags}>")
