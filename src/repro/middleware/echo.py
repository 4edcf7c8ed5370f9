"""IQ-ECho middleware: event channels over IQ-RUDP.

ECho is a publish/subscribe event middleware; IQ-ECho extends it with
quality attributes so applications can coordinate with the IQ-RUDP
transport underneath.  This module is the public-API veneer a downstream
user programs against:

* :class:`EventChannel` -- a typed, one-to-many-ish channel (the paper's
  experiments use one subscriber; fan-out is modelled as parallel channels,
  matching "a content delivery server that uses multiple unicast streams to
  multicast").
* :meth:`EventChannel.cmwritev_attr` -- the paper's send-with-attributes
  entry point ("Attributes are usually carried either as parameters to
  IQ-RUDP's API for sending, CMwritev_attr(), or as an IQ-RUDP connection
  state variable").

Subscribers receive whole application events (frames), assembled from the
in-order segment stream.
"""

from __future__ import annotations

from typing import Callable

from ..core.attributes import AttributeSet
from ..sim.engine import Simulator
from ..sim.packet import Packet

__all__ = ["Event", "EventChannel"]


class Event:
    """A received application event (one frame)."""

    __slots__ = ("frame_id", "size", "submitted_at", "completed_at",
                 "segments", "tagged_segments")

    def __init__(self, frame_id: int, size: int, submitted_at: float,
                 completed_at: float, segments: int, tagged_segments: int):
        self.frame_id = frame_id
        self.size = size
        self.submitted_at = submitted_at
        self.completed_at = completed_at
        self.segments = segments
        self.tagged_segments = tagged_segments

    @property
    def latency(self) -> float:
        return self.completed_at - self.submitted_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Event frame={self.frame_id} {self.size}B "
                f"latency={self.latency*1e3:.1f}ms>")


class EventChannel:
    """Bridges an application to a transport connection.

    Construct with an open connection (Tcp, or Rudp under any law) whose
    receiver-side ``on_deliver`` you have pointed at :meth:`on_deliver` (the
    experiment and example builders in :mod:`repro.experiments.common` do).
    """

    def __init__(self, sim: Simulator, conn, name: str = "channel"):
        self.sim = sim
        self.conn = conn
        self.name = name
        self._subs: list[Callable[[Event], None]] = []
        self._partial: dict[int, list[Packet]] = {}
        self.events_submitted = 0
        self.events_delivered = 0
        self._next_frame = 0

    # ------------------------------------------------------------------
    # Source side
    # ------------------------------------------------------------------
    def cmwritev_attr(self, size: int, attrs: AttributeSet | None = None, *,
                      marked: bool = True, tagged: bool = False,
                      deadline_s: float | None = None) -> int:
        """Submit one event of ``size`` bytes with piggybacked quality
        attributes; returns the event's frame id.

        ``deadline_s`` is the event's delivery budget from now: the
        transport abandons whatever is still untransmitted once it passes
        (deadline-aware frame scheduling).  ``None`` means no deadline.
        """
        frame_id = self._next_frame
        self._next_frame += 1
        deadline = self.sim.now + deadline_s if deadline_s else 0.0
        self.conn.submit(size, marked=marked, tagged=tagged,
                         frame_id=frame_id, attrs=attrs, deadline=deadline)
        self.events_submitted += 1
        return frame_id

    def submit(self, size: int, **kw) -> int:
        """Attribute-free convenience alias for :meth:`cmwritev_attr`."""
        return self.cmwritev_attr(size, None, **kw)

    def close(self) -> None:
        self.conn.finish()

    # ------------------------------------------------------------------
    # Sink side
    # ------------------------------------------------------------------
    def subscribe(self, handler: Callable[[Event], None]) -> None:
        self._subs.append(handler)

    def on_deliver(self, pkt: Packet, now: float) -> None:
        """Wire as the connection receiver's delivery callback."""
        parts = self._partial.setdefault(pkt.frame_id, [])
        parts.append(pkt)
        if pkt.last_of_frame:
            del self._partial[pkt.frame_id]
            ev = Event(
                frame_id=pkt.frame_id,
                size=sum(p.size for p in parts),
                submitted_at=min(p.created_at for p in parts),
                completed_at=now,
                segments=len(parts),
                tagged_segments=sum(1 for p in parts if p.tagged),
            )
            self.events_delivered += 1
            for fn in self._subs:
                fn(ev)
