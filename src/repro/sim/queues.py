"""Router/link queues.

The bottleneck drop-tail queue is where every effect the paper measures is
born: loss ratios trigger the adaptation callbacks, and queueing delay is the
delay/jitter the tables report.  The implementation therefore keeps precise
drop and occupancy accounting.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..obs.bus import NULL_BUS
from ..obs.events import PACKET_DROP, QUEUE_DEPTH
from .packet import Packet

__all__ = ["DropTailQueue", "QueueStats"]


class QueueStats:
    """Arrival/drop/occupancy counters for one queue."""

    __slots__ = ("arrivals", "departures", "drops", "bytes_in", "bytes_dropped",
                 "peak_bytes", "peak_packets", "flushed")

    def __init__(self) -> None:
        self.arrivals = 0
        self.departures = 0
        self.drops = 0
        self.bytes_in = 0
        self.bytes_dropped = 0
        self.peak_bytes = 0
        self.peak_packets = 0
        self.flushed = 0


class DropTailQueue:
    """FIFO byte-budget queue with tail drop.

    ``capacity_bytes`` bounds total queued wire bytes -- the classic router
    buffer model.  A packet that does not fit is dropped in its entirety.
    ``on_drop`` (if given) observes each dropped packet, which the failure
    injection tests and monitors use.

    ``__slots__`` keeps instances compact and attribute access cheap --
    every packet the simulation forwards crosses :meth:`push`/:meth:`pop`.
    """

    __slots__ = ("capacity_bytes", "on_drop", "_q", "_bytes", "stats",
                 "trace", "name", "spans", "link")

    def __init__(self, capacity_bytes: int,
                 on_drop: Callable[[Packet], None] | None = None):
        if capacity_bytes <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.on_drop = on_drop
        self._q: deque[Packet] = deque()
        self._bytes = 0
        self.stats = QueueStats()
        # The owning Link rebinds these; standalone queues stay unreported.
        # They live here because a queue drop is decided here.
        self.trace = NULL_BUS
        self.name = "queue"
        self.spans = None
        self.link = None

    def __len__(self) -> int:
        return len(self._q)

    @property
    def bytes(self) -> int:
        """Wire bytes currently queued."""
        return self._bytes

    @property
    def empty(self) -> bool:
        return not self._q

    def push(self, pkt: Packet) -> bool:
        """Enqueue ``pkt``; returns False (and drops) when full."""
        st = self.stats
        wire = pkt.wire_size
        st.arrivals += 1
        new_bytes = self._bytes + wire
        if new_bytes > self.capacity_bytes:
            st.drops += 1
            st.bytes_dropped += wire
            return self._dropped(pkt, "queue")
        q = self._q
        q.append(pkt)
        self._bytes = new_bytes
        st.bytes_in += wire
        if new_bytes > st.peak_bytes:
            st.peak_bytes = new_bytes
        if len(q) > st.peak_packets:
            self._new_peak()
        return True

    def _new_peak(self) -> None:
        """The queue holds more packets than ever: count the peak, and
        report it.  Emitting only on new occupancy peaks keeps the event
        count O(peak) rather than O(packets)."""
        pkts = len(self._q)
        self.stats.peak_packets = pkts
        tr = self.trace
        if tr.enabled:
            tr.emit("net", QUEUE_DEPTH, queue=self.name, pkts=pkts,
                    bytes=self._bytes, capacity=self.capacity_bytes)

    def _dropped(self, pkt: Packet, kind: str) -> bool:
        """Report a drop once, where it was decided: the lineage's packet
        hook, the bus, then the ``on_drop`` observer.  Returns False, the
        verdict ``push`` hands back."""
        sp = self.spans
        if sp is not None:
            sp.on_drop(pkt, self.name, kind)
        tr = self.trace
        if tr.recording:
            tr.cold("net", PACKET_DROP, link=self.name, kind=kind,
                    flow=pkt.flow_id, pkt=pkt.seq, size=pkt.wire_size,
                    queued_pkts=len(self._q), queued_bytes=self._bytes)
        if self.on_drop is not None:
            self.on_drop(pkt)
        return False

    def pop(self) -> Packet:
        """Dequeue the head-of-line packet."""
        pkt = self._q.popleft()
        self._bytes -= pkt.wire_size
        self.stats.departures += 1
        return pkt

    def set_capacity(self, capacity_bytes: int) -> None:
        """Resize the buffer mid-run (router reconfiguration / handover to
        a shallower-buffered path).  Already-queued packets are never
        evicted; a shrunken queue just drops new arrivals until it drains
        below the new budget."""
        if capacity_bytes <= 0:
            raise ValueError("queue capacity must be positive")
        link = self.link
        if link is not None:
            link._read_trains()         # what has arrived met the old budget
            if capacity_bytes < self.capacity_bytes:
                link._take_back()       # booked against the larger budget
        self.capacity_bytes = capacity_bytes

    def clear(self) -> None:
        self._q.clear()
        self._bytes = 0

    def flush(self) -> int:
        """Discard every queued packet, *accounting* for the discard (the
        ``flushed`` counter) so datagram conservation still balances.  Used
        when a link fails with packets queued.  Returns the packet count."""
        n = len(self._q)
        self.stats.flushed += n
        self._q.clear()
        self._bytes = 0
        return n

    def telemetry_probe(self) -> dict[str, float]:
        """Read-only occupancy/drop snapshot for the telemetry recorder."""
        return {"pkts": float(len(self._q)), "bytes": float(self._bytes),
                "drops": float(self.stats.drops)}

    def conservation_violation(self) -> str | None:
        """Datagram conservation at this queue: every arrival must be
        queued, departed, dropped, or flushed.  Returns a description of
        the imbalance, or None when the books balance."""
        st = self.stats
        accounted = st.departures + st.drops + st.flushed + len(self._q)
        if st.arrivals != accounted:
            return (f"queue conservation: arrivals={st.arrivals} != "
                    f"departures={st.departures} + drops={st.drops} + "
                    f"flushed={st.flushed} + queued={len(self._q)}")
        if self._bytes < 0:
            return f"queued byte count negative ({self._bytes})"
        return None
