"""Receiver-side delivery log and metric extraction.

Records every in-order delivery the transport hands up and converts to
NumPy arrays once, at analysis time (vectorise at the edge).  All of the
paper's receiver metrics come from here:

* duration / throughput (Tables 1-8),
* packet and message inter-arrival means and jitters (std deviations),
* tagged-message delay/jitter (Tables 3-4),
* per-packet jitter series (Figures 2-3),
* percentage of messages delivered (Tables 3-4).
"""

from __future__ import annotations

import numpy as np

from ..sim.packet import Packet

__all__ = ["DeliveryLog"]


class DeliveryLog:
    """Append-only log of delivered packets; wire as ``on_deliver``."""

    def __init__(self) -> None:
        self._t: list[float] = []
        self._size: list[int] = []
        self._tagged: list[bool] = []
        self._frame: list[int] = []
        self._last: list[bool] = []
        self._created: list[float] = []
        self.first_time: float | None = None
        self.last_time: float | None = None

    # ------------------------------------------------------------------
    def on_deliver(self, pkt: Packet, now: float) -> None:
        self._t.append(now)
        self._size.append(pkt.size)
        self._tagged.append(pkt.tagged)
        self._frame.append(pkt.frame_id)
        self._last.append(pkt.last_of_frame)
        self._created.append(pkt.created_at)
        if self.first_time is None:
            self.first_time = now
        self.last_time = now

    def __len__(self) -> int:
        return len(self._t)

    # ------------------------------------------------------------------
    # Array views
    # ------------------------------------------------------------------
    @property
    def times(self) -> np.ndarray:
        return np.asarray(self._t, dtype=np.float64)

    @property
    def sizes(self) -> np.ndarray:
        return np.asarray(self._size, dtype=np.int64)

    @property
    def tagged(self) -> np.ndarray:
        return np.asarray(self._tagged, dtype=bool)

    @property
    def frame_ids(self) -> np.ndarray:
        return np.asarray(self._frame, dtype=np.int64)

    @property
    def created(self) -> np.ndarray:
        return np.asarray(self._created, dtype=np.float64)

    # ------------------------------------------------------------------
    # Derived series
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return int(sum(self._size))

    @property
    def duration(self) -> float:
        """Time from simulation start to the last delivery."""
        return self.last_time if self.last_time is not None else 0.0

    def message_times(self, times: np.ndarray | None = None) -> np.ndarray:
        """Completion times of full application messages (frames): the
        arrival of each frame's last segment.  ``times`` (here and below)
        is :attr:`times` when the caller already built it -- every read of
        the property converts the whole list again."""
        last = np.asarray(self._last, dtype=bool)
        return (self.times if times is None else times)[last]

    def frames_delivered(self) -> int:
        """Distinct application frames with at least one delivered segment.

        This is the *delivered-frame* count the dynamics sweeps build
        goodput from: a frame whose droppable (unmarked) segments were
        deliberately shed still reached the receiver in degraded form and
        counts, whereas :meth:`message_times` counts one entry per
        *submitted message* -- per datagram under per-datagram marking --
        and would score an intentional quality adaptation as lost goodput.
        """
        ids = self.frame_ids
        ids = ids[ids >= 0]
        return int(np.unique(ids).size)

    def tagged_times(self, times: np.ndarray | None = None) -> np.ndarray:
        return (self.times if times is None else times)[self.tagged]

    def interarrivals(self, times: np.ndarray | None = None) -> np.ndarray:
        t = self.times if times is None else times
        return np.diff(t) if t.size > 1 else np.empty(0)

    def one_way_delays(self, times: np.ndarray | None = None) -> np.ndarray:
        """Source-submit to delivery latency per packet (includes transport
        queueing -- the end-to-end delay the end user experiences)."""
        return (self.times if times is None else times) - self.created

    def jitter_series(self) -> np.ndarray:
        """|deviation of inter-arrival from its running mean| per packet --
        the per-packet jitter plotted in Figures 2 and 3."""
        ia = self.interarrivals()
        if ia.size == 0:
            return ia
        means = np.cumsum(ia) / np.arange(1, ia.size + 1)
        return np.abs(ia - means)

    # ------------------------------------------------------------------
    def consistency_violation(self, start: int = 0) -> str | None:
        """Frame-accounting sanity from index ``start`` (incremental, so a
        periodic checker never rescans the whole log).  The parallel lists
        must stay aligned, delivery times must be non-decreasing and never
        precede the packet's creation, and every delivered payload is
        non-empty (skip segments are consumed before they reach the log).
        Returns a description, or None when consistent."""
        n = len(self._t)
        for name in ("_size", "_tagged", "_frame", "_last", "_created"):
            m = len(getattr(self, name))
            if m != n:
                return f"log misaligned: {name} has {m} rows, times has {n}"
        prev = self._t[start - 1] if start > 0 else float("-inf")
        for i in range(start, n):
            t = self._t[i]
            if t < prev:
                return (f"delivery times regress at index {i}: "
                        f"{t!r} < {prev!r}")
            if t < self._created[i]:
                return (f"delivery at index {i} precedes creation: "
                        f"t={t!r} created={self._created[i]!r}")
            if self._size[i] <= 0:
                return (f"non-positive delivered size {self._size[i]} "
                        f"at index {i}")
            prev = t
        return None
