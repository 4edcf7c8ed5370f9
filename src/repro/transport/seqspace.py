"""Sequence-number bookkeeping helpers.

Python integers never wrap, so unlike a C transport we need no modular
arithmetic; what we do need is tidy bookkeeping of the receive window: which
sequence numbers have arrived out of order, and how far the cumulative point
can advance.  :class:`ReorderBuffer` centralises that so both TCP and RUDP
receivers share one audited implementation.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["ReorderBuffer"]


class ReorderBuffer:
    """Out-of-order packet store keyed by sequence number.

    Tracks ``rcv_nxt`` (the next in-order sequence expected).  ``offer``
    classifies an arriving sequence number; ``drain`` yields the stored
    entries that have become in-order after ``rcv_nxt`` advances.
    """

    def __init__(self, start: int = 0, *, max_buffered: int = 1 << 16):
        self.rcv_nxt = start
        self._buf: dict[int, object] = {}
        self.max_buffered = max_buffered
        self.duplicates = 0

    def __len__(self) -> int:
        return len(self._buf)

    def offer(self, seq: int, item: object) -> str:
        """Classify an arrival: ``"inorder"``, ``"buffered"`` or ``"dup"``.

        ``"inorder"`` means ``seq == rcv_nxt``; the caller consumes *item*
        directly, advances with :meth:`advance`, then drains.
        """
        if seq < self.rcv_nxt or seq in self._buf:
            self.duplicates += 1
            return "dup"
        if seq == self.rcv_nxt:
            return "inorder"
        if len(self._buf) >= self.max_buffered:
            # Receive-window overflow: treat as duplicate/ignored.  With the
            # advertised windows used in the experiments this cannot trigger,
            # but the guard keeps memory bounded under failure injection.
            self.duplicates += 1
            return "dup"
        self._buf[seq] = item
        return "buffered"

    def advance(self) -> None:
        """Move ``rcv_nxt`` past a consumed in-order sequence number."""
        self.rcv_nxt += 1

    def drain(self) -> Iterator[tuple[int, object]]:
        """Yield (seq, item) pairs that are now in-order, advancing as it
        goes.  Stops at the first remaining gap."""
        while self.rcv_nxt in self._buf:
            item = self._buf.pop(self.rcv_nxt)
            seq = self.rcv_nxt
            self.rcv_nxt += 1
            yield seq, item

    def contains(self, seq: int) -> bool:
        """True once *seq* has been consumed or sits buffered out of order
        (the FEC decoder's membership test for repair coverage)."""
        return seq < self.rcv_nxt or seq in self._buf

    def buffered_seqs(self) -> list[int]:
        """Sorted out-of-order sequence numbers currently held (EACK body)."""
        return sorted(self._buf)
