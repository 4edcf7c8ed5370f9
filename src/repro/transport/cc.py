"""Congestion-control strategies for the windowed transports.

The sender machinery in :mod:`repro.transport.base` is congestion-control
agnostic; the strategy object owns the window.  Three laws matter for the
paper:

* :class:`RenoCC` -- classic TCP AIMD with slow start and fast recovery, the
  baseline in Tables 1 and 2 and the cross-traffic competitor in Table 2.
* :class:`LdaCC` (in :mod:`repro.transport.lda`) -- the Loss-Delay
  Adjustment-style smooth law RUDP/IQ-RUDP use ("IQ-RUDP implements TCP-like
  congestion control using an algorithm resembling LDA", section 2).
* :class:`FixedWindowCC` -- congestion control *disabled*, used for the
  "application adaptation only" row of Table 1.

Coordination hooks enter through :meth:`CongestionControl.scale_window`: the
IQ-RUDP engine multiplies the window when the application reports a
resolution adaptation (sections 3.4/3.5).
"""

from __future__ import annotations

import abc

__all__ = ["CongestionControl", "RenoCC", "FixedWindowCC"]


class CongestionControl(abc.ABC):
    """Interface between a windowed sender and its congestion law.

    ``cwnd`` is measured in packets (the paper's RUDP window is packet
    based).  It is a float internally; the sender compares in-flight packet
    counts against ``int(cwnd)``.
    """

    #: Senders only schedule epoch ticks for laws that want them.
    needs_epochs = False

    #: False for a law whose window no ACK moves (``on_ack`` does
    #: nothing): the sender then skips that call on every new ACK.
    acks_move_window = True

    def __init__(self, *, initial_cwnd: float = 2.0, min_cwnd: float = 1.0,
                 max_cwnd: float = 1 << 14):
        if not (0 < min_cwnd <= initial_cwnd <= max_cwnd):
            raise ValueError("need 0 < min_cwnd <= initial_cwnd <= max_cwnd")
        self.cwnd = float(initial_cwnd)
        self.min_cwnd = float(min_cwnd)
        self.max_cwnd = float(max_cwnd)
        # Optional ``observer(reason, old_cwnd, new_cwnd)``; notified on
        # *discrete* window events (loss responses, coordination rescales,
        # LDA epochs) -- never per ACK, which would swamp any trace.  The
        # sender wires this only when its simulator is being traced.
        self.observer = None

    def _notify(self, reason: str, old: float) -> None:
        obs = self.observer
        if obs is not None and self.cwnd != old:
            obs(reason, old, self.cwnd)

    # The observer is live wiring (a closure over the trace bus), not part
    # of the congestion state: results shipped between pool workers and the
    # parent pickle without it.
    def __getstate__(self):
        state = dict(self.__dict__)
        state["observer"] = None
        return state

    # -- event hooks ----------------------------------------------------
    @abc.abstractmethod
    def on_ack(self, newly_acked: int) -> None:
        """Cumulative ACK advanced by ``newly_acked`` packets."""

    def on_fast_retransmit(self, inflight: int) -> None:
        """Triple-duplicate-ACK loss detected (entering recovery)."""

    def on_dupack_in_recovery(self) -> None:
        """Further duplicate ACK while in recovery."""

    def on_recovery_exit(self) -> None:
        """Recovery point fully acknowledged."""

    def on_timeout(self, inflight: int) -> None:
        """Retransmission timer fired."""

    def on_epoch(self, sent: int, lost: int, rtt: float) -> None:
        """Per-RTT measurement epoch (only when ``needs_epochs``)."""

    # -- coordination hook -----------------------------------------------
    def scale_window(self, factor: float) -> float:
        """Multiply the window by ``factor`` (IQ-RUDP re-adaptation).

        The factor is clamped to [1/4, 4] per event so a mis-reported
        application attribute cannot blow up or collapse the window in one
        step; the resulting window stays within [min_cwnd, max_cwnd].
        Returns the new window.
        """
        factor = min(max(factor, 0.25), 4.0)
        old = self.cwnd
        self.cwnd = min(max(self.cwnd * factor, self.min_cwnd), self.max_cwnd)
        self._notify("coord_rescale", old)
        return self.cwnd

    def _clamp(self) -> None:
        self.cwnd = min(max(self.cwnd, self.min_cwnd), self.max_cwnd)

    def telemetry_probe(self) -> dict[str, float]:
        """Read-only window state for the telemetry recorder; laws with
        more state (see :class:`~repro.transport.lda.LdaCC`) extend it."""
        return {"cwnd": self.cwnd}

    def bounds_violation(self) -> str | None:
        """Window-bounds invariant: ``min_cwnd <= cwnd <= max_cwnd`` (with
        float slack).  Returns a description, or None when within bounds."""
        eps = 1e-9
        if not (self.min_cwnd - eps <= self.cwnd <= self.max_cwnd + eps):
            return (f"cwnd {self.cwnd!r} outside "
                    f"[{self.min_cwnd!r}, {self.max_cwnd!r}]")
        return None


class RenoCC(CongestionControl):
    """TCP Reno: slow start, congestion avoidance, fast retransmit/recovery.

    The implementation follows RFC 5681 at packet granularity (as in the
    ns-2 lineage of simulators): cwnd += 1 per ACK in slow start,
    += 1/cwnd per ACK in congestion avoidance, halved on fast retransmit
    with the classic +3/+1 inflation during recovery, and collapsed to
    1 MSS on timeout.
    """

    def __init__(self, *, initial_cwnd: float = 2.0,
                 initial_ssthresh: float = 64.0, **kw):
        super().__init__(initial_cwnd=initial_cwnd, **kw)
        self.ssthresh = float(initial_ssthresh)

    def on_ack(self, newly_acked: int) -> None:
        for _ in range(newly_acked):
            if self.cwnd < self.ssthresh:
                self.cwnd += 1.0
            else:
                self.cwnd += 1.0 / self.cwnd
        self._clamp()

    def on_fast_retransmit(self, inflight: int) -> None:
        old = self.cwnd
        self.ssthresh = max(inflight / 2.0, 2.0)
        self.cwnd = self.ssthresh + 3.0
        self._clamp()
        self._notify("fast_retransmit", old)

    def on_dupack_in_recovery(self) -> None:
        self.cwnd += 1.0
        self._clamp()

    def on_recovery_exit(self) -> None:
        old = self.cwnd
        self.cwnd = self.ssthresh
        self._clamp()
        self._notify("recovery_exit", old)

    def on_timeout(self, inflight: int) -> None:
        old = self.cwnd
        self.ssthresh = max(inflight / 2.0, 2.0)
        self.cwnd = self.min_cwnd
        self._clamp()
        self._notify("timeout", old)


class FixedWindowCC(CongestionControl):
    """Constant window: adaptive congestion control disabled.

    Table 1's "application adaptation only" row instruments IQ-RUDP "to
    disable its adaptive congestion window algorithm, but still provide
    performance metrics to the application"; this law is that switch.
    """

    acks_move_window = False

    def __init__(self, window: float = 64.0, **kw):
        super().__init__(initial_cwnd=window, min_cwnd=window,
                         max_cwnd=window, **kw)

    def on_ack(self, newly_acked: int) -> None:
        """Nothing: no ACK moves a fixed window (``acks_move_window``: a
        sender never calls this)."""

    def scale_window(self, factor: float) -> float:
        return self.cwnd  # immutable by construction
