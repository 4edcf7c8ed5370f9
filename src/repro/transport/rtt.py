"""Round-trip-time estimation (RFC 6298 style) with Karn's algorithm.

Shared by TCP and RUDP senders.  The retransmission timeout is the safety net
under both congestion-control laws; the smoothed RTT also feeds the LDA epoch
length and the delay metric IQ-RUDP exposes to applications.
"""

from __future__ import annotations

__all__ = ["RttEstimator"]


class RttEstimator:
    """SRTT/RTTVAR tracker producing a bounded retransmission timeout.

    ``min_rto`` defaults to 200 ms (modern-stack flavour; the RFC's 1 s floor
    would dominate the paper's 30 ms-RTT experiments and mask the effects
    being measured).

    ``rto`` -- the timeout clamped to [min_rto, max_rto] -- is a plain
    attribute, recomputed whenever ``_rto`` or ``_backoff`` changes: the
    sender reads it on every ACK, a sample or a backoff comes far less.
    """

    ALPHA = 0.125
    BETA = 0.25
    K = 4.0

    def __init__(self, *, min_rto: float = 0.2, max_rto: float = 5.0,
                 initial_rto: float = 1.0):
        if min_rto <= 0 or max_rto < min_rto:
            raise ValueError("need 0 < min_rto <= max_rto")
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.srtt: float | None = None
        self.rttvar = 0.0
        self._rto = initial_rto
        self._backoff = 1.0
        self.samples = 0
        self._clamp()

    # ------------------------------------------------------------------
    def sample(self, rtt: float) -> None:
        """Feed one measurement from a never-retransmitted segment (Karn)."""
        if rtt < 0:
            raise ValueError("negative RTT sample")
        srtt = self.srtt
        if srtt is None:
            self.srtt = srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            dev = srtt - rtt    # ``abs``, in line: per ACK
            self.rttvar = ((1 - self.BETA) * self.rttvar
                           + self.BETA * (-dev if dev < 0 else dev))
            self.srtt = srtt = (1 - self.ALPHA) * srtt + self.ALPHA * rtt
        self._rto = rto = srtt + self.K * self.rttvar
        self._backoff = 1.0
        self.samples += 1
        # ``_clamp``, in line (``rto * 1.0`` is ``rto``): per ACK.
        self.rto = (self.min_rto if rto < self.min_rto else self.max_rto
                    if rto > self.max_rto else rto)

    def backoff(self) -> None:
        """Exponential backoff after a retransmission timeout."""
        self._backoff = min(self._backoff * 2.0, 16.0)
        self._clamp()

    def _clamp(self) -> None:
        """``rto``: ``_rto * _backoff`` clamped to [min_rto, max_rto]."""
        self.rto = min(max(self._rto * self._backoff, self.min_rto),
                       self.max_rto)

    @property
    def rtt(self) -> float:
        """Best RTT estimate (initial guess 0.1 s before any sample)."""
        return self.srtt if self.srtt is not None else 0.1
