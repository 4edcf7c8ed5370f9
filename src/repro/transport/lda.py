"""Loss-Delay Adjustment style congestion control for RUDP/IQ-RUDP.

Paper section 2: "IQ-RUDP implements TCP-like congestion control using an
algorithm resembling Loss-Delay Adjustment (LDA)" (Sisalem & Schulzrinne,
NOSSDAV'98).  LDA is epoch based: once per round-trip the sender looks at the
loss ratio observed during the epoch and

* with no loss, increases its window additively (one packet per epoch --
  "the average rate of increase is the same for both protocols", Table 2
  discussion), and
* with loss, decreases *proportionally to the measured loss ratio* instead
  of TCP's blind halving.

The proportional decrease is what gives the paper's IQ-RUDP its "smoother
changes of congestion window" and hence the better delay/jitter in Table 1.
An initial doubling phase mirrors slow start so RUDP is not starved while a
competing TCP ramps up.
"""

from __future__ import annotations

from .cc import CongestionControl

__all__ = ["LdaCC"]


class LdaCC(CongestionControl):
    """Epoch-based loss-proportional window law.

    Parameters
    ----------
    additive_increase : packets added per loss-free epoch.
    loss_sensitivity : multiplier on the epoch loss ratio when decreasing;
        1.0 reproduces "reduce by the loss fraction".
    max_decrease : cap on the per-epoch multiplicative reduction so a burst
        of drop-tail losses cannot zero the window (LDA clamps similarly).
    """

    needs_epochs = True
    acks_move_window = False    # the window moves at epoch boundaries

    #: Epoch floor: LDA adjusts on feedback-report intervals (the original
    #: uses RTCP reports, i.e. a seconds timescale), not per-RTT like TCP's
    #: ACK clock.  The sender uses max(RTT, min_epoch_s) between epochs.
    #: This slow adjustment cadence is load-bearing for the paper's
    #: over-reaction results: window recovery after a cut takes seconds,
    #: which is exactly the gap IQ-RUDP's immediate re-inflation closes.
    DEFAULT_MIN_EPOCH_S = 1.0

    def __init__(self, *, initial_cwnd: float = 2.0,
                 initial_ssthresh: float = 64.0,
                 additive_increase: float = 1.0,
                 loss_sensitivity: float = 1.0,
                 max_decrease: float = 0.5,
                 min_epoch_s: float | None = None,
                 min_cwnd: float = 2.0, **kw):
        super().__init__(initial_cwnd=initial_cwnd, min_cwnd=min_cwnd, **kw)
        self.ssthresh = float(initial_ssthresh)
        self.additive_increase = additive_increase
        self.loss_sensitivity = loss_sensitivity
        self.max_decrease = max_decrease
        self.min_epoch_s = (min_epoch_s if min_epoch_s is not None
                            else self.DEFAULT_MIN_EPOCH_S)
        self.epochs = 0
        self.loss_epochs = 0
        # A loss burst straddles epochs (detection lags ~1 RTT), so after a
        # decrease one epoch of losses is attributed to the same event and
        # does not compound the cut -- the LDA analogue of TCP's
        # one-reduction-per-window rule.
        self._cooldown = 0

    # ------------------------------------------------------------------
    def on_ack(self, newly_acked: int) -> None:
        """Nothing: the window changes only at epoch boundaries and ACKs
        just clock data out (``acks_move_window``: a sender never calls
        this)."""

    def on_epoch(self, sent: int, lost: int, rtt: float) -> None:
        self.epochs += 1
        if sent <= 0:
            return
        old = self.cwnd
        loss_ratio = lost / sent
        if lost == 0:
            self._cooldown = 0
            if self.cwnd < self.ssthresh:
                self.cwnd *= 2.0  # startup ramp, slow-start equivalent
            else:
                self.cwnd += self.additive_increase
        elif self._cooldown > 0:
            self._cooldown -= 1
        else:
            self.loss_epochs += 1
            decrease = min(self.loss_sensitivity * loss_ratio,
                           self.max_decrease)
            self.cwnd *= (1.0 - decrease)
            self._cooldown = 1
            # Leaving startup: future growth is additive.
            self.ssthresh = min(self.ssthresh, self.cwnd)
        self._clamp()
        self._notify("epoch_decrease" if lost else "epoch_increase", old)

    def on_fast_retransmit(self, inflight: int) -> None:
        # Loss is accounted at the epoch boundary; no immediate cut.  This is
        # precisely the "smoother" reaction the paper contrasts with TCP.
        self.ssthresh = min(self.ssthresh, self.cwnd)

    def telemetry_probe(self) -> dict[str, float]:
        probe = super().telemetry_probe()
        probe["epochs"] = float(self.epochs)
        probe["loss_epochs"] = float(self.loss_epochs)
        return probe

    def on_timeout(self, inflight: int) -> None:
        # A timeout means the ACK clock stalled -- collapse and re-enter the
        # doubling ramp toward half the old window (slow-start analogue), so
        # the flow recovers in a few epochs instead of crawling additively.
        old = self.cwnd
        self.ssthresh = max(self.cwnd / 2.0, 4.0)
        self.cwnd = self.min_cwnd
        self._cooldown = 1
        self._clamp()
        self._notify("timeout", old)
