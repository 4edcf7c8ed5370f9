"""RUDP: reliable UDP with LDA-style congestion control and adaptive
reliability, *without* coordination.

Paper terminology (end of section 2.1): "the term RUDP is used to denote the
basic reliable and adaptive transport functionality of IQ-RUDP, whereas the
term IQ-RUDP refers to the coordination schemes".  This module is that
baseline: the transport exports metrics and fires application callbacks, but
ignores whatever the application says about its own adaptation: the empty
coordination law ``"rudp"``.  IQ-RUDP is this connection under ``"iq"``.
"""

from __future__ import annotations

from typing import Callable

from ..core.attributes import AttributeService
from ..core.callbacks import CallbackRegistry, ThresholdCallback
from ..sim.engine import Simulator
from ..sim.node import Host
from ..sim.packet import Packet
from .base import WindowedReceiver, WindowedSender, make_flow_id
from .cc import CongestionControl
from .fec import FecConfig, FecReceiver, FecSender, FecState
from .lda import LdaCC
from .reliability import (FullReliability, LossTolerantReliability,
                          ReliabilityPolicy)

__all__ = ["RudpConnection"]


class RudpConnection:
    """A one-directional RUDP flow.

    Parameters of note
    ------------------
    loss_tolerance : receiver loss tolerance in [0, 1]; ``None`` keeps full
        reliability (no skips).
    cc : override the congestion law (e.g. ``FixedWindowCC`` for Table 1's
        CC-disabled row); default LDA.
    law : coordination law, a :data:`~repro.core.coordination.LAWS` row:
        ``"rudp"`` (the default), ``"iq"`` for IQ-RUDP or an ``iq_no*``
        ablation.  With ``fec=`` the IQ laws also own the repair redundancy
        (``ADAPT_FEC``, per-period loss telemetry, stalls).
    fec : a :class:`~repro.transport.fec.FecConfig` arms the block/
        interleaved XOR repair tier on both endpoints (``None``, the
        default, leaves every code path bit-identical to pre-FEC RUDP).
    """

    def __init__(self, sim: Simulator, sender_host: Host, receiver_host: Host,
                 *, port: int = 6001, mss: int = 1400, rwnd: int = 128,
                 metric_period: float = 0.5,
                 loss_tolerance: float | None = None,
                 cc: CongestionControl | None = None,
                 law: str = "rudp",
                 on_deliver: Callable[[Packet, float], None] | None = None,
                 on_complete: Callable[[float], None] | None = None,
                 on_space: Callable[[], None] | None = None,
                 rto_jitter: float = 0.0, rto_rng=None,
                 stall_threshold: int = 0,
                 fec: FecConfig | None = None):
        flow_id = make_flow_id(sim)
        self.service = AttributeService()
        self.callbacks = CallbackRegistry()
        reliability: ReliabilityPolicy
        if loss_tolerance is None:
            reliability = FullReliability()
        else:
            reliability = LossTolerantReliability(loss_tolerance)
        self.receiver = WindowedReceiver(
            sim, receiver_host, port=port, peer_addr=sender_host.address,
            peer_port=port, flow_id=flow_id, on_deliver=on_deliver,
            use_eack=True)
        self.sender = WindowedSender(
            sim, sender_host, port=port, peer_addr=receiver_host.address,
            peer_port=port, cc=cc if cc is not None else LdaCC(),
            mss=mss, reliability=reliability,
            law=law,
            callbacks=self.callbacks, service=self.service,
            metric_period=metric_period, rwnd=rwnd, flow_id=flow_id,
            use_eack=True, on_complete=on_complete, on_space=on_space,
            rto_jitter=rto_jitter, rto_rng=rto_rng,
            stall_threshold=stall_threshold)
        self.coordinator = self.sender.coordinator
        self.fec: FecState | None = None
        if fec is not None:
            fec = FecConfig.parse(fec)
            state = FecState(fec)
            self.fec = state
            self.sender.fec_tx = FecSender(self.sender, state)
            self.receiver.fec = FecReceiver(self.receiver, state)
            # ARQ runs completely unchanged alongside the repair tier
            # (fast retransmit included): when the flow is fast enough
            # for FEC to matter, a generation completes well inside one
            # RTT and the repair wins the race anyway; when it is not,
            # impeding ARQ to favour a repair that cannot help would
            # turn every miss into an RTO stall.

    # ------------------------------------------------------------------
    # Application-facing API (paper section 2.1's three mechanisms)
    # ------------------------------------------------------------------
    def query_metric(self, name: str, default=None):
        """Mechanism (1): query exported network performance metrics."""
        return self.service.query(name, default)

    def register_callbacks(self, *, upper: float, lower: float,
                           on_upper: ThresholdCallback | None = None,
                           on_lower: ThresholdCallback | None = None,
                           edge_triggered: bool = False) -> None:
        """Mechanism (2): register error-ratio threshold callbacks."""
        self.callbacks.register(upper=upper, lower=lower, on_upper=on_upper,
                                on_lower=on_lower,
                                edge_triggered=edge_triggered)

    def submit(self, size: int, **kw) -> int:
        """Mechanism (3) rides on ``marked=``; attributes ride on ``attrs=``
        (this is ``cmwritev_attr``)."""
        return self.sender.submit(size, **kw)

    def finish(self) -> None:
        self.sender.finish()

    @property
    def completed(self) -> bool:
        return self.sender.completed
