"""The one windowed connection: RUDP, IQ-RUDP and (:mod:`.tcp`) TCP.

Paper terminology (end of section 2.1): "the term RUDP is used to denote the
basic reliable and adaptive transport functionality of IQ-RUDP, whereas the
term IQ-RUDP refers to the coordination schemes".  RUDP exports metrics and
fires application callbacks under the empty coordination law ``"rudp"``;
IQ-RUDP is the connection under ``"iq"``; TCP is its Reno row without EACK.
"""

from __future__ import annotations

from typing import Callable

from ..core.attributes import AttributeService
from ..core.callbacks import CallbackRegistry, ThresholdCallback
from ..sim.engine import Simulator
from ..sim.node import Host
from ..sim.packet import Packet
from .base import WindowedReceiver, WindowedSender
from .cc import CongestionControl
from .fec import FecConfig, FecReceiver, FecSender, FecState
from .lda import LdaCC
from .reliability import LossTolerantReliability

__all__ = ["RudpConnection"]


class RudpConnection:
    """A one-directional flow: the paper's applications are one-way
    senders, so a sender/receiver pair models the connection.

    Parameters of note
    ------------------
    loss_tolerance : receiver loss tolerance in [0, 1]; ``None`` keeps full
        reliability (no skips).
    cc : override the congestion law (e.g. ``FixedWindowCC`` for Table 1's
        CC-disabled row); default :attr:`default_cc`.
    law : coordination law, a :data:`~repro.core.coordination.LAWS` row:
        ``"rudp"`` (the default), ``"iq"`` for IQ-RUDP or an ``iq_no*``
        ablation.  With ``fec=`` the IQ laws also own the repair redundancy
        (``ADAPT_FEC``, per-period loss telemetry, stalls).
    fec : a :class:`~repro.transport.fec.FecConfig` arms the block/
        interleaved XOR repair tier on both endpoints (``None``, the
        default, leaves every code path bit-identical to pre-FEC RUDP).
    """

    #: The congestion law when ``cc`` is None.
    default_cc: type[CongestionControl] = LdaCC
    #: Whether the receiver's ACKs advertise out-of-sequence arrivals (the
    #: EACK the sender repairs from).
    eack = True

    def __init__(self, sim: Simulator, sender_host: Host, receiver_host: Host,
                 *, port: int = 6001, mss: int = 1400,
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
        flow_id = sim.next_flow_id()
        self.service = AttributeService()
        self.callbacks = CallbackRegistry()
        self.receiver = WindowedReceiver(
            sim, receiver_host, port=port, peer_addr=sender_host.address,
            peer_port=port, flow_id=flow_id, on_deliver=on_deliver,
            use_eack=self.eack)
        self.sender = WindowedSender(
            sim, sender_host, port=port, peer_addr=receiver_host.address,
            peer_port=port, cc=cc if cc is not None else self.default_cc(),
            mss=mss, law=law, reliability=(
                None if loss_tolerance is None
                else LossTolerantReliability(loss_tolerance)),
            callbacks=self.callbacks, service=self.service,
            metric_period=metric_period, flow_id=flow_id,
            on_complete=on_complete, on_space=on_space,
            rto_jitter=rto_jitter, rto_rng=rto_rng,
            stall_threshold=stall_threshold)
        self.coordinator = self.sender.coordinator
        # Mechanism (3) rides on ``marked=``; attributes ride on ``attrs=``
        # (this is ``cmwritev_attr``): the sender's own ``submit``.
        self.submit = self.sender.submit
        self.finish = self.sender.finish
        self.fec: FecState | None = None
        if fec is not None:
            self.fec = state = FecState(FecConfig.parse(fec))
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

    @property
    def completed(self) -> bool:
        return self.sender.completed
