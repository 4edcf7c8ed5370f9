"""Shared machinery for the windowed, reliable transports.

TCP, RUDP and IQ-RUDP all share one sender/receiver skeleton and differ only
in their pluggable parts:

=================  =====================  ==============================
Part               TCP                    RUDP / IQ-RUDP
=================  =====================  ==============================
Congestion law     :class:`RenoCC`        :class:`LdaCC` (epoch based)
Reliability        full                   loss tolerant (marking/skips)
Coordination law   ``"rudp"`` (empty)     ``"rudp"`` / ``"iq"`` (+ ablations)
ACK                cumulative             cumulative + EACK
=================  =====================  ==============================

The sender is message oriented (the paper's RUDP is datagram based): the
application submits datagrams/frames of arbitrary size, the transport
segments them into MSS packets, numbers packets at *first transmission* (so
locally-discarded unmarked datagrams leave no sequence holes) and provides
in-order reliable delivery with cumulative ACKs, duplicate-ACK fast
retransmit and an RFC 6298 retransmission timer.  Every retransmission
but a timeout's -- fast retransmit, partial ACK, EACK hole -- is one
``WindowedSender._repair``; without an EACK that path is NewReno.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from ..core.attributes import AttributeService, AttributeSet
from ..core.callbacks import CallbackRegistry
from ..obs.events import (ATTR_SENT, CALLBACK_FIRED, CWND_CHANGE,
                          FRAME_ABANDONED, PACKET_ACK, PACKET_RETX,
                          PACKET_SEND)
from ..core.coordination import Coordinator
from ..core.metrics_export import MetricsWindow
from ..sim.engine import Event, Simulator
from ..sim.node import Host
from ..sim.packet import HEADER_BYTES, Packet, PacketKind
from .cc import CongestionControl
from .reliability import FullReliability, ReliabilityPolicy
from .rtt import RttEstimator
from .seqspace import ReorderBuffer

__all__ = ["FlowStats", "WindowedSender", "WindowedReceiver",
           "DUP_ACK_THRESHOLD"]

DUP_ACK_THRESHOLD = 3

_DATA = PacketKind.DATA
_ACK = PacketKind.ACK


class FlowStats:
    """Lifetime counters for one direction of a connection."""

    __slots__ = ("submitted_msgs", "submitted_bytes", "submitted_segments",
                 "discarded_msgs",
                 "discarded_bytes", "packets_sent", "bytes_sent",
                 "retransmissions", "skips_sent", "timeouts",
                 "fast_retransmits", "acked_packets", "acked_bytes",
                 "delivered_packets", "delivered_bytes", "skipped_received",
                 "duplicates", "stalls", "stall_recoveries",
                 "expired_msgs", "expired_bytes")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class WindowedSender:
    """Reliable, congestion-controlled, message-oriented sender endpoint.

    Parameters
    ----------
    sim, host : simulation context and the local host (binds ``port``).
    peer_addr, peer_port : destination address/port.
    cc : congestion-control strategy (owns the window).
    reliability : skip policy for lost unmarked packets.
    law : coordination law, a :data:`~repro.core.coordination.LAWS` row
        (``"rudp"``, the empty law, for plain RUDP and TCP).
    callbacks : threshold-callback registry evaluated each metric period.
    service : attribute service metrics are exported into.
    metric_period : measurement period for exported metrics/callbacks
        (section 3.1's "measuring period").
    rwnd : receiver advertised window in packets (flow control bound).
    rto_jitter : fraction of the RTO added as deterministic random jitter
        (``rto * (1 + rto_jitter * U[0,1))``) so flows that stalled on the
        same outage do not retransmit in lock-step when the link returns.
        Needs ``rto_rng`` (a seeded stream from :mod:`repro.sim.rand`);
        0.0 (the default) disables jitter entirely.
    stall_threshold : consecutive head-of-line timeouts without forward
        progress before the sender declares the path *stalled*: metric
        periods measured while stalled are flagged as blackout (they do
        not drive adaptation callbacks or ADAPT_COND corrections) and the
        coordinator's ``on_stall``/``on_resume`` hooks fire for graceful
        degradation.  0 (the default) disables stall detection.
    """

    #: Span recorder (:class:`repro.obs.spans.SpanRecorder`) installed by
    #: ``watch_flow`` when the scenario arms lineage capture; a class
    #: attribute, so a disarmed packet hook pays one ``is None`` check.
    spans = None

    #: FEC repair coder (:class:`repro.transport.fec.FecSender`) armed by
    #: the connection when a :class:`~repro.transport.fec.FecConfig` is
    #: configured; class attribute so the disarmed pump pays one ``is
    #: None`` check per first transmission and nothing else.
    fec_tx = None

    def __init__(self, sim: Simulator, host: Host, *, port: int,
                 peer_addr: int, peer_port: int, cc: CongestionControl,
                 mss: int = 1400,
                 reliability: ReliabilityPolicy | None = None,
                 law: str = "rudp",
                 callbacks: CallbackRegistry | None = None,
                 service: AttributeService | None = None,
                 metric_period: float = 0.5,
                 rwnd: int = 128,
                 flow_id: int | None = None,
                 on_complete: Callable[[float], None] | None = None,
                 on_space: Callable[[], None] | None = None,
                 rto_jitter: float = 0.0,
                 rto_rng=None,
                 stall_threshold: int = 0):
        if mss <= 0:
            raise ValueError("mss must be positive")
        if rto_jitter < 0:
            raise ValueError("rto_jitter cannot be negative")
        if rto_jitter > 0 and rto_rng is None:
            raise ValueError("rto_jitter needs an rto_rng stream")
        if stall_threshold < 0:
            raise ValueError("stall_threshold cannot be negative")
        self.sim = sim
        self.host = host
        self.port = port
        self.peer_addr = peer_addr
        self.peer_port = peer_port
        self.cc = cc
        self.mss = mss
        self.rwnd = rwnd
        self.flow_id = flow_id if flow_id is not None else sim.next_flow_id()
        self.reliability = reliability or FullReliability()
        self.coordinator = Coordinator(law)
        self.coordinator.bind(self)
        self.callbacks = (callbacks if callbacks is not None
                          else CallbackRegistry())
        self.service = service if service is not None else AttributeService()
        self.rtt = RttEstimator()
        self.metrics = MetricsWindow(metric_period, self.service)
        self.stats = FlowStats()
        self.on_complete = on_complete
        self.on_space = on_space

        # Send state.
        self._pending: deque[Packet] = deque()   # segments awaiting first tx
        self._window: dict[int, Packet] = {}     # seq -> canonical packet
        self.snd_una = 0
        self.snd_nxt = 0
        self._dup_acks = 0
        self._in_recovery = False
        self._recover_point = 0
        self._sacked: set[int] = set()
        # seq -> time of its last ``_repair``; a hole becomes eligible
        # again one RTT after its last repair (lost repairs retry without
        # waiting for the RTO backstop).
        self._repaired: dict[int, float] = {}
        # Lazy retransmission timer (DESIGN.md section 2): the deadline is
        # the truth, the heap entry a wake-up never later than it.  Both
        # are None exactly when nothing is in flight.
        self._rto_deadline: float | None = None
        self._rto_event: Event | None = None
        self._finished = False
        self._completed = False
        self.backlog_bytes = 0
        self.low_water_bytes = 4 * mss

        # Dynamics hardening (inert unless configured; see class docstring).
        self.rto_jitter = rto_jitter
        self._rto_rng = rto_rng
        self.stall_threshold = stall_threshold
        self._consec_timeouts = 0
        self._stalled = False

        # Coordination-visible state.
        self.discard_unmarked = False
        self.last_frame_size = 0

        # True once any submitted segment carried a delivery deadline;
        # config-deterministic, read by the metrics collector to keep
        # deadline counters out of disarmed summaries.
        self.deadline_armed = False

        # Epoch counters (LDA).
        self._epoch_sent = 0
        self._epoch_lost = 0
        self._epoch_max_inflight = 0

        # Cache the bus; with tracing off every per-packet site below is one
        # attribute check.  The cwnd observer is wired only when tracing is
        # on so the congestion laws keep their zero-overhead default.
        tr = sim.bus
        self.trace = tr
        if tr.enabled:
            self.metrics.trace = tr
            self.metrics.flow = self.flow_id

            def _cwnd_observed(reason: str, old: float, new: float,
                               _tr=tr, _flow=self.flow_id) -> None:
                _tr.emit("transport", CWND_CHANGE, flow=_flow,
                         reason=reason, old=old, new=new)

            self.cc.observer = _cwnd_observed

        host.bind(port, self)
        if self.cc.needs_epochs:
            self.sim.schedule(self._epoch_len(), self._epoch_tick)
        self.sim.schedule(metric_period, self._metric_tick)

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def submit(self, size: int, *, marked: bool = True, tagged: bool = False,
               frame_id: int = -1, attrs: AttributeSet | None = None,
               deadline: float = 0.0) -> int:
        """Enqueue one application datagram/frame of ``size`` payload bytes.

        Frames larger than the MSS are segmented; all segments share the
        frame's marking.  Piggybacked ``attrs`` (the ``cmwritev_attr`` path)
        are handed to the coordinator immediately -- the attribute describes
        an adaptation taking effect with this message.  A positive
        ``deadline`` (absolute simulation time) lets the pump abandon the
        frame's untransmitted segments once it passes -- stale media blocks
        the window for nothing.  Returns the number of segments queued.
        """
        if size <= 0:
            raise ValueError("datagram size must be positive")
        if self._finished:
            raise RuntimeError("submit after finish()")
        self.last_frame_size = size
        if attrs:
            tr = self.trace
            if tr.enabled:
                tr.emit("transport", ATTR_SENT, flow=self.flow_id,
                        via="cmwritev_attr", attrs=attrs.as_dict())
            self.coordinator.on_send_attrs(attrs)
        now = self.sim._now
        mss = self.mss
        nseg = (size + mss - 1) // mss
        remaining = size
        last = nseg - 1
        sp = self.spans
        flow_id = self.flow_id
        src = self.host.address
        dst = self.peer_addr
        sport = self.port
        dport = self.peer_port
        pending = self._pending
        for i in range(nseg):
            seg = mss if mss < remaining else remaining
            remaining -= seg
            # Positional: flow_id, kind, seq, ack, size, src, dst, sport,
            # dport, created_at, marked, tagged, frame_id.
            pkt = Packet(flow_id, _DATA, 0, -1, seg, src, dst, sport, dport,
                         now, marked, tagged, frame_id)
            pkt.last_of_frame = (i == last)
            if deadline > 0.0:
                pkt.deadline = deadline
                self.deadline_armed = True
            if sp is not None:
                sp.on_segment(pkt)
            pending.append(pkt)
        self.backlog_bytes += size
        stats = self.stats
        stats.submitted_msgs += 1
        stats.submitted_bytes += size
        stats.submitted_segments += nseg
        self._pump()
        return nseg

    def finish(self) -> None:
        """Declare end of application data; ``on_complete`` fires once all
        submitted data is acknowledged (or locally discarded/skipped)."""
        self._finished = True
        fx = self.fec_tx
        if fx is not None:
            fx.flush()  # protect the transfer tail's partial generation
        self._check_complete()

    @property
    def inflight(self) -> int:
        return self.snd_nxt - self.snd_una

    @property
    def window_limit(self) -> int:
        return min(int(self.cc.cwnd), self.rwnd)

    def current_error_ratio(self) -> float:
        """Most recent *clean* period's error ratio (the coordination
        engine's ``eratio_new`` in Eq. 1).  Blackout-flagged periods are
        excluded -- an outage's ~100% loss describes a dead link, not
        congestion, and would wreck the ADAPT_COND drift correction."""
        return self.metrics.last_clean_error_ratio

    @property
    def stalled(self) -> bool:
        """True while stall detection believes the path is dead."""
        return self._stalled

    def telemetry_probe(self) -> dict[str, float]:
        """Read-only snapshot of the send-side state the telemetry
        recorder samples each cadence tick.  Pure reads -- probing must
        never perturb the run it observes."""
        probe = self.cc.telemetry_probe()
        probe["flightsize"] = float(self.inflight)
        probe["srtt_s"] = self.rtt.rtt
        probe["rto_s"] = self.rtt.rto
        probe["loss_ratio"] = self.metrics.lifetime_error_ratio
        return probe

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Send as much pending data as the window allows."""
        sent_any = False
        pending = self._pending
        cc = self.cc
        while pending:
            # inflight < window_limit, read off the fields.
            limit = int(cc.cwnd)
            if self.rwnd < limit:
                limit = self.rwnd
            if self.snd_nxt - self.snd_una >= limit:
                break
            pkt = pending[0]
            if self.discard_unmarked and not pkt.marked:
                # Conflict-scheme local discard: the datagram never gets a
                # sequence number and never touches the network.
                pending.popleft()
                self.backlog_bytes -= pkt.size
                self.stats.discarded_msgs += 1
                self.stats.discarded_bytes += pkt.size
                sp = self.spans
                if sp is not None:
                    sp.on_discard(pkt)
                self.trace.note("transport", "DISCARD", flow=self.flow_id,
                                frame=pkt.frame_id, size=pkt.size)
                continue
            if (pkt.deadline and not pkt.tagged
                    and self.sim._now > pkt.deadline):
                # Deadline-aware scheduling: the frame is already stale at
                # the display, so transmitting it (and retransmitting its
                # losses) would only delay fresher frames.  Like the local
                # discard above, the segment never gets a sequence number.
                # Tagged control segments are exempt -- they must arrive.
                pending.popleft()
                self.backlog_bytes -= pkt.size
                self.stats.expired_msgs += 1
                self.stats.expired_bytes += pkt.size
                sp = self.spans
                if sp is not None:
                    sp.on_expire(pkt)
                tr = self.trace
                if tr.recording:
                    tr.cold("transport", FRAME_ABANDONED, flow=self.flow_id,
                            frame=pkt.frame_id, size=pkt.size,
                            late=self.sim.now - pkt.deadline)
                continue
            pending.popleft()
            self.backlog_bytes -= pkt.size
            pkt.seq = seq = self.snd_nxt
            self.snd_nxt = seq + 1
            self._window[seq] = pkt
            self._transmit(pkt)
            fx = self.fec_tx
            if fx is not None:
                # Enroll the first transmission into the open FEC
                # generation (retransmissions are ARQ's concern).
                fx.on_data(pkt)
            sent_any = True
        if sent_any and self._rto_deadline is None:
            self._arm_rto()
        if (self.on_space is not None and not self._finished
                and self.backlog_bytes < self.low_water_bytes):
            self.on_space()
        if self._finished:
            self._check_complete()

    def _transmit(self, pkt: Packet) -> None:
        wire = pkt.copy()
        pkt.sent_at = wire.sent_at = self.sim._now
        if wire.skip:
            # A hole-fill segment carries no payload; wire_size is a
            # precomputed slot, so it must be rewritten alongside size.
            wire.size = 0
            wire.wire_size = HEADER_BYTES
        sp = self.spans
        if sp is not None:
            sp.on_transmit(pkt)
        tr = self.trace
        if tr.enabled:
            tr.emit("transport", PACKET_SEND, flow=self.flow_id, pkt=pkt.seq,
                    size=wire.size, marked=pkt.marked, skip=pkt.skip,
                    inflight=self.inflight)
        self.host.send(wire)
        stats = self.stats
        stats.packets_sent += 1
        stats.bytes_sent += wire.size
        metrics = self.metrics          # count_sent(), in place
        metrics._sent += 1
        metrics.total_sent += 1
        self._epoch_sent += 1
        inflight = self.snd_nxt - self.snd_una
        if inflight > self._epoch_max_inflight:
            self._epoch_max_inflight = inflight

    def _retransmit(self, seq: int, *, timeout: bool) -> None:
        pkt = self._window.get(seq)
        if pkt is None:
            return
        self.metrics.count_lost()
        self._epoch_lost += 1
        if not pkt.skip and self.reliability.allow_skip(
                pkt, self.stats.skips_sent, self.stats.acked_packets):
            pkt.skip = True
            self.stats.skips_sent += 1
        else:
            pkt.retransmit += 1
            self.stats.retransmissions += 1
        tr = self.trace
        if tr.recording:
            tr.cold("transport", PACKET_RETX, flow=self.flow_id, pkt=seq,
                    reason="timeout" if timeout else "fast", skip=pkt.skip)
        self._transmit(pkt)
        if timeout:
            self.stats.timeouts += 1

    # ------------------------------------------------------------------
    # Receive path (ACKs)
    # ------------------------------------------------------------------
    def receive(self, pkt: Packet) -> None:
        """An ACK.  One that moves the cumulative point acknowledges the
        packets below it, samples the RTT, re-arms the timer and pumps; the
        same point again counts toward fast retransmit."""
        if pkt.kind != _ACK or pkt.flow_id != self.flow_id:
            return
        ack = pkt.ack
        if pkt.sack:
            self._sacked.update(s for s in pkt.sack if s >= ack)
        una = self.snd_una
        if ack <= una:
            if ack == una and self.snd_nxt > ack:
                self._on_dup_ack()
            return
        newly = ack - una
        tr = self.trace
        if tr.enabled:
            tr.emit("transport", PACKET_ACK, flow=self.flow_id, ack=ack,
                    newly=newly)
        if self._consec_timeouts:
            self._consec_timeouts = 0
            if self._stalled:
                self._stalled = False
                self.stats.stall_recoveries += 1
                tr.note("transport", "RESUME", flow=self.flow_id,
                        recoveries=self.stats.stall_recoveries)
                self.coordinator.on_resume(self.sim.now)
        sample: float | None = None
        now = self.sim._now
        window = self._window
        stats = self.stats
        metrics = self.metrics
        for s in range(una, ack):
            entry = window.pop(s, None)
            if entry is not None:
                size = entry.size
                stats.acked_packets += 1
                stats.acked_bytes += size
                metrics._acked_bytes += size    # count_acked_bytes()
                if entry.retransmit == 0 and not entry.skip:
                    sample = now - entry.sent_at
        self.snd_una = ack
        self._dup_acks = 0
        if self._sacked:
            self._sacked = {s for s in self._sacked if s >= ack}
        if sample is not None:
            self.rtt.sample(sample)
        if self._in_recovery:
            if ack >= self._recover_point:
                self._in_recovery = False
                self._repaired.clear()
                self.cc.on_recovery_exit()
            else:
                # A partial ACK: the new head is lost too (NewReno).
                self._repair(ack)
                self._eack_repair(budget=3)
        elif self.cc.acks_move_window:
            self.cc.on_ack(newly)
        self._arm_rto()
        self._pump()    # it ends in ``_check_complete`` once finished

    def _on_dup_ack(self) -> None:
        self._dup_acks += 1
        if self._in_recovery:
            self.cc.on_dupack_in_recovery()
            self._eack_repair(budget=1)
            self._pump()
        elif self._dup_acks == DUP_ACK_THRESHOLD:
            self.stats.fast_retransmits += 1
            self._in_recovery = True
            self._recover_point = self.snd_nxt
            self.cc.on_fast_retransmit(self.inflight)
            self._repair(self.snd_una)
            self._eack_repair(budget=2)
            self._arm_rto()

    def _repair(self, seq: int) -> bool:
        """Retransmit ``seq`` on evidence short of a timeout, unless this
        recovery repaired it within the last RTT (sending it again would
        double-count the loss; the RTO is the backstop for a repair lost
        again).  True when it was sent."""
        now = self.sim.now
        last = self._repaired.get(seq)
        if last is not None and now - last <= self.rtt.rtt:
            return False
        self._repaired[seq] = now
        self._retransmit(seq, timeout=False)
        return True

    def _eack_repair(self, budget: int) -> None:
        """Repair up to ``budget`` holes the EACK information proves lost.

        A sequence number counts as lost once three higher sequence numbers
        have been selectively acknowledged (the standard SACK reordering
        guard).  Repairs are paced -- a small budget per ACK event -- so a
        burst repair does not re-flood the congested queue.  Without an
        EACK ``_sacked`` stays empty and this returns at once.
        """
        sacked = self._sacked
        if len(sacked) < DUP_ACK_THRESHOLD:
            return
        threshold = sorted(sacked)[-DUP_ACK_THRESHOLD]
        window = self._window
        for seq in range(self.snd_una, threshold + 1):
            if budget <= 0:
                break
            if seq not in sacked and seq in window and self._repair(seq):
                budget -= 1

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _arm_rto(self) -> None:
        """Restart the retransmission timer from now (or stop it when
        nothing is in flight).  Lazy: the pending wake-up stays where it
        is unless the deadline moved ahead of it -- ``_on_rto`` re-posts
        itself when it wakes early."""
        if self.snd_nxt == self.snd_una:
            self._disarm_rto()
            return
        rto = self.rtt.rto
        if self.rto_jitter:
            # Deterministic decorrelation: seeded stream, so identical
            # configs still produce identical schedules/traces.
            rto *= 1.0 + self.rto_jitter * self._rto_rng.random()
        sim = self.sim
        # The float addition ``Simulator.schedule`` would perform.
        self._rto_deadline = deadline = sim._now + rto
        ev = self._rto_event
        if ev is not None:
            if ev.time <= deadline:
                return
            ev.cancel()     # the RTO shrank: wake up sooner
        self._rto_event = sim.at(deadline, self._on_rto)

    def _disarm_rto(self) -> None:
        self._rto_deadline = None
        ev = self._rto_event
        if ev is not None:
            ev.cancel()
            self._rto_event = None

    def _on_rto(self) -> None:
        deadline = self._rto_deadline
        if self.sim._now < deadline:
            # Early wake-up: ACKs moved the deadline on since this entry
            # was posted.  Not a timeout -- nothing is counted or noted.
            self._rto_event = self.sim.at(deadline, self._on_rto)
            return
        self._rto_event = self._rto_deadline = None
        self.rtt.backoff()
        self.cc.on_timeout(self.inflight)
        tr = self.trace
        tr.note("transport", "RTO", flow=self.flow_id, head=self.snd_una,
                rto=self.rtt.rto, inflight=self.inflight)
        self._in_recovery = False
        self._dup_acks = 0
        self._repaired.clear()
        if self.stall_threshold:
            self._consec_timeouts += 1
            if (not self._stalled
                    and self._consec_timeouts >= self.stall_threshold):
                self._stalled = True
                self.stats.stalls += 1
                tr.note("transport", "STALL", flow=self.flow_id,
                        consec_timeouts=self._consec_timeouts)
                self.coordinator.on_stall(self.sim.now)
        self._retransmit(self.snd_una, timeout=True)
        self._arm_rto()

    def _epoch_len(self) -> float:
        floor = getattr(self.cc, "min_epoch_s", 0.01)
        return max(self.rtt.rtt, floor)

    def _epoch_tick(self) -> None:
        if self._completed:
            return
        # Window validation: an application-limited epoch (the window never
        # came close to full) must not grow the window, or an idle flow
        # rails its cwnd to the maximum and later dumps a huge burst.
        app_limited = (self._epoch_lost == 0
                       and self._epoch_max_inflight
                       < 0.75 * self.window_limit)
        if not app_limited:
            self.cc.on_epoch(self._epoch_sent, self._epoch_lost,
                             self.rtt.rtt)
        self._epoch_sent = 0
        self._epoch_lost = 0
        self._epoch_max_inflight = 0
        self._pump()
        self.sim.schedule(self._epoch_len(), self._epoch_tick)

    #: Minimum packets sent in a period for its error ratio to drive
    #: application callbacks; a near-idle period's ratio (e.g. 2 lost of 2
    #: sent = 100%) is statistically meaningless and would trigger wild
    #: adaptations.
    MIN_PERIOD_SAMPLES = 8

    def _metric_tick(self) -> None:
        if self._completed:
            return
        pm = self.metrics.roll(self.sim.now, self.rtt.rtt, self.cc.cwnd,
                               blackout=self._stalled)
        if pm.sent >= self.MIN_PERIOD_SAMPLES and not pm.blackout:
            tr = self.trace
            on_fire = None
            if tr.enabled:
                flow = self.flow_id

                def on_fire(kind, out, _tr=tr, _flow=flow,
                            _eratio=pm.error_ratio):
                    _tr.emit("transport", CALLBACK_FIRED, flow=_flow,
                             kind=kind, error_ratio=_eratio,
                             returned_attrs=out is not None)

            results = self.callbacks.evaluate(pm.error_ratio, pm.as_dict(),
                                              on_fire)
            for attrs in results:
                tr = self.trace
                if tr.enabled:
                    tr.emit("transport", ATTR_SENT, flow=self.flow_id,
                            via="callback", attrs=attrs.as_dict())
                self.coordinator.on_callback_result(attrs)
        self.coordinator.on_period(pm)
        self._pump()
        self.sim.schedule(self.metrics.period, self._metric_tick)

    # ------------------------------------------------------------------
    def _check_complete(self) -> None:
        if (self._finished and not self._completed and not self._pending
                and self.snd_una == self.snd_nxt):
            self._completed = True
            self.trace.note("transport", "COMPLETE", flow=self.flow_id,
                            acked=self.stats.acked_packets,
                            skips=self.stats.skips_sent)
            self._disarm_rto()
            if self.on_complete is not None:
                self.on_complete(self.sim.now)

    @property
    def completed(self) -> bool:
        return self._completed

    def invariant_violations(self) -> list[str]:
        """Structural sanity of the send state (see :mod:`repro.invariants`).

        Counter reads only -- never mutates, so checks cannot perturb the
        run they verify.  Returns descriptions of every violated invariant
        (empty when sane).
        """
        bad: list[str] = []
        if not (0 <= self.snd_una <= self.snd_nxt):
            bad.append(f"sequence order: 0 <= snd_una={self.snd_una} "
                       f"<= snd_nxt={self.snd_nxt} fails")
        if self.inflight != len(self._window):
            bad.append(f"inflight accounting: snd_nxt - snd_una = "
                       f"{self.inflight} but window holds "
                       f"{len(self._window)} packets")
        if self.backlog_bytes < 0:
            bad.append(f"backlog bytes negative ({self.backlog_bytes})")
        if self._completed and (self._pending or self.snd_una != self.snd_nxt):
            bad.append(f"completed with work outstanding: "
                       f"pending={len(self._pending)} "
                       f"unacked={self.inflight}")
        # Timer liveness: a lazy timer's failure mode is a flow that
        # silently never times out.
        deadline = self._rto_deadline
        if self.snd_nxt > self.snd_una:
            ev = self._rto_event
            if (deadline is None or ev is None or not ev.alive
                    or ev.time > deadline):
                bad.append(f"rto timer: {self.inflight} packets in flight "
                           f"but deadline={deadline!r}, wake-up={ev!r}")
        elif deadline is not None:
            bad.append(f"rto timer: nothing in flight but "
                       f"deadline={deadline!r} is set")
        cc_bad = self.cc.bounds_violation()
        if cc_bad is not None:
            bad.append(cc_bad)
        fx = self.fec_tx
        if fx is not None:
            state = fx.state
            if state.data_enrolled != self.snd_nxt:
                bad.append(f"fec enrollment: {state.data_enrolled} segments "
                           f"coded over but {self.snd_nxt} first "
                           f"transmissions occurred")
            state_bad = state.conservation_violation()
            if state_bad is not None:
                bad.append(state_bad)
        return bad


class WindowedReceiver:
    """In-order receiver with cumulative ACKs and skip handling.

    ``on_deliver(pkt, time)`` fires for each in-order data packet; skip
    segments advance the sequence space without a delivery (the adaptive
    reliability path).
    """

    #: Out-of-sequence seqs advertised per EACK (bounds ACK "size" growth;
    #: the wire charge stays ACK_BYTES -- a real EACK packs ranges).
    EACK_LIMIT = 256

    #: Span recorder hook, same class-attribute idiom as the sender's.
    spans = None

    #: FEC decoder (:class:`repro.transport.fec.FecReceiver`) armed by the
    #: connection alongside the sender's coder; the disarmed receive path
    #: pays one ``pkt.fec is None`` slot read per data packet.
    fec = None

    def __init__(self, sim: Simulator, host: Host, *, port: int,
                 peer_addr: int, peer_port: int, flow_id: int,
                 on_deliver: Callable[[Packet, float], None] | None = None,
                 use_eack: bool = False):
        self.sim = sim
        self.host = host
        self.port = port
        self.peer_addr = peer_addr
        self.peer_port = peer_port
        self.flow_id = flow_id
        self.on_deliver = on_deliver
        self.use_eack = use_eack
        self.reorder = ReorderBuffer()
        self.stats = FlowStats()
        # The bus the FEC decoder reports its cold events to; the ordinary
        # receive path never touches it.
        self.trace = sim.bus
        host.bind(port, self)

    # ------------------------------------------------------------------
    def receive(self, pkt: Packet) -> None:
        if pkt.flow_id != self.flow_id or pkt.kind != _DATA:
            return
        if pkt.fec is not None:
            # Repair segments live outside the sequence space: decode (or
            # drop, if the tier is not armed on this side) and stop.
            fx = self.fec
            if fx is not None:
                fx.on_repair(pkt)
            return
        reorder = self.reorder
        seq = pkt.seq
        if seq == reorder.rcv_nxt and not pkt.skip and self.spans is None:
            # ``offer`` (``rcv_nxt`` is never buffered: "inorder") and
            # ``_consume`` of a data segment, in line: per packet.
            verdict = "inorder"
            stats = self.stats
            stats.delivered_packets += 1
            stats.delivered_bytes += pkt.size
            on_deliver = self.on_deliver
            if on_deliver is not None:
                on_deliver(pkt, self.sim._now)
        else:
            verdict = reorder.offer(seq, pkt)
            if verdict == "inorder":
                self._consume(pkt)
            elif verdict == "dup":
                self.stats.duplicates += 1
        if verdict == "inorder":
            reorder.rcv_nxt += 1        # advance()
            if reorder._buf:
                for _seq, buffered in reorder.drain():
                    self._consume(buffered)  # type: ignore[arg-type]
        if verdict != "dup":
            fx = self.fec
            if fx is not None:
                # A new arrival may leave a held stripe one member short
                # of recovery (compound ARQ+FEC repair).
                fx.on_progress()
        # The cumulative ACK.  Positional: flow_id, kind, seq, ack, size,
        # src, dst, sport, dport, created_at.
        host = self.host
        ack = Packet(self.flow_id, _ACK, 0, reorder.rcv_nxt, 0,
                     host.address, self.peer_addr, self.port,
                     self.peer_port, self.sim._now)
        if reorder._buf and self.use_eack:
            # RUDP's EACK: advertise out-of-sequence arrivals so the sender
            # can repair burst losses in one round trip (draft-ietf-sigtran-
            # reliable-udp, EACK segment).  TCP Reno runs without it.
            ack.sack = tuple(reorder.buffered_seqs()[:self.EACK_LIMIT])
        host.send(ack)

    def _consume(self, pkt: Packet) -> None:
        sp = self.spans
        if pkt.skip:
            self.stats.skipped_received += 1
            if sp is not None:
                sp.on_skip(pkt)
            return
        stats = self.stats
        stats.delivered_packets += 1
        stats.delivered_bytes += pkt.size
        if sp is not None:
            sp.on_deliver(pkt)
        on_deliver = self.on_deliver
        if on_deliver is not None:
            on_deliver(pkt, self.sim._now)

    def invariant_violations(self) -> list[str]:
        """Receive-side sanity (see :mod:`repro.invariants`): the reorder
        buffer may only hold sequence numbers above the cumulative ACK
        point.  Counter reads only; returns descriptions (empty = sane)."""
        bad: list[str] = []
        rcv_nxt = self.reorder.rcv_nxt
        if rcv_nxt < 0:
            bad.append(f"rcv_nxt negative ({rcv_nxt})")
        if len(self.reorder):
            low = self.reorder.buffered_seqs()[0]
            if low <= rcv_nxt:
                bad.append(f"reorder buffer holds seq {low} at or below "
                           f"rcv_nxt={rcv_nxt}")
        return bad
