"""Point-to-point links with serialization delay, propagation delay and an
egress drop-tail queue.

This is the Emulab substitute: the paper's "emulated 20Mb physical links with
a path RTT of 30ms" become two :class:`Link` instances (one per direction)
between the dumbbell routers.
"""

from __future__ import annotations

from math import inf
from operator import attrgetter
from typing import Callable, Protocol

from ..obs.events import LINK_FAIL, LINK_RECOVER, PACKET_DROP
from .engine import Simulator
from .packet import Packet
from .queues import DropTailQueue

__all__ = ["Link", "PacketSink", "LossModel", "BernoulliLoss",
           "GilbertElliottLoss", "DelayJitter"]


class PacketSink(Protocol):
    """Anything that can accept a delivered packet."""

    def receive(self, pkt: Packet) -> None: ...


class LossModel:
    """Base class for stochastic wire-loss injection (failure testing).

    The paper's testbed has no random wire loss -- all loss is queue drop --
    so the default model never drops.  Subclass for lossy-link experiments.
    """

    def drops(self, pkt: Packet) -> bool:
        return False


class BernoulliLoss(LossModel):
    """IID packet loss with probability ``p`` (failure-injection tests)."""

    def __init__(self, p: float, rng) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError("loss probability must be in [0,1]")
        self.p = p
        self._rng = rng

    def drops(self, pkt: Packet) -> bool:
        return self._rng.random() < self.p


class GilbertElliottLoss(LossModel):
    """Two-state Markov (Gilbert--Elliott) bursty wire loss.

    Each packet first moves the chain -- good->bad with probability
    ``p_gb``, bad->good with ``p_bg`` -- then drops with the state's loss
    probability (``loss_bad`` defaults to 1: the classic Gilbert model).
    The stationary bad-state occupancy is ``p_gb / (p_gb + p_bg)``, so with
    ``loss_good=0, loss_bad=1`` the long-run loss rate converges there.
    """

    def __init__(self, *, p_gb: float, p_bg: float, loss_good: float = 0.0,
                 loss_bad: float = 1.0, rng) -> None:
        for name, p in (("p_gb", p_gb), ("p_bg", p_bg),
                        ("loss_good", loss_good), ("loss_bad", loss_bad)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {p}")
        if p_gb + p_bg <= 0:
            raise ValueError("p_gb + p_bg must be positive (the chain "
                             "must be able to move)")
        self.p_gb = p_gb
        self.p_bg = p_bg
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self._rng = rng
        self.bad = False
        # Introspection counters for tests/reports.
        self.bursts = 0
        self.dropped = 0
        self.offered = 0

    def drops(self, pkt: Packet) -> bool:
        r = self._rng
        if self.bad:
            if r.random() < self.p_bg:
                self.bad = False
        elif r.random() < self.p_gb:
            self.bad = True
            self.bursts += 1
        self.offered += 1
        p = self.loss_bad if self.bad else self.loss_good
        if p > 0.0 and r.random() < p:
            self.dropped += 1
            return True
        return False


class DelayJitter:
    """Per-packet extra propagation delay: ``U(0, max_extra_s)`` applied
    with probability ``p``.  Installed on ``Link.jitter``; delayed packets
    can arrive after later undelayed ones, so this also induces reordering.
    """

    __slots__ = ("max_extra_s", "p", "_rng", "applied")

    def __init__(self, *, max_extra_s: float, p: float = 1.0, rng) -> None:
        if max_extra_s <= 0:
            raise ValueError("max_extra_s must be positive")
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0,1]")
        self.max_extra_s = max_extra_s
        self.p = p
        self._rng = rng
        self.applied = 0

    def extra(self) -> float:
        r = self._rng
        if self.p < 1.0 and r.random() >= self.p:
            return 0.0
        self.applied += 1
        return r.random() * self.max_extra_s


#: For pickling: fields that die with the event heap or are derived, and the
#: public names property-backed fields are stored under.
_TRANSIENT = frozenset(("_busy", "_service", "_arrival", "_free_at", "_plain"))
_PUBLIC = {"_queue": "queue", "_loss": "loss", "_jitter": "jitter",
           "_bytes_sent": "bytes_sent", "_packets_sent": "packets_sent"}
_PRIVATE = {public: private for private, public in _PUBLIC.items()}


class Link:
    """Unidirectional link: egress FIFO -> serialization -> propagation.

    Parameters
    ----------
    bandwidth_bps : link rate in bits per second (the paper's 20 Mb link is
        ``20e6``).
    delay_s : one-way propagation delay in seconds.
    queue_bytes : drop-tail buffer budget at the egress.

    Single-event transit: on a *plain* link (drop-tail queue, base
    :class:`LossModel`, no jitter) nothing can happen to a packet between
    the end of serialisation and the far end of the wire, so an idle
    serialiser *fuses* the two -- :meth:`send` schedules the arrival at
    ``(now + tx) + delay`` and records ``_free_at``, when the serialiser
    frees up.  The completion event (:meth:`_tx_done`) exists only once a
    second packet queues up behind it; whatever would have met the packet
    at the end of serialisation first :meth:`_unfuse`-s it back into the
    two-event chain that backlogged and stochastic links use throughout.
    DESIGN.md section 2 has the full rule.
    """

    # Slotted: a population holds thousands of links.
    __slots__ = ("sim", "bandwidth_bps", "delay_s", "sink", "name", "trace",
                 "spans", "up", "packets_lost_wire",
                 "_queue", "_loss", "_jitter", "_plain", "_busy", "_service",
                 "_arrival", "_free_at", "_bytes_sent", "_packets_sent")

    def __init__(self, sim: Simulator, bandwidth_bps: float, delay_s: float,
                 sink: PacketSink, *, queue_bytes: int = 64 * 1440,
                 name: str = "link", loss: LossModel | None = None,
                 on_drop: Callable[[Packet], None] | None = None):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if delay_s < 0:
            raise ValueError("propagation delay cannot be negative")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.sink = sink
        self.name = name
        # Where drops are reported and the lineage's packet hook, cached
        # from the simulator; the queue is handed the same (``_adopt``).
        self.trace = sim.bus
        self.spans = getattr(sim, "spans", None)
        self._queue = self._adopt(DropTailQueue(queue_bytes, on_drop=on_drop))
        self._loss = loss or LossModel()
        self._jitter: DelayJitter | None = None
        self._refresh_plain()
        self._busy = False      # a completion event (_tx_done) is pending
        # The packet _tx_done still has to account and deliver (None while
        # the one on the serialiser is fused); the fused packet's arrival
        # event; the instant the serialiser frees up.  The last two go
        # stale: readers compare the clock against ``_free_at`` first.
        self._service: Packet | None = None
        self._arrival = None
        self._free_at = -inf
        self.up = True
        # Wire counters for utilisation / fairness accounting.  A fused
        # packet is counted when sent; the public properties hold it back
        # until ``_free_at``, when its completion would have fired.
        self._bytes_sent = 0
        self._packets_sent = 0
        self.packets_lost_wire = 0

    # What decides a packet's fate at the end of serialisation is a
    # property: swapping it mid-run un-fuses the packet it would have met
    # and re-evaluates whether the link is still plain.
    def _refresh_plain(self) -> None:
        self._plain = (type(self._loss) is LossModel
                       and self._jitter is None
                       and type(self._queue) is DropTailQueue)

    def _swap(self, slot: str, part) -> None:
        self._unfuse()
        setattr(self, slot, part)
        self._refresh_plain()

    def _adopt(self, queue: DropTailQueue) -> DropTailQueue:
        """A queue reports its drops under its link's name, to its link's
        bus and lineage hook -- one installed mid-run like the first."""
        queue.trace = self.trace
        queue.name = self.name
        queue.spans = self.spans
        return queue

    queue = property(attrgetter("_queue"),
                     lambda s, q: s._swap("_queue", s._adopt(q)))
    loss = property(attrgetter("_loss"), lambda s, m: s._swap("_loss", m))
    jitter = property(attrgetter("_jitter"),
                      lambda s, j: s._swap("_jitter", j))

    def _serialising(self) -> Packet | None:
        """The fused packet while its completion has not "fired" yet."""
        ev = self._arrival
        if ev is not None and self.sim._now < self._free_at:
            return ev.args[0]
        return None

    @property
    def bytes_sent(self) -> int:
        pkt = self._serialising()
        return self._bytes_sent - (pkt.wire_size if pkt is not None else 0)

    @property
    def packets_sent(self) -> int:
        return self._packets_sent - (self._serialising() is not None)

    # ------------------------------------------------------------------
    def tx_time(self, pkt: Packet) -> float:
        """Serialization time of ``pkt`` on this link."""
        return pkt.wire_size * 8.0 / self.bandwidth_bps

    def send(self, pkt: Packet) -> bool:
        """Offer ``pkt`` to the link; False when the egress queue drops it
        or the link is administratively down."""
        if not self.up:
            return self._lost(pkt, "down")
        queue = self._queue
        # Ties resolve as busy: an arrival (priority -1) at ``_free_at``
        # precedes the completion (priority 0) at the same instant.
        if (self._plain and not self._busy
                and (now := self.sim._now) > self._free_at):
            wire = pkt.wire_size
            st = queue.stats
            if st.peak_packets and wire <= queue.capacity_bytes:
                # The queue is empty and the packet leaves it at once: fold
                # push + pop into their counters (the one-packet occupancy
                # peak, and its trace event, came with an earlier push).
                st.arrivals += 1
                st.departures += 1
                st.bytes_in += wire
                if wire > st.peak_bytes:
                    st.peak_bytes = wire
            elif queue.push(pkt):
                queue.pop()
            else:
                return False
            self._bytes_sent += wire
            self._packets_sent += 1
            self._free_at = free_at = now + wire * 8.0 / self.bandwidth_bps
            self._arrival = self.sim.post(free_at + self.delay_s, -1,
                                          self.sink.receive, (pkt,))
            return True
        if not queue.push(pkt):
            return False
        if not self._busy:
            self._kick()
        return True

    def _lost(self, pkt: Packet, kind: str) -> bool:
        """Count and report a packet lost past the queue: on the ``wire``
        or offered to a link that is ``down``.  Returns False."""
        self.packets_lost_wire += 1
        sp = self.spans
        if sp is not None:
            sp.on_drop(pkt, self.name, kind)
        tr = self.trace
        if tr.recording:
            tr.cold("net", PACKET_DROP, link=self.name, kind=kind,
                    flow=pkt.flow_id, pkt=pkt.seq, size=pkt.wire_size)
        return False

    # ------------------------------------------------------------------
    def _kick(self) -> None:
        """Give a newly backlogged queue its completion event: at
        ``_free_at`` while a fused packet holds the serialiser, else now."""
        if self.sim._now <= self._free_at:
            self._busy = True
            self.sim.at(self._free_at, self._tx_done)
        else:
            self._start_transmission()

    def _start_transmission(self) -> None:
        pkt = self._queue.pop()
        self._busy = True
        self._service = pkt
        self.sim.schedule(self.tx_time(pkt), self._tx_done)

    def _finish_tx(self, pkt: Packet) -> None:
        """Account one packet leaving the serialiser at the current instant
        and hand it to propagation (or the wire-loss drop path)."""
        self._bytes_sent += pkt.wire_size
        self._packets_sent += 1
        if self.up and not self._loss.drops(pkt):
            delay = self.delay_s
            jit = self._jitter
            if jit is not None:
                delay += jit.extra()
            # priority=-1 makes arrivals at an instant precede timers at
            # the same instant.
            self.sim.schedule(delay, self.sink.receive, pkt, priority=-1)
        else:
            self._lost(pkt, "wire")

    def _tx_done(self) -> None:
        pkt = self._service
        if pkt is None:
            # A fused packet held the serialiser: it was counted and sent
            # on its way by ``send``; only the backlog is left to serve.
            self._arrival = None
        else:
            self._finish_tx(pkt)
        if self._queue._q:
            self._start_transmission()
        else:
            self._busy = False
            self._service = None

    def _unfuse(self) -> None:
        """Put a fused packet that is still serialising back on the
        two-event chain: cancel its arrival and let a real completion at
        ``_free_at`` decide its fate under what the caller changes next."""
        ev = self._arrival
        if ev is None or self.sim._now > self._free_at or not ev.alive:
            return
        ev.cancel()
        pkt = ev.args[0]
        self._arrival = None
        self._service = pkt
        self._bytes_sent -= pkt.wire_size
        self._packets_sent -= 1
        if not self._busy:
            self._busy = True
            self.sim.at(self._free_at, self._tx_done)

    # ------------------------------------------------------------------
    # Dynamics (failure injection, handover ramps)
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Administratively down the link; queued packets are flushed.
        Idempotent -- failing a down link is a no-op."""
        if not self.up:
            return
        self._unfuse()
        self.up = False
        flushed = self._queue.flush()
        self.packets_lost_wire += flushed
        tr = self.trace
        if tr.recording:
            tr.cold("net", LINK_FAIL, link=self.name, flushed=flushed)

    def recover(self) -> None:
        if self.up:
            return
        self.up = True
        tr = self.trace
        if tr.recording:
            tr.cold("net", LINK_RECOVER, link=self.name)

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        """Change the link rate mid-run (capacity ramp/cliff).  Packets
        already serialising keep their old transmission time."""
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth_bps = bandwidth_bps

    def set_delay(self, delay_s: float) -> None:
        """Change the propagation delay mid-run (path change).  Packets
        already in flight keep their old delay, which can reorder across
        the boundary -- exactly what a real path change does."""
        if delay_s < 0:
            raise ValueError("propagation delay cannot be negative")
        self._unfuse()
        self.delay_s = delay_s

    def telemetry_probe(self) -> dict[str, float]:
        """Read-only wire counters for the telemetry recorder (cumulative;
        the recorder differences successive probes for utilisation)."""
        return {"bytes_sent": float(self.bytes_sent),
                "packets_sent": float(self.packets_sent),
                "packets_lost_wire": float(self.packets_lost_wire),
                "up": 1.0 if self.up else 0.0}

    def _in_service(self) -> bool:
        """A packet holds the serialiser: one awaiting ``_tx_done``, or a
        fused one until ``_free_at``."""
        return self._service is not None or self.sim._now < self._free_at

    def accounting_violation(self) -> str | None:
        """Wire accounting at this link: every queue departure must either
        have finished serialising (``packets_sent``) or still hold the
        serialiser -- fused (until ``_free_at``) or awaiting ``_tx_done``.
        Returns a description, or None when sane."""
        st = self._queue.stats
        in_service = int(self._in_service())
        packets_sent = self.packets_sent
        if st.departures != packets_sent + in_service:
            return (f"link accounting: queue departures={st.departures} != "
                    f"packets_sent={packets_sent} + "
                    f"in_service={in_service}")
        return None

    # A pickled link (``ScenarioResult.detach``) keeps its books, not its
    # traffic: the heap is drained, so the completion event, the packet on
    # the serialiser and its arrival go, and ``_free_at = inf`` stands in
    # for that packet in the accounting.  Property-backed fields are read
    # through the property: counters as an observer sees them.
    def __getstate__(self) -> dict:
        names = (_PUBLIC.get(name, name) for name in self.__slots__
                 if name not in _TRANSIENT)
        state = {name: getattr(self, name) for name in names}
        if self._in_service():
            state["_free_at"] = inf
        return state

    def __setstate__(self, state: dict) -> None:
        self._busy = False
        self._service = self._arrival = None
        self._free_at = -inf
        for name, value in state.items():
            setattr(self, _PRIVATE.get(name, name), value)
        self._refresh_plain()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Link {self.name} {self.bandwidth_bps/1e6:.1f}Mbps "
                f"{self.delay_s*1e3:.1f}ms q={len(self._queue)}>")
