"""Point-to-point links with serialization delay, propagation delay and an
egress drop-tail queue.

This is the Emulab substitute: the paper's "emulated 20Mb physical links with
a path RTT of 30ms" become two :class:`Link` instances (one per direction)
between the dumbbell routers.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush, heapreplace
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
_TRANSIENT = frozenset(("_busy", "_service", "_arrival", "_free_at", "_plain",
                        "_plan", "_held", "_last", "_trains", "_tseq",
                        "_reading"))
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
    ahead : ``sink`` can be asked at departure (``arriving``/``withdraw``).

    Planned transit: on a *plain* link (drop-tail queue, base
    :class:`LossModel`, no jitter) :meth:`send` decides an accepted
    packet's whole crossing at once -- service start (now, or ``_free_at``
    behind a busy serialiser), finish, far end -- and posts its arrival
    then: one engine event per packet, idle or backlogged.  The books are
    settled lazily (:meth:`_settle`); whatever could meet an unfinished
    packet first puts the plan back (:meth:`_unfuse`) onto the two-event
    chain -- completion, then arrival -- that lossy and jittered links
    use throughout, until a completion finds the link plain and up again
    and plans what is queued.  A link that one hop alone feeds
    (``feeders``) can be *booked* (:meth:`book`) when that hop's host
    sends.  A cross-traffic train (:class:`~repro.traffic.cbr.CbrSource`,
    :class:`~repro.traffic.vbr.VbrSource` on a cross port) is *read*: while
    the link can plan and asks its far end, it holds each train's next
    arrival instant and admits the train's packets (:meth:`_admit`, what
    :meth:`send` decides) in instant order whenever anything settles the
    books.  DESIGN.md section 2 has the rules.
    """

    __slots__ = ("sim", "bandwidth_bps", "delay_s", "sink", "name", "trace",
                 "spans", "up", "packets_lost_wire", "feeders",
                 "_queue", "_loss", "_jitter", "_plain", "_busy", "_service",
                 "_arrival", "_free_at", "_plan", "_held", "_last", "_ahead",
                 "_trains", "_tseq", "_reading",
                 "_bytes_sent", "_packets_sent")

    def __init__(self, sim: Simulator, bandwidth_bps: float, delay_s: float,
                 sink: PacketSink, *, queue_bytes: int = 64 * 1440,
                 name: str = "link", loss: LossModel | None = None,
                 on_drop: Callable[[Packet], None] | None = None,
                 ahead: bool = False):
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
        self._busy = False      # the chain runs: a _tx_done is pending
        # The packet on the serialiser (planned: counted when it started;
        # on the chain: _tx_done accounts and delivers it), its arrival
        # event (None: the sink was asked) and when the serialiser frees
        # up.  All go stale: readers check the clock against ``_free_at``.
        self._service: Packet | None = None
        self._arrival = None
        self._free_at = -inf
        # (start, arrival event | None) of each planned packet still queued.
        self._plan: deque = deque()
        # Bookings held back from the books, by arrival instant: (at, packet,
        # arrival event | None, prior _free_at, what ``push`` would queue).
        self._held: deque = deque()
        self._last = -inf   # a real arrival is known to come until then
        self.feeders = 0    # hops that send into the link
        # A traced run asks nobody: every hop reports where it always did.
        self._ahead = (sink.arriving if ahead and not self.trace.enabled
                       else None)
        # Trains read lazily, by their next packet's arrival: (instant, and
        # when and at what priority its event would have been posted, a
        # counter, train) -- the engine's order, replayed.
        self._trains: list = []
        self._tseq = 0
        self._reading = False   # admitting train packets: no re-entry
        self.up = True
        # Wire counters for utilisation / fairness accounting: a planned
        # packet counts from its start; the properties hold it back.
        self._bytes_sent = 0
        self._packets_sent = 0
        self.packets_lost_wire = 0

    # What decides a packet's fate at the end of serialisation is a
    # property: swapping it mid-run un-plans the packets it would have met
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
        queue.link = self
        return queue

    def _settle(self, strict: bool = False) -> None:
        """Bring the books up to the clock: every train packet that has
        arrived, then what :meth:`_books` admits."""
        if self._trains:
            self._read_trains()
        self._books(self.sim._now, strict)

    def _books(self, now: float, strict: bool = False) -> None:
        """Bring the books up to ``now``, in instant order (an arrival
        first): a booked packet whose arrival has come enters them, and a
        planned packet whose start has passed leaves the queue and is counted
        onto the wire.  A start at exactly ``now`` has happened for a reader
        but not (``strict``) for an arrival or a mutation, which precede
        that completion."""
        plan = self._plan
        held = self._held
        if not (plan or held):
            return
        queue = self._queue         # ``queue.pop()``, in line: per packet
        upto = held[0][0] if held else inf
        st = queue.stats
        while True:
            if plan and plan[0][0] < upto and (
                    plan[0][0] < now or plan[0][0] == now and not strict):
                self._arrival = plan.popleft()[1]
                self._service = pkt = queue._q.popleft()
                queue._bytes -= pkt.wire_size
                st.departures += 1
                self._bytes_sent += pkt.wire_size
                self._packets_sent += 1
            elif upto <= now:
                # A booked arrival, counted as ``push`` would have counted it.
                _, pkt, ev, free_at, pkts, queued = held.popleft()
                wire = pkt.wire_size
                st.arrivals += 1
                st.bytes_in += wire
                if queued > st.peak_bytes:
                    st.peak_bytes = queued
                if pkts > st.peak_packets:
                    st.peak_packets = pkts
                if upto > free_at or not plan and (
                        free_at < now or free_at == now and not strict):
                    st.departures += 1      # ... and started since
                    self._bytes_sent += wire
                    self._packets_sent += 1
                    self._service, self._arrival = pkt, ev
                else:
                    queue._q.append(pkt)
                    queue._bytes += wire
                    plan.append((free_at, ev))
                upto = held[0][0] if held else inf
            else:
                return

    queue = property(lambda s: s._settle() or s._queue,
                     lambda s, q: s._swap("_queue", s._adopt(q)))
    loss = property(attrgetter("_loss"), lambda s, m: s._swap("_loss", m))
    jitter = property(attrgetter("_jitter"),
                      lambda s, j: s._swap("_jitter", j))

    def _in_service(self) -> bool:
        """A packet holds the serialiser (call with the books settled): one
        awaiting ``_tx_done``, or a planned one until its finish."""
        if self._busy:
            return self._service is not None
        held = self._held   # its first entry holds the books' ``_free_at``
        return bool(self._plan) or self.sim._now < (held[0][3] if held
                                                    else self._free_at)

    def _serialising(self) -> Packet | None:
        """The planned packet whose completion has not "fired" yet."""
        self._settle()
        return (self._service if not self._busy and self._in_service()
                else None)

    @property
    def bytes_sent(self) -> int:
        pkt = self._serialising()
        return self._bytes_sent - (pkt.wire_size if pkt is not None else 0)

    @property
    def packets_sent(self) -> int:
        held = self._serialising() is not None      # settles: read it first
        return self._packets_sent - held

    # ------------------------------------------------------------------
    def tx_time(self, pkt: Packet) -> float:
        """Serialization time of ``pkt`` on this link."""
        return pkt.wire_size * 8.0 / self.bandwidth_bps

    def send(self, pkt: Packet) -> bool:
        """Offer ``pkt`` to the link; False when the egress queue drops it
        or the link is administratively down."""
        if not self.up:
            return self._lost(pkt, "down")
        if self._busy or not self._plain:
            if not self._queue.push(pkt):
                return False
            if not self._busy:
                self._start_transmission()
            return True
        if self._trains:    # train packets of this instant came first
            self._read_trains()
        now = self.sim._now
        if self._held:      # it may arrive ahead of booked ones
            self._take_back()
            self._books(now, True)
        return self._admit(pkt, now)

    def _admit(self, pkt: Packet, now: float) -> bool:
        """What a plain link off the chain, up, decides for ``pkt`` arriving
        at ``now`` -- a real arrival's instant or a train packet's: drop or
        accept, start, finish and far end.  The queue's books are kept in
        line, per packet: an accepted packet's ``push``, and, when nothing
        is held, the ``pop`` of each planned start that has passed
        (:meth:`_books`)."""
        queue = self._queue
        start = self._free_at
        wire = pkt.wire_size
        plan = self._plan
        st = queue.stats
        if plan and plan[0][0] < now:
            if self._held:
                self._books(now, now <= start)
            else:
                q = queue._q
                while plan and plan[0][0] < now:
                    self._arrival = plan.popleft()[1]
                    self._service = started = q.popleft()
                    queue._bytes -= started.wire_size
                    st.departures += 1
                    self._bytes_sent += started.wire_size
                    self._packets_sent += 1
        # Ties resolve as busy: an arrival (priority -1) at ``_free_at``
        # precedes the completion (priority 0) of the same instant.
        if now > start:
            # All that was planned has started.
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
            self._service = pkt
            start = now
            plan = None             # the plan of length one: ``_arrival``
        else:
            queued = queue._bytes + wire
            if queued > queue.capacity_bytes:
                return queue.push(pkt)      # refused: ``push`` reports it
            st.arrivals += 1
            q = queue._q
            q.append(pkt)
            queue._bytes = queued
            st.bytes_in += wire
            if queued > st.peak_bytes:
                st.peak_bytes = queued
            if len(q) > st.peak_packets:
                queue._new_peak()
        # The chain's float additions in the chain's order.
        self._free_at = free_at = start + wire * 8.0 / self.bandwidth_bps
        at = free_at + self.delay_s
        ahead = self._ahead
        ev = (None if ahead is not None and ahead(pkt, at)
              else self.sim.post(at, -1, self.sink.receive, (pkt,)))
        if plan is None:
            self._arrival = ev
        else:
            plan.append((start, ev))
        return True

    def book(self, pkt: Packet, at: float) -> bool:
        """``pkt``, from the hop that alone feeds the link, arrives at
        ``at``: decide now what :meth:`send` would then.  False -- it
        arrives for real -- unless the link is plain, off the chain and up,
        reads no train, no real arrival is still to come and the queue
        takes it."""
        held = self._held
        now = self.sim._now
        if not (self._busy or not self._plain or not self.up
                or now <= self._last or self._trains):
            self._books(now, True)
            queue = self._queue
            wire = pkt.wire_size
            # The queue at ``at``: less what starts before, plus bookings.
            pkts, queued = len(queue._q) + 1, queue._bytes + wire
            plan = self._plan
            if plan and plan[0][0] < at:
                for (start, _), waiting in zip(plan, queue._q):
                    if start >= at:
                        break
                    pkts -= 1
                    queued -= waiting.wire_size
            for entry in held:
                if entry[3] >= at:      # waits: ``_free_at`` was its start
                    pkts += 1
                    queued += entry[1].wire_size
            if queued <= queue.capacity_bytes:
                free_at = self._free_at
                far = self._free_at = ((at if at > free_at else free_at)
                                       + wire * 8.0 / self.bandwidth_bps)
                far += self.delay_s
                ahead = self._ahead
                ev = (None if ahead is not None and ahead(pkt, far)
                      else self.sim.post(far, -1, self.sink.receive, (pkt,)))
                held.append((at, pkt, ev, free_at, pkts, queued))
                return True
        self._last = max(self._last, at)    # no booking until it arrives
        return False

    def _take_back(self) -> None:
        """Take back every booking still to arrive, latest first -- its
        far end, its place on the serialiser -- and let it arrive for real."""
        held = self._held
        while held and held[-1][0] > self.sim._now:
            at, pkt, ev, free_at, _, _ = held.pop()
            if ev is None:
                self.sink.withdraw(pkt, self._free_at + self.delay_s)
            else:
                ev.cancel()
            self._free_at, self._last = free_at, max(self._last, at)
            self.sim.post(at, -1, self.send, (pkt,))

    def add_feeder(self) -> None:
        """One more hop sends into the link: its packets may overtake."""
        self._take_back()
        self.feeders += 1

    # ------------------------------------------------------------------
    # Trains read, not fired
    # ------------------------------------------------------------------
    def _reads(self) -> bool:
        """Trains can be read: the link is plain, off the chain and up, and
        asks its far end (an untraced run), so an admission posts nothing."""
        return (self._plain and not self._busy and self.up
                and self._ahead is not None)

    def _carry(self, train) -> bool:
        """Hold ``train``'s pending packet -- arriving at ``train._at``,
        its event posted at ``_posted`` by one of ``_priority`` -- and admit
        it there.  False, and the train posts its event, unless
        :meth:`_reads`."""
        if not self._reads():
            return False
        self._read_trains()     # what arrived before this instant goes first
        if self._held:
            self._take_back()   # a cross port feeds it: nothing is booked
        heappush(self._trains, (train._at, train._posted, train._priority,
                                self._tseq, train))
        self._tseq += 1
        hooks = getattr(self.trace, "settlers", None)
        if hooks is not None and self._read_trains not in hooks:
            hooks.append(self._read_trains)     # notes come after drops
        return True

    def _read_trains(self) -> None:
        """Admit every train packet that has arrived by now, in instant
        order, each at its instant: the clock reads it while the packet is
        decided, so a drop is reported then.  The head train is read in
        runs: its packets are admitted one after another while its next key
        sorts before every other train's (the lesser of the root's two
        children), and the heap is touched once per run.  An admission
        does not reach the heap (a read it sets off finds ``_reading``),
        so the head's key may stay stale until its run ends."""
        trains = self._trains
        if not trains or self._reading:
            return
        sim = self.sim
        now = sim._now
        if trains[0][0] > now:
            return
        self._reading = True
        admit = self._admit
        try:
            while trains:
                at, _, _, _, train = trains[0]
                if at > now:
                    break
                n = len(trains)
                rival = (None if n == 1 else trains[1]
                         if n == 2 or trains[1] < trains[2] else trains[2])
                rival_at = inf if rival is None else rival[0]
                while True:
                    sim._now = at
                    admit(train._emit(), at)
                    at = train._at
                    # A tie with the rival goes to the lesser (posted,
                    # priority); on equal ones the rival's older counter wins.
                    if at > now or at > rival_at or at == rival_at and not (
                            (train._posted, train._priority)
                            < (rival[1], rival[2])):
                        break
                if at < inf:
                    heapreplace(trains, (at, train._posted, train._priority,
                                         self._tseq, train))
                    self._tseq += 1
                else:
                    heappop(trains)
        finally:
            sim._now = now
            self._reading = False

    def _release(self) -> None:
        """Hand every train back to its own event (the link is about to
        stop planning), in the order the link would have read them."""
        trains, self._trains = sorted(self._trains), []
        for *_, train in trains:
            train._release()

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
    # The two-event chain: lossy and jittered links, and a plain one
    # from a mutation until its backlog has drained.
    # ------------------------------------------------------------------
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
        if pkt is not None:
            self._finish_tx(pkt)
        if not self._queue._q:
            self._busy = False
            self._service = None
        elif self._plain and self.up:
            self._replan()
        else:
            self._start_transmission()

    def _replan(self) -> None:
        """Leave the chain: the head of the backlog starts now and every
        packet behind it is planned, as :meth:`send` would have planned
        them behind a busy serialiser (the chain's float additions)."""
        queue = self._queue
        bw, delay, ahead = self.bandwidth_bps, self.delay_s, self._ahead
        head = self._service = queue.pop()
        self._bytes_sent += head.wire_size
        self._packets_sent += 1
        plan = self._plan
        start = self.sim._now
        for pkt in (head, *queue._q):
            free_at = start + pkt.wire_size * 8.0 / bw
            at = free_at + delay
            ev = (None if ahead is not None and ahead(pkt, at)
                  else self.sim.post(at, -1, self.sink.receive, (pkt,)))
            if pkt is head:
                self._arrival = ev
            else:
                plan.append((start, ev))
            start = free_at
        self._free_at = start
        self._busy = False

    def _unfuse(self) -> None:
        """Take back every promise not yet kept -- the arrival of the
        packet still serialising and of each planned one behind it, latest
        first -- and let a real completion at the former's finish put them
        on the two-event chain, to meet there what the caller changes.
        Every train goes back to its own event."""
        if self._busy:
            return
        self._take_back()
        self._settle(True)
        if self._trains:
            self._release()
        plan = self._plan
        ends = [start for start, _ in plan]     # a start is the finish of
        ends.append(self._free_at)              # the packet ahead
        finish, now, delay = ends[0], self.sim._now, self.delay_s
        if now > finish:
            return                              # idle: nothing unfinished
        if self._service is not None and finish + delay <= now:
            self._service = None                # ... and it has arrived
        promised = zip((self._service, *self._queue._q),
                       (self._arrival, *(ev for _, ev in plan)), ends)
        for pkt, ev, end in reversed(list(promised)):
            if pkt is None:
                pass                            # only a backlog to serve
            elif ev is not None:
                ev.cancel()
            else:
                self.sink.withdraw(pkt, end + delay)
        if self._service is not None:
            self._bytes_sent -= self._service.wire_size
            self._packets_sent -= 1
        if plan:
            plan.clear()
        self._arrival = None
        self._free_at = finish
        self._busy = True
        self.sim.at(finish, self._tx_done)

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
        """Change the link rate mid-run (capacity ramp/cliff).  A packet
        already serialising keeps its old transmission time."""
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if bandwidth_bps != self.bandwidth_bps:     # else: not a change
            self._unfuse()
            self.bandwidth_bps = bandwidth_bps

    def set_delay(self, delay_s: float) -> None:
        """Change the propagation delay mid-run (path change).  Packets
        already in flight keep their old delay, which can reorder across
        the boundary -- exactly what a real path change does."""
        if delay_s < 0:
            raise ValueError("propagation delay cannot be negative")
        if delay_s != self.delay_s:
            self._unfuse()
            self.delay_s = delay_s

    def telemetry_probe(self) -> dict[str, float]:
        """Read-only wire counters for the telemetry recorder (cumulative;
        the recorder differences successive probes for utilisation)."""
        return {"bytes_sent": float(self.bytes_sent),
                "packets_sent": float(self.packets_sent),
                "packets_lost_wire": float(self.packets_lost_wire),
                "up": 1.0 if self.up else 0.0}

    def accounting_violation(self) -> str | None:
        """Wire accounting at this link: every queue departure must either
        have finished serialising (``packets_sent``) or still hold the
        serialiser -- planned (until its finish) or awaiting ``_tx_done``.
        Returns a description, or None when sane."""
        st = self.queue.stats
        in_service = int(self._in_service())
        packets_sent = self.packets_sent
        if st.departures != packets_sent + in_service:
            return (f"link accounting: queue departures={st.departures} != "
                    f"packets_sent={packets_sent} + "
                    f"in_service={in_service}")
        return None

    # A pickled link (``ScenarioResult.detach``) keeps its books, not its
    # traffic: the heap is drained, so the plan, the completion event, the
    # packet on the serialiser and its arrival go, and ``_free_at = inf``
    # stands in for that packet in the accounting.  Property-backed fields
    # are read through the property: counters as an observer sees them.
    def __getstate__(self) -> dict:
        names = (_PUBLIC.get(name, name) for name in self.__slots__
                 if name not in _TRANSIENT)
        state = {name: getattr(self, name) for name in names}
        if self._in_service():
            state["_free_at"] = inf
        elif self._held:
            state["_free_at"] = self._held[0][3]
        return state

    def __setstate__(self, state: dict) -> None:
        self._busy = self._reading = False
        self._service = self._arrival = None
        self._plan, self._held, self._trains = deque(), deque(), []
        self._tseq = 0
        self._free_at = self._last = -inf
        self.feeders = 0        # pickled before feeders were counted
        for name, value in state.items():
            setattr(self, _PRIVATE.get(name, name), value)
        self._refresh_plain()
        self._queue.link = self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Link {self.name} {self.bandwidth_bps/1e6:.1f}Mbps "
                f"{self.delay_s*1e3:.1f}ms q={len(self.queue)}>")
