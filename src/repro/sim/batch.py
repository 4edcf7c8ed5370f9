"""Burst-level speed tier: coalesced link hot path (``BatchLink``).

The per-packet :class:`~repro.sim.link.Link` costs two engine events per
backlogged hop -- one serialization completion, one propagation arrival --
and one per idle hop (it fuses the two when nothing waits behind the
packet), plus the heap traffic they imply.  At population scale (ROADMAP:
thousands of concurrent sessions) that heap churn *is* the simulation's
wall clock.

:class:`BatchLink` removes it without changing a single observable:

* **TX chain.** One continuation event serves the whole egress queue.
  After finishing a packet at its serialization instant, the link peeks the
  engine heap: while the *next* packet's finish key ``(time, priority=0)``
  sorts strictly before every other pending event (and inside the active
  ``run(until=...)`` bound), the link advances the virtual clock inline and
  finishes that packet too -- no heap round-trip.  The moment a foreign
  event intrudes (an ACK arrival, a timer, a telemetry tick), the link
  schedules one ordinary continuation event and yields, degrading exactly
  to the per-packet cadence.
* **Arrival chain.** In-flight packets live in a per-link heap of
  ``(arrival_time, idx, pkt)``; a single scheduled event (priority -1, like
  per-packet arrivals) covers the head.  When it fires, later arrivals are
  delivered inline under the same intrusion guard, with the clock advanced
  to each packet's exact arrival instant before its ``sink.receive`` runs,
  so RTT bookkeeping and trace timestamps are bit-identical.
* **Array fast path.** When the egress queue holds a back-to-back burst, no
  stochastic models are armed (wire loss, jitter), tracing is off, and the
  sink is a *terminal* sink advertising ``receive_burst`` (it schedules
  nothing and reads nothing but its arguments -- e.g.
  :class:`~repro.transport.udp.UdpSink`), the whole burst collapses into
  one array-level step: finish times by prefix sum, counters in bulk, one
  ``receive_burst`` delivery.  Pure-Python lists by default; setting
  ``REPRO_ACCEL=numpy`` switches the prefix sum to numpy (falling back
  silently when numpy is unavailable).  Both variants perform the *same*
  float operations in the same association order as the scalar chain, so
  results stay bit-identical.

Correctness argument, in one paragraph: between two consecutive events the
engine's state is unobservable -- nothing runs.  Inlining a sub-step whose
key sorts strictly before the heap head therefore executes the exact same
callback at the exact same virtual time the heap would have chosen, minus
the push/pop.  The guard yields conservatively on exact ``(time,
priority)`` ties, and inlining is only legal while
``Simulator._inline_until`` admits it -- which the engine grants only in
plain bounded/drain runs (never under ``max_events``, never in the
:class:`~repro.invariants.engine.CheckedSimulator` or profiled loops, which
keep strict per-event cadence so their per-event checks and
config-deterministic event counts hold unchanged).

Bit-identity of ``ScenarioResult.summary``/telemetry/traces against the
per-packet path is enforced by ``tests/test_batch.py`` across every
transport and by the ``repro fuzz`` burst differential pass.
"""

from __future__ import annotations

import os
from heapq import heappop as _flight_pop, heappush as _flight_push

from .engine import Simulator
from .link import Link, LossModel, PacketSink
from .packet import Packet

__all__ = ["BatchLink", "accel_mode", "load_numpy"]

#: Minimum queued packets before the array fast path is attempted; below
#: this the scalar inline loop wins (array setup has fixed cost).
_BULK_MIN = 4

_np = None
_np_checked = False


def load_numpy():
    """Import numpy once; returns the module or None when unavailable."""
    global _np, _np_checked
    if not _np_checked:
        _np_checked = True
        try:
            import numpy
            _np = numpy
        except ImportError:  # pragma: no cover - numpy ships with the repo
            _np = None
    return _np


def accel_mode() -> str:
    """The process-wide accelerator selection (``REPRO_ACCEL`` env var).

    ``"numpy"`` arms the numpy prefix-sum fast path; anything else (or
    unset) selects the pure-Python array implementation.
    """
    return os.environ.get("REPRO_ACCEL", "").strip().lower()


class BatchLink(Link):
    """Drop-in :class:`Link` with the coalesced burst hot path.

    Construction mirrors :class:`Link`; ``accel`` overrides the
    process-wide :func:`accel_mode` for this link (tests and benches pass
    it explicitly so they never depend on ambient environment).
    """

    __slots__ = ("_np", "_flight", "_flight_idx", "_arrival_ev",
                 "_sink_burst")

    # The TX and arrival chains below replace the per-packet link's
    # single-event transit; a packet in service is always ``_service``.
    _fuses = False

    def __init__(self, sim: Simulator, bandwidth_bps: float, delay_s: float,
                 sink: PacketSink, *, accel: str | None = None, **kw):
        super().__init__(sim, bandwidth_bps, delay_s, sink, **kw)
        mode = accel_mode() if accel is None else accel
        self._np = load_numpy() if mode == "numpy" else None
        # In-flight packets: heap of (arrival_time, idx, pkt).  idx is a
        # per-link monotone counter so equal-time arrivals keep send order
        # and the heap never compares Packet objects.
        self._flight: list[tuple[float, int, Packet]] = []
        self._flight_idx = 0
        self._arrival_ev = None
        self._sink_burst = getattr(sink, "receive_burst", None)

    # ------------------------------------------------------------------
    # TX chain
    # ------------------------------------------------------------------
    def _start_transmission(self) -> None:
        pkt = self._queue.pop()
        self._busy = True
        self._service = pkt
        self.sim.schedule(self.tx_time(pkt), self._tx_step)

    def _tx_step(self) -> None:
        """Finish the in-service packet, then keep serialising queued
        packets inline while no foreign event intrudes."""
        sim = self.sim
        queue = self._queue
        heap = sim._heap
        tried_bulk = False
        while True:
            # Array fast path first: the in-service packet finished at this
            # very instant and nothing has been recorded for it yet, so the
            # whole run -- service packet plus egress queue -- can collapse
            # into one array step (the check precedes _finish_tx because a
            # finished packet enters the flight heap, and the bulk path
            # requires no earlier in-flight deliveries).
            if (not tried_bulk and len(queue) >= _BULK_MIN
                    and self._sink_burst is not None and self.up
                    and type(self._loss) is LossModel and self._jitter is None
                    and not self.trace.enabled and not self._flight):
                tried_bulk = True
                if self._tx_burst():
                    return
            self._finish_tx(self._service)
            if queue.empty:
                self._service = None
                self._busy = False
                return
            pkt = queue.pop()
            self._service = pkt
            finish = sim._now + pkt.wire_size * 8.0 / self.bandwidth_bps
            if finish > sim._inline_until or sim._stopped:
                sim.at(finish, self._tx_step)
                return
            # Intrusion guard: yield unless our key (finish, 0) sorts
            # strictly before the next live heap entry (ties yield, so the
            # heap keeps authority over simultaneous events).
            while heap and not heap[0][3]._alive:
                _drop_dead(sim)
            if heap:
                entry = heap[0]
                etime = entry[0]
                if etime < finish or (etime == finish and entry[1] <= 0):
                    sim.at(finish, self._tx_step)
                    return
            sim._now = finish

    # ------------------------------------------------------------------
    def _tx_burst(self) -> bool:
        """Array-level drain of the in-service packet plus the whole egress
        queue in one step.

        Preconditions (checked by the caller): link up, no wire-loss RNG,
        no jitter, tracing off, no earlier in-flight packets, terminal
        sink, and the in-service packet's serialization completed at
        ``sim.now`` with nothing recorded for it yet.  Computes every
        finish/arrival instant with the exact float operations of the
        scalar chain (left-to-right prefix sum, then one ``+ delay_s``),
        so the result is bit-identical.  Returns False -- having mutated
        nothing -- when the burst would cross the inline bound or a
        foreign event.
        """
        sim = self.sim
        queue = self._queue
        bw = self.bandwidth_bps
        delay = self.delay_s
        service = self._service
        np = self._np
        if np is not None:
            sizes = np.fromiter((p.wire_size for p in queue._q),
                                dtype=np.float64, count=len(queue))
            times = np.empty(len(sizes) + 1)
            times[0] = sim._now
            np.multiply(sizes, 8.0, out=times[1:])
            times[1:] /= bw
            np.cumsum(times, out=times)  # sequential: scalar association
            arrivals_arr = times[1:] + delay
            wire_bytes = service.wire_size + int(sizes.sum())
            last_arrival = float(arrivals_arr[-1])
            arrivals = None  # materialised after the guard passes
        else:
            t = sim._now
            wire_bytes = service.wire_size
            arrivals = []
            push = arrivals.append
            for p in queue._q:
                w = p.wire_size
                wire_bytes += w
                t = t + w * 8.0 / bw
                push(t + delay)
            last_arrival = arrivals[-1]
        if last_arrival > sim._inline_until or sim._stopped:
            return False
        heap = sim._heap
        while heap and not heap[0][3]._alive:
            _drop_dead(sim)
        if heap:
            entry = heap[0]
            etime = entry[0]
            if etime < last_arrival or (etime == last_arrival
                                        and entry[1] <= -1):
                return False
        if arrivals is None:
            arrivals = arrivals_arr.tolist()
        # The service packet finished at sim.now, so it arrives first.
        pkts = queue.pop_all()
        pkts.insert(0, service)
        arrivals.insert(0, sim._now + delay)
        self._bytes_sent += wire_bytes
        self._packets_sent += len(pkts)
        sim._now = last_arrival
        self._sink_burst(pkts, arrivals)
        self._service = None
        self._busy = False
        return True

    # ------------------------------------------------------------------
    # Arrival chain
    # ------------------------------------------------------------------
    def _deliver(self, pkt: Packet, delay: float) -> None:
        sim = self.sim
        t = sim._now + delay
        idx = self._flight_idx
        self._flight_idx = idx + 1
        _flight_push(self._flight, (t, idx, pkt))
        ev = self._arrival_ev
        if ev is None:
            self._arrival_ev = sim.at(t, self._arrival_step, priority=-1)
        elif t < ev.time:
            # Jitter reordering: an earlier arrival displaced the head.
            ev.cancel()
            self._arrival_ev = sim.at(t, self._arrival_step, priority=-1)

    def _arrival_step(self) -> None:
        """Deliver the head in-flight packet, then later ones inline while
        no foreign event intrudes."""
        self._arrival_ev = None
        sim = self.sim
        flight = self._flight
        heap = sim._heap
        receive = self.sink.receive
        pop = _flight_pop
        while flight:
            head = flight[0]
            t = head[0]
            if t > sim._now:
                if t > sim._inline_until or sim._stopped:
                    self._arrival_ev = sim.at(t, self._arrival_step,
                                              priority=-1)
                    return
                while heap and not heap[0][3]._alive:
                    _drop_dead(sim)
                if heap:
                    entry = heap[0]
                    etime = entry[0]
                    if etime < t or (etime == t and entry[1] <= -1):
                        self._arrival_ev = sim.at(t, self._arrival_step,
                                                  priority=-1)
                        return
                sim._now = t
            pop(flight)
            receive(head[2])


def _drop_dead(sim: Simulator) -> None:
    """Pop one dead entry off the heap head, maintaining the counter."""
    _flight_pop(sim._heap)
    sim._dead -= 1
