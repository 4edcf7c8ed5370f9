"""Periodic runtime invariant checker.

The checker is a passive observer scheduled on the simulation clock: every
``period`` seconds of virtual time it reads counters from the components it
watches and raises :class:`InvariantViolation` the moment a conservation
law, bound or monotonicity property stops holding.  Checks *never mutate*
-- every hook they call (``conservation_violation``, ``audit``,
``invariant_violations``, ``consistency_violation``) is a pure counter
read -- so an armed run produces bit-identical summaries to a disarmed
one; the only difference is that insanity is caught at the tick where it
appears instead of corrupting a table silently.

Laws enforced (see ISSUE 4):

* **engine**: scheduler counter sanity and heap-head time monotonicity
  (plus the per-event check in :class:`CheckedSimulator`).
* **link/queue**: datagram conservation -- every arrival is queued,
  departed, dropped, or flushed -- and serializer accounting.
* **transport**: ``snd_una <= snd_nxt`` with both non-decreasing over
  time, inflight == window occupancy, cwnd within [min_cwnd, max_cwnd],
  ``rcv_nxt`` non-decreasing, reorder buffer strictly above the ACK point.
* **middleware**: delivery-log alignment, non-decreasing delivery times,
  causality (delivery never precedes creation), and delivered-packet
  agreement between the transport receiver and the log.

Check events are scheduled at a large positive priority so at any instant
they observe the state *after* all real work at that instant -- mid-instant
transients (e.g. a popped-but-not-yet-counted packet) are not violations.
"""

from __future__ import annotations

from typing import Any

from .violation import InvariantViolation

__all__ = ["InvariantChecker", "CHECK_PRIORITY"]

#: Scheduling priority for check ticks: far above any component's, so a
#: tick always observes post-quiescent state for its instant.
CHECK_PRIORITY = 1 << 20


class InvariantChecker:
    """Arms periodic invariant sweeps over watched components.

    Usage::

        checker = InvariantChecker(sim, scenario="iq/greedy/seed=1")
        checker.watch_network(net)          # Dumbbell
        checker.watch_flow(conn, log)       # connection (+ delivery log)
        checker.arm()
        ...  # run the simulation
        checker.final()                     # one last sweep
    """

    def __init__(self, sim, *, period: float = 0.25, scenario: str = ""):
        if period <= 0:
            raise ValueError("check period must be positive")
        self.sim = sim
        self.period = period
        self.scenario = scenario
        self.checks_run = 0
        self._links: list[Any] = []
        self._flows: list[tuple[Any, Any | None]] = []  # (conn, log|None)
        # Monotonic sequence counters: label -> last observed value.
        self._mono: dict[str, int] = {}
        # Per-log scan cursor so consistency checks stay incremental.
        self._log_cursor: list[int] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def watch_network(self, net) -> None:
        """Watch a dumbbell's bottleneck links (both directions)."""
        self._links.extend((net.forward, net.backward))

    def watch_link(self, link) -> None:
        self._links.append(link)

    def watch_flow(self, conn, log=None) -> None:
        """Watch a windowed connection and (optionally) its delivery log.

        When ``log`` is given the checker also enforces that the transport
        receiver's delivered-packet count equals the log length -- the
        frame-accounting handshake between transport and middleware.
        """
        self._flows.append((conn, log))
        self._log_cursor.append(0)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Start the periodic sweep (call after topology construction)."""
        self.sim.schedule(self.period, self._tick, priority=CHECK_PRIORITY)

    def _tick(self) -> None:
        self.check_all()
        self.sim.schedule(self.period, self._tick, priority=CHECK_PRIORITY)

    def final(self) -> None:
        """One last sweep after the run loop exits (end-state laws such as
        completion consistency bind tightest here)."""
        self.check_all()

    # ------------------------------------------------------------------
    # The sweep
    # ------------------------------------------------------------------
    def _fail(self, name: str, message: str, **counters) -> None:
        self.sim.bus.note("run", "VIOLATION", name=name, message=message,
                          checks_run=self.checks_run, **counters)
        raise InvariantViolation(name, message, sim_time=self.sim.now,
                                 scenario=self.scenario, counters=counters)

    def _check_mono(self, label: str, value: int) -> None:
        prev = self._mono.get(label)
        if prev is not None and value < prev:
            self._fail("sequence-monotonicity",
                       f"{label} regressed", previous=prev, current=value)
        self._mono[label] = value

    def check_all(self) -> None:
        """Run every registered check once; raises on the first violation."""
        self.checks_run += 1

        audit = getattr(self.sim, "audit", None)
        if audit is not None:
            bad = audit()
            if bad is not None:
                self._fail("engine-audit", bad,
                           pending=self.sim.pending())

        for link in self._links:
            bad = link.queue.conservation_violation()
            if bad is not None:
                st = link.queue.stats
                self._fail("queue-conservation", f"{link.name}: {bad}",
                           arrivals=st.arrivals, departures=st.departures,
                           drops=st.drops, flushed=st.flushed,
                           queued=len(link.queue))
            bad = link.accounting_violation()
            if bad is not None:
                self._fail("link-accounting", f"{link.name}: {bad}",
                           packets_sent=link.packets_sent,
                           lost_wire=link.packets_lost_wire)

        for idx, (conn, log) in enumerate(self._flows):
            snd = conn.sender
            rcv = conn.receiver
            for bad in snd.invariant_violations():
                self._fail("sender-state", bad,
                           snd_una=snd.snd_una, snd_nxt=snd.snd_nxt,
                           inflight=snd.inflight, cwnd=snd.cc.cwnd)
            for bad in rcv.invariant_violations():
                self._fail("receiver-state", bad,
                           rcv_nxt=rcv.reorder.rcv_nxt,
                           buffered=len(rcv.reorder))
            fec = getattr(conn, "fec", None)
            if fec is not None:
                bad = fec.conservation_violation()
                if bad is not None:
                    self._fail("fec-conservation", bad,
                               repairs_sent=fec.repairs_sent,
                               recovered=fec.recovered,
                               unrecoverable=fec.unrecoverable,
                               repairs_unused=fec.repairs_unused,
                               redundancy=fec.r)
            self._check_mono(f"flow{idx}.snd_una", snd.snd_una)
            self._check_mono(f"flow{idx}.snd_nxt", snd.snd_nxt)
            self._check_mono(f"flow{idx}.rcv_nxt", rcv.reorder.rcv_nxt)
            if log is not None:
                bad = log.consistency_violation(self._log_cursor[idx])
                if bad is not None:
                    self._fail("delivery-log", bad, entries=len(log))
                self._log_cursor[idx] = len(log)
                if rcv.stats.delivered_packets != len(log):
                    self._fail(
                        "frame-accounting",
                        "transport delivered-packet count disagrees with "
                        "the middleware delivery log",
                        delivered_packets=rcv.stats.delivered_packets,
                        log_entries=len(log))
