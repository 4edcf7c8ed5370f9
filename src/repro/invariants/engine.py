"""A Simulator subclass that verifies event-time monotonicity as it runs.

The stock :class:`~repro.sim.engine.Simulator` trusts its heap: the hot
loop is hand-flattened and adding even one comparison per event costs
measurable throughput on every experiment.  Arming invariants therefore
swaps in this subclass instead of branching inside the stock loop -- the
disarmed engine stays byte-identical, so disarmed overhead is exactly
zero by construction (``bench_obs_overhead`` reports the armed cost).

The checked loop verifies, for every fired event, that the heap never
hands back an event from the past -- the one engine property everything
else (RTT samples, queueing delays, metric periods) silently assumes.
"""

from __future__ import annotations

from heapq import heappop

from ..sim.engine import SimulationError, Simulator
from .violation import InvariantViolation

__all__ = ["CheckedSimulator"]

#: Tolerance for float time comparisons (engine times are sums of small
#: delays; exact equality is the norm, this absorbs representation noise).
_TIME_EPS = 1e-9


class CheckedSimulator(Simulator):
    """Drop-in :class:`Simulator` whose run loop audits the clock.

    Scheduling, cancellation and compaction are inherited unchanged, so a
    checked run executes the exact same event sequence as an unchecked
    one -- the override only *observes*.
    """

    def __init__(self) -> None:
        super().__init__()
        #: Events whose firing time was verified (introspection for tests).
        self.events_checked = 0

    def run(self, until: float | None = None) -> int:
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        heap = self._heap
        pop = heappop
        fired = 0
        try:
            while heap:
                entry = heap[0]
                ev = entry[3]
                if not ev._alive:
                    pop(heap)
                    self._dead -= 1
                    continue
                time = entry[0]
                if until is not None and time > until:
                    break
                if time < self._now - _TIME_EPS:
                    raise InvariantViolation(
                        "time-monotonicity",
                        "event fired out of order: the heap returned an "
                        "event scheduled in the past",
                        sim_time=self._now,
                        counters={"event_time": time, "now": self._now,
                                  "heap_size": len(heap)})
                pop(heap)
                self._now = time
                ev._alive = False
                ev.fn(*ev.args)
                fired += 1
                self.events_checked += 1
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return fired
