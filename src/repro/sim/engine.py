"""Deterministic discrete-event simulation engine.

The engine is the substrate for the whole reproduction: links, transport
protocols, applications and cross-traffic sources all advance by scheduling
callbacks on a single virtual clock.  Using virtual time (rather than wall
clock) is the key substitution that makes this reproduction faithful in
Python: the paper measures rate-control timing, and an interpreter cannot
hold microsecond pacing in real time, but a discrete-event clock is exact.

Design notes
------------
* Heap entries are plain ``(time, priority, seq, event)`` tuples so that
  :mod:`heapq` orders them with C-level tuple comparison -- no Python
  ``__lt__`` dispatch on the hot path.  ``seq`` is a monotonically
  increasing tiebreaker so that events scheduled for the same instant fire
  in scheduling order and no comparison ever reaches the (uncomparable)
  event object -- this makes every simulation fully deterministic for a
  fixed seed.
* ``priority`` orders simultaneous events independently of scheduling order
  when a component needs it (e.g. deliver packets before timers fire).
  Lower sorts first; the default is 0.
* Timers are cancellable via the returned :class:`Event` handle; cancellation
  is O(1) (the entry is flagged dead and skipped when popped), which matters
  because retransmission timers are cancelled far more often than they fire.
* Dead entries are *compacted* out of the heap once they outnumber the live
  ones (beyond a small floor), so retransmission-heavy runs that cancel
  millions of timers keep the heap -- and every push/pop -- bounded by the
  live event count instead of the cancellation history.
* :meth:`Simulator.pending` is O(1): live events are ``len(heap)`` minus a
  dead-entry counter maintained on cancel/pop/compact.
* The schedule and fire paths are deliberately hand-flattened (inline event
  construction, module-level heap functions, one run loop with its lookups
  bound to locals): together these are worth >60% event throughput, which
  bounds every experiment's wall clock.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable

from ..obs.bus import NULL_BUS

__all__ = ["Event", "Simulator", "SimulationError", "callback_label"]


def callback_label(fn: Callable[..., Any]) -> str:
    """Stable human-readable label for a scheduled callback.

    Bound methods and functions report their ``__qualname__``
    (``WindowedSender._metric_tick``); callable objects fall back to their
    type name.  Pure function of the callable -- the self-profiler keys
    event counts on it, and those counts must be config-deterministic.
    """
    label = getattr(fn, "__qualname__", None)
    if label is None:
        label = type(fn).__name__
    return label

#: Compaction floor: heaps smaller than this are never compacted (the
#: rebuild would cost more than the dead entries do).
_COMPACT_MIN = 64


class SimulationError(RuntimeError):
    """Raised for invalid engine operations (e.g. scheduling in the past)."""


class Event:
    """Handle for a scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` /
    :meth:`Simulator.at` and can be cancelled.  A fired or cancelled event is
    inert; cancelling it again is a no-op.  The simulator builds them
    through ``__new__`` and slot stores; there is no constructor.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "_alive", "_sim")

    @property
    def alive(self) -> bool:
        """True until the event fires or is cancelled."""
        return self._alive

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        if self._alive:
            self._alive = False
            sim = self._sim
            if sim is not None:
                sim._note_dead()

    def __getstate__(self):
        return (self.time, self.priority, self.seq, self.fn, self.args,
                self._alive, self._sim)

    def __setstate__(self, state):
        (self.time, self.priority, self.seq, self.fn, self.args,
         self._alive, self._sim) = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self._alive else "dead"
        return f"<Event t={self.time:.6f} {callback_label(self.fn)} {state}>"


class Simulator:
    """Single-threaded discrete-event scheduler with a virtual clock.

    Typical use::

        sim = Simulator()
        sim.schedule(1.0, hello)          # relative delay
        sim.at(5.0, goodbye)              # absolute time
        sim.run(until=10.0)

    The clock starts at ``0.0`` and only advances when events are popped, so
    the simulation is exactly reproducible regardless of host load.
    """

    def __init__(self) -> None:
        self._now = 0.0
        # (time, priority, seq, Event) -- see module docstring.
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._running = False
        self._dead = 0   # cancelled entries not yet popped/compacted
        # Trace bus; components cache this at construction, so replace it
        # (with an enabled repro.obs TraceBus) before building topology.
        self.bus = NULL_BUS
        self._flow_ids = 0

    def next_flow_id(self) -> int:
        """Flow identifiers are allocated per simulation (not per process)
        so a scenario's packet flows -- and therefore its trace -- are a
        pure function of its config."""
        self._flow_ids += 1
        return self._flow_ids

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    # schedule() and post() build the Event inline (__new__ + slot stores)
    # rather than calling Event(): they are the hottest allocation site in
    # the whole simulator and the constructor-call frame is measurable.
    # at() is the checked, variadic front of post().

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any,
                 priority: int = 0) -> Event:
        """Run ``fn(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        ev = Event.__new__(Event)
        ev.time = time
        ev.priority = priority
        ev.seq = seq
        ev.fn = fn
        ev.args = args
        ev._alive = True
        ev._sim = self
        heappush(self._heap, (time, priority, seq, ev))
        return ev

    def at(self, time: float, fn: Callable[..., Any], *args: Any,
           priority: int = 0) -> Event:
        """Run ``fn(*args)`` at absolute virtual ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time!r}, now is {self._now!r}")
        return self.post(time, priority, fn, args)

    def post(self, time: float, priority: int, fn: Callable[..., Any],
             args: tuple) -> Event:
        """:meth:`at` for the per-hop path: the caller hands over the
        argument tuple as is and has already established ``time >= now``
        (it computed ``time`` by adding non-negative delays to the clock),
        so neither the ``*args``/keyword packing nor the past-time check
        is paid again."""
        seq = self._seq
        self._seq = seq + 1
        ev = Event.__new__(Event)
        ev.time = time
        ev.priority = priority
        ev.seq = seq
        ev.fn = fn
        ev.args = args
        ev._alive = True
        ev._sim = self
        heappush(self._heap, (time, priority, seq, ev))
        return ev

    # ------------------------------------------------------------------
    # Dead-entry accounting / compaction
    # ------------------------------------------------------------------
    def _note_dead(self) -> None:
        """Called by :meth:`Event.cancel`; compacts when dead entries
        dominate the heap."""
        self._dead += 1
        if self._dead > _COMPACT_MIN and self._dead * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop every dead entry and re-heapify (in place, so hot loops
        holding a reference to the heap list stay valid)."""
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[3]._alive]
        heapify(heap)
        self._dead = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> int:
        """Process events until the heap drains or ``until`` is reached.
        Returns the number of events fired.

        When ``until`` is given the clock is left exactly at ``until`` even if
        the last event fired earlier, so back-to-back ``run`` calls compose.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        # Local bindings: every lookup in this loop is per-event cost.
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
                pop(heap)
                self._now = time
                ev._alive = False
                ev.fn(*ev.args)
                fired += 1
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return fired

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Number of live events still queued (O(1))."""
        return len(self._heap) - self._dead

    def drain(self) -> None:
        """Discard every queued event (live and dead).

        Used when a finished simulation is detached for pickling or
        caching: pending events may close over locals that cannot (and
        need not) be serialised.
        """
        self._heap.clear()
        self._dead = 0

    def audit(self) -> str | None:
        """Cheap internal-consistency check of the scheduler state.

        Returns a description of the first problem found, or None when the
        engine is sane.  Used by :mod:`repro.invariants`; kept here because
        it reads private state.  O(1) -- it inspects counters and the heap
        head only, never walks the heap.
        """
        heap = self._heap
        dead = self._dead
        if dead < 0:
            return f"dead-entry counter negative ({dead})"
        if dead > len(heap):
            return (f"dead-entry counter {dead} exceeds heap size "
                    f"{len(heap)}")
        if heap:
            head_time = heap[0][0]
            if head_time < self._now - 1e-9:
                return (f"heap head at t={head_time!r} is in the past "
                        f"(now={self._now!r})")
        return None
