"""The trace bus: the one place an instrumented component reports to.

A report site is written one of two ways (:mod:`repro.obs.events` says
which event goes which)::

    tr = self.trace
    if tr.enabled:          # per-packet: wanted by a trace sink alone
        tr.emit(...)
    if tr.recording:        # cold: decisions, drops, faults, retransmissions
        tr.cold(...)

:meth:`TraceBus.cold` notes the event on the flight ring and, when a sink
is attached, numbers it into the trace through ``emit`` -- one report, one
name and one set of fields on both surfaces.  The bus keeps no decision
record: the coordinator writes its own
(:attr:`~repro.core.coordination.Coordinator.actions`).
``self.trace.note(...)`` is the ring-only breadcrumb (``RTO``, ``STALL``,
``COMPLETE``, ...), unguarded because its paths are colder still.

Design constraints, in order:

1. **The disabled path must be nearly free.**  A bare ``Simulator()``
   carries the shared :data:`NULL_BUS`, whose ``enabled`` and ``recording``
   are class attributes ``False``: a site costs one attribute check,
   nothing is allocated.  A scenario with only the flight ring armed (the
   default) carries a real bus with ``enabled`` false, so its per-packet
   sites cost the same.  ``benchmarks/bench_obs_overhead.py`` counts the
   guard reads per packet and gates their sum.

2. **Determinism.**  The bus draws its timestamps from the simulation
   clock (never the wall clock) and numbers events with a per-bus counter,
   so a scenario's event stream is a pure function of its config -- the
   property the jobs=1 == jobs=N trace test pins down.

3. **Serialisability.**  Results that hold a bus (via components that
   cached it) must still pickle for the worker pool and the persistent
   cache.  A pickled :class:`TraceBus` comes back *inert*: neither enabled
   nor recording, no ring, sinks or simulator -- what it
   gathered travels separately (the worker's event list,
   ``ScenarioResult.flight`` / ``.spans`` / ``.telemetry``).
"""

from __future__ import annotations

from typing import Any

from .events import TraceEvent

__all__ = ["TraceBus", "NullBus", "NULL_BUS"]


class NullBus:
    """Null object for the disabled path.

    ``enabled`` and ``recording`` are *class* attributes so the site checks
    compile to plain attribute loads; the methods exist only for code that
    reports unconditionally (they do nothing and allocate nothing).
    """

    __slots__ = ()
    enabled = False
    recording = False

    def emit(self, layer: str, etype: str, **fields: Any) -> None:
        pass

    cold = note = emit

    def __reduce__(self):
        return (_null_bus, ())  # preserve the singleton across pickling

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullBus>"


#: Process-wide null bus; ``Simulator`` attaches it by default.
NULL_BUS = NullBus()


def _null_bus() -> NullBus:
    return NULL_BUS


class TraceBus:
    """The bus of one simulator.

    ``enabled``: per-packet events are wanted (a sink is attached);
    ``recording``: someone keeps cold events (always, on a live bus).
    ``ring`` is the run's :class:`~repro.obs.flight.FlightRecorder` or
    None.

    ``emit`` stamps the event with the simulation clock and a monotonically
    increasing sequence number and fans it out to every sink.  It returns
    nothing: an event that names another carries the name in its fields
    (a ``COORD_ACTION`` cites its exchange's ``episode``).
    """

    def __init__(self, sim, sinks=(), *, ring=None) -> None:
        self.sinks = list(sinks)
        self.enabled = bool(self.sinks)
        self.recording = True
        self.ring = ring
        if ring is not None:
            ring.bind(sim)      # the ring keeps this bus's clock
        self._sim = sim
        self._seq = 0
        # A link reading cross-traffic trains admits their packets only
        # when asked: it is asked before every note, so the ring keeps
        # instant order (asked while it reads, it does not start again).
        self.settlers: list = []

    def emit(self, layer: str, etype: str, **fields: Any) -> None:
        seq = self._seq
        self._seq = seq + 1
        ev = TraceEvent(seq, self._sim._now, layer, etype, fields)
        for sink in self.sinks:
            sink.append(ev)

    def cold(self, layer: str, etype: str, **fields: Any) -> None:
        """Report one cold event to the ring and, when a sink is
        attached, the trace."""
        ring = self.ring
        if ring is not None:
            for settle in self.settlers:
                settle()
            ring.note(layer, etype, **fields)
        if self.enabled:
            self.emit(layer, etype, **fields)

    def note(self, layer: str, etype: str, **fields: Any) -> None:
        """Ring-only breadcrumb (a name outside the trace vocabulary)."""
        ring = self.ring
        if ring is not None:
            for settle in self.settlers:
                settle()
            ring.note(layer, etype, **fields)

    @property
    def events_emitted(self) -> int:
        return self._seq

    # -- pickling: come back inert (see module docstring) -----------------
    def __getstate__(self):
        return {"enabled": False, "recording": False, "ring": None,
                "_sim": None, "_seq": self._seq, "sinks": [], "settlers": []}
