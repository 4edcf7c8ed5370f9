"""Always-on bounded flight recorder: the last N causal events of a run.

A failed or divergent scenario used to leave behind only a traceback; the
trace bus captures everything but is opt-in, so the one run you actually
needed evidence from never had it armed.
The flight recorder closes that gap: a deterministic, O(1)-append ring of
the last :data:`DEFAULT_CAPACITY` *cold-path* events -- retransmissions,
RTOs, stall transitions, coordination actions, drops, fault phases,
invariant violations -- that every scenario keeps by default.

Design constraints, in order:

1. **Tiny armed delta.**  No component holds the recorder: it is the
   ``ring`` of the run's bus (:mod:`repro.obs.bus`) and keeps what sites
   report through ``cold()`` and ``note()`` -- cold paths only (per
   adaptation, retransmission, drop; never per packet send/ack).  Each
   note is one ``deque.append`` of a small tuple, which keeps the
   default-configuration cost inside ``bench_obs_overhead``'s ceiling.

2. **Determinism.**  Timestamps come from the simulation clock and event
   ids from a monotone per-recorder counter that survives ring eviction, so
   the dump is a pure function of the ``ScenarioConfig`` -- byte-identical
   across ``--jobs N`` and cache hit/miss -- and a
   first-divergence id between two runs of the same config is meaningful.

3. **Serialisability.**  :meth:`FlightRecorder.dump` returns plain dicts
   and lists; the dump rides ``ScenarioResult``/``FailedResult`` through
   pickling, the worker pipe and the persistent cache unchanged.

``REPRO_FLIGHT`` controls the recorder globally: unset or empty keeps the
default capacity, an integer overrides it, and ``0`` disables recording
entirely (debugging aid only -- dumps are part of the result artifact).
"""

from __future__ import annotations

import os
from collections import deque
from typing import Any, Mapping

__all__ = [
    "FlightRecorder", "flight_from_env", "first_divergence",
    "render_flight", "DEFAULT_CAPACITY",
]

#: Default ring capacity: enough to hold the last few coordination periods
#: of a congested run without letting dumps dominate result pickles.
DEFAULT_CAPACITY = 256


class FlightRecorder:
    """Bounded ring of the last N engine/transport events.

    The recorder is created before the simulator (so a crash during setup
    still yields a dump) and bound to it with :meth:`bind`; until then
    notes carry ``t=0.0``.  It deliberately has no sinks, no filtering and
    no schema beyond ``(id, t, layer, event, fields)`` -- it is a black
    box, not a trace.
    """

    __slots__ = ("capacity", "_ring", "_next_id", "_sim")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = int(capacity)
        self._ring: deque = deque(maxlen=self.capacity)
        self._next_id = 0
        self._sim = None

    def bind(self, sim) -> None:
        """Attach the simulation clock (idempotent, cheap)."""
        self._sim = sim

    def note(self, layer: str, etype: str, **fields: Any) -> int:
        """Append one event; returns its monotone id.  O(1)."""
        i = self._next_id
        self._next_id = i + 1
        sim = self._sim
        self._ring.append(
            (i, sim._now if sim is not None else 0.0, layer, etype, fields))
        return i

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def events_noted(self) -> int:
        """Total notes ever taken (>= len(ring); ids run 0..noted-1)."""
        return self._next_id

    def dump(self) -> dict[str, Any]:
        """Plain-data snapshot of the ring, oldest event first."""
        return {
            "capacity": self.capacity,
            "events_noted": self._next_id,
            "events": [
                {"id": i, "t": t, "layer": layer, "event": etype, **f}
                for (i, t, layer, etype, f) in self._ring
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FlightRecorder {len(self._ring)}/{self.capacity} "
                f"noted={self._next_id}>")


def flight_from_env() -> FlightRecorder | None:
    """Build the per-run recorder according to ``REPRO_FLIGHT``.

    Unset/empty -> default capacity; ``0`` -> disabled (returns None);
    any other integer -> that capacity.  Invalid values fall back to the
    default rather than killing the run.
    """
    raw = os.environ.get("REPRO_FLIGHT", "").strip()
    if not raw:
        return FlightRecorder()
    try:
        cap = int(raw)
    except ValueError:
        return FlightRecorder()
    if cap == 0:
        return None
    return FlightRecorder(capacity=cap)


def first_divergence(a: Mapping[str, Any] | None,
                     b: Mapping[str, Any] | None) -> int | None:
    """First event id at which two flight dumps disagree, or None.

    Dumps from two runs of the same config share the monotone id space, so
    events are aligned by id (robust to ring eviction when the two rings
    hold different windows).  An id present in only one dump, or present in
    both with different content, is a divergence; if all shared ids agree
    but one run noted more events, the divergence is the first extra id.
    """
    if a is None or b is None:
        return None
    ea = {e["id"]: e for e in a.get("events", ())}
    eb = {e["id"]: e for e in b.get("events", ())}
    lo = 0
    if ea and eb:
        # Ignore ids evicted from one ring but still held by the other:
        # only the overlap of the two windows is comparable.
        lo = max(min(ea), min(eb))
    for i in sorted(set(ea) | set(eb)):
        if i < lo:
            continue
        if ea.get(i) != eb.get(i):
            return i
    na, nb = a.get("events_noted", 0), b.get("events_noted", 0)
    if na != nb:
        return min(na, nb)
    return None


def render_flight(dump: Mapping[str, Any] | None, *,
                  limit: int | None = None,
                  mark_id: int | None = None) -> str:
    """Human-readable last-moments timeline of one flight dump.

    ``limit`` keeps only the newest events; ``mark_id`` prefixes the named
    event with ``>>`` (the fuzzer's first-divergence marker).
    """
    if not dump or not dump.get("events"):
        return "(flight recorder empty)"
    events = list(dump["events"])
    noted = dump.get("events_noted", len(events))
    dropped = noted - len(events)
    lines = [f"flight recorder: last {len(events)} of {noted} events"
             + (f" ({dropped} older evicted)" if dropped > 0 else "")]
    if limit is not None and len(events) > limit:
        lines.append(f"  ... {len(events) - limit} earlier events elided")
        events = events[-limit:]
    for ev in events:
        extra = " ".join(
            f"{k}={v}" for k, v in ev.items()
            if k not in ("id", "t", "layer", "event"))
        marker = ">>" if ev["id"] == mark_id else "  "
        lines.append(f"{marker}#{ev['id']:<6d} t={ev['t']:.6f}s "
                     f"[{ev['layer']}] {ev['event']}"
                     + (f" {extra}" if extra else ""))
    return "\n".join(lines)
