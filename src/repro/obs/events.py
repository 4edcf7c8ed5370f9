"""The event vocabulary -- :data:`VOCABULARY`, one table -- and the record.

Every event names *one* causally meaningful step of a run and reaches the
bus (:mod:`repro.obs.bus`) one of two ways.  A **cold** event (a decision,
drop, fault or retransmission: never one per packet) goes through
``cold()`` and lands, under one name with one set of fields, in the flight
ring and -- when a sink is attached -- in the trace.  An **emit** event is
wanted by a trace alone and goes through ``emit()`` behind ``tr.enabled``.

An :data:`ATTR_RECEIVED` carries its ``episode``, the exchange's index in
the coordinator's record
(:attr:`~repro.core.coordination.Coordinator.exchanges`), and a
:data:`COORD_ACTION` the ``episode`` of the exchange that caused it, None
for a transport-initiated action (stall degrade/recover, the redundancy
controller).  The key is the record's own, so the flight ring is the same
traced or not, and the report pairs a trace's events and a result's record
with one function (:func:`repro.obs.report.decision_chain`).
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = [
    "PACKET_SEND", "PACKET_DROP", "PACKET_ACK", "PACKET_RETX",
    "CWND_CHANGE", "QUEUE_DEPTH", "CALLBACK_FIRED", "ATTR_SENT",
    "ATTR_RECEIVED", "COORD_ACTION", "ADAPT_ACTION", "PERIOD_ROLL",
    "FAULT_PHASE", "LINK_FAIL", "LINK_RECOVER",
    "FEC_REPAIR", "FEC_RECOVERED", "FRAME_ABANDONED",
    "VOCABULARY", "EVENT_TYPES", "COLD_TYPES", "RING_ONLY",
    "LAYERS", "TraceEvent",
]

PACKET_SEND = "PACKET_SEND"
PACKET_DROP = "PACKET_DROP"
PACKET_ACK = "PACKET_ACK"
PACKET_RETX = "PACKET_RETX"
CWND_CHANGE = "CWND_CHANGE"
QUEUE_DEPTH = "QUEUE_DEPTH"
CALLBACK_FIRED = "CALLBACK_FIRED"
ATTR_SENT = "ATTR_SENT"
ATTR_RECEIVED = "ATTR_RECEIVED"
COORD_ACTION = "COORD_ACTION"
ADAPT_ACTION = "ADAPT_ACTION"
PERIOD_ROLL = "PERIOD_ROLL"
FAULT_PHASE = "FAULT_PHASE"
LINK_FAIL = "LINK_FAIL"
LINK_RECOVER = "LINK_RECOVER"
# FEC repair tier (armed scenarios only; disarmed traces never carry these).
FEC_REPAIR = "FEC_REPAIR"
FEC_RECOVERED = "FEC_RECOVERED"
# Deadline-aware frame scheduling: a segment abandoned unsent because its
# frame's delivery deadline passed.
FRAME_ABANDONED = "FRAME_ABANDONED"

#: type -> (reporting layer, path, the step it names).
VOCABULARY = {
    PACKET_SEND: ("transport", "emit", "a (re)transmission left the sender"),
    PACKET_ACK: ("transport", "emit", "the cumulative ACK advanced"),
    PACKET_RETX: ("transport", "cold", "loss declared, repair chosen"),
    PACKET_DROP: ("net", "cold", "kind = queue | red | wire | down"),
    QUEUE_DEPTH: ("net", "emit", "a new occupancy peak"),
    LINK_FAIL: ("net", "cold", "link down, its queue flushed"),
    LINK_RECOVER: ("net", "cold", "link up again"),
    FAULT_PHASE: ("net", "cold", "a fault-schedule phase edge"),
    CWND_CHANGE: ("transport", "emit", "the congestion window moved"),
    PERIOD_ROLL: ("transport", "emit", "a metric period closed"),
    CALLBACK_FIRED: ("transport", "emit", "a threshold callback ran"),
    ATTR_SENT: ("transport", "emit", "attributes handed to the transport"),
    FRAME_ABANDONED: ("transport", "cold", "a segment expired unsent"),
    FEC_REPAIR: ("transport", "emit", "a repair segment was sent"),
    FEC_RECOVERED: ("transport", "cold", "a segment rebuilt from a repair"),
    ATTR_RECEIVED: ("coord", "cold", "an attribute set reached the law"),
    COORD_ACTION: ("coord", "cold", "what the law decided"),
    ADAPT_ACTION: ("app", "emit", "the application adapted"),
}

#: The closed vocabulary; sinks and the report validate against it.
EVENT_TYPES = frozenset(VOCABULARY)
COLD_TYPES = frozenset(t for t, row in VOCABULARY.items() if row[1] == "cold")

#: Breadcrumbs the flight ring alone keeps, through ``note()``: the run's
#: ``START`` / ``EXCEPTION`` (noted on the recorder directly, before a bus
#: exists) and ``VIOLATION``, the rest from the transport.
RING_ONLY = frozenset({
    "START", "EXCEPTION", "VIOLATION", "RTO", "STALL", "RESUME", "COMPLETE",
    "DISCARD", "FEC_GEN", "FEC_SHORT",
})

#: Emitting layers, in stack order (used by the report for display only).
LAYERS = ("net", "transport", "coord", "app")


class TraceEvent:
    """One trace record: ``(seq, t, layer, etype, fields)``.

    ``seq`` is the per-bus emission counter -- the total order of events
    within one simulation, stable across worker counts because each scenario
    owns its bus.  ``fields`` is a flat mapping of event-specific data
    (JSON-serialisable values only); field names must not collide with the
    reserved keys ``seq``/``t``/``layer``/``event``, which :meth:`as_obj`
    flattens into the same namespace -- e.g. packet sequence numbers travel
    as ``pkt``, never ``seq``.
    """

    __slots__ = ("seq", "t", "layer", "etype", "fields")

    def __init__(self, seq: int, t: float, layer: str, etype: str,
                 fields: Mapping[str, Any]):
        self.seq = seq
        self.t = t
        self.layer = layer
        self.etype = etype
        self.fields = fields

    def as_obj(self) -> dict[str, Any]:
        """Flat JSON-ready dict; reserved keys first, fields merged in."""
        obj = {"seq": self.seq, "t": self.t, "layer": self.layer,
               "event": self.etype}
        obj.update(self.fields)
        return obj

    # __slots__ classes need explicit pickle support (workers ship events
    # back to the batch parent).
    def __getstate__(self):
        return (self.seq, self.t, self.layer, self.etype, self.fields)

    def __setstate__(self, state):
        self.seq, self.t, self.layer, self.etype, self.fields = state

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TraceEvent):
            return self.__getstate__() == other.__getstate__()
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = " ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"<TraceEvent #{self.seq} t={self.t:.6f} {self.etype} {inner}>"
