"""Hierarchical causal spans: scenario -> flow -> frame -> datagram attempt.

The paper's whole argument is causal -- an application attribute change
propagates into transport coordination actions, which decide each datagram's
fate (deliver / discard / re-inflate), which determines frame timeliness --
and this module records exactly that chain.  Armed via
``ScenarioConfig(spans=True)``, a :class:`SpanRecorder` links every
application frame to:

* each of its datagram segments and every transmission / retransmission
  attempt (with the skip re-inflation flag),
* every queue/wire/down drop the segment suffered on the way,
* the coordination episodes (attribute exchange -> coordination actions,
  stall degrade/recover) running concurrently,
* the segment's final fate -- delivered, recovered (rebuilt by the FEC
  repair tier without a retransmission round trip), skipped, locally
  discarded, expired (abandoned unsent past its delivery deadline), or
  still pending at run end,

and derives a per-frame latency decomposition (serialization / queueing /
propagation / retransmission-wait) against the nominal dumbbell path.

Design constraints mirror the rest of :mod:`repro.obs`:

1. **Passive.**  Hooks only record; the recorder never schedules events,
   draws randomness or touches transport state, so an armed run's summary
   is bit-identical to a disarmed one (``spans`` *is* part of the config
   and cache key, but behaviour does not depend on it).
2. **Disarmed cost is one attribute check.**  The packet hooks key on
   packet identity and stay typed calls behind ``sp is not None``
   (``spans`` is a ``None`` class attribute on the sender/receiver); the
   decision chain is heard on the trace bus (:meth:`SpanRecorder.__call__`).
3. **Determinism.**  Everything is keyed on simulation-derived values
   (frame ids, ``(flow_id, seq)``, the sim clock), so :meth:`finalize`'s
   output is a pure function of the ``ScenarioConfig`` -- byte-identical
   across ``--jobs N`` and cache hit/miss.
4. **Serialisable.**  :meth:`finalize` returns plain dicts/lists that ride
   ``ScenarioResult.spans`` through pickling and the persistent cache.
"""

from __future__ import annotations

from typing import Any

from ..sim.packet import HEADER_BYTES, Packet
from .events import ATTR_RECEIVED, COORD_ACTION, COORD_KEYS

__all__ = ["SpanRecorder", "FRAME_OUTCOMES"]

#: Closed vocabulary of frame outcomes (see :meth:`SpanRecorder.finalize`).
FRAME_OUTCOMES = ("delivered", "degraded", "discarded", "abandoned",
                  "pending")


class SpanRecorder:
    """Collects the causal lineage of one scenario's application flow.

    Wire-up (done by ``run_scenario`` when ``cfg.spans`` is set):

    * construct right after the :class:`~repro.sim.engine.Simulator`, as
      ``sim.spans`` (links bind their drop hooks) and a listener of its bus,
    * :meth:`watch_network` after the topology exists (captures the nominal
      path for the latency decomposition),
    * :meth:`watch_flow` after the connection exists (installs the
      sender/receiver hooks),
    * :meth:`finalize` after the run loop.
    """

    def __init__(self, sim, *, scenario: str = ""):
        self.sim = sim
        self.scenario = scenario
        self._frames: dict[int, dict[str, Any]] = {}
        self._order: list[int] = []
        # Untransmitted segments keyed by packet identity; once a segment
        # is first transmitted it moves to the (flow_id, seq) map, which
        # both the retransmission and the receiver-side hooks resolve.
        self._by_pkt: dict[int, dict[str, Any]] = {}
        self._by_key: dict[tuple[int, int], dict[str, Any]] = {}
        self.episodes: list[dict[str, Any]] = []
        self.actions: list[dict[str, Any]] = []
        self._path_hops: list[tuple[float, float]] = []
        self._flow_id: int | None = None

    # ------------------------------------------------------------------
    # Wire-up
    # ------------------------------------------------------------------
    def watch_network(self, net) -> None:
        """Capture the nominal forward path (sender access -> bottleneck ->
        receiver access) for the latency decomposition.  Mid-run bandwidth
        ramps are deliberately ignored: the decomposition is a model
        against the configured path, not a measurement."""
        self._path_hops = [
            (net.ACCESS_BPS, net.ACCESS_DELAY_S),
            (net.forward.bandwidth_bps, net.forward.delay_s),
            (net.ACCESS_BPS, net.ACCESS_DELAY_S),
        ]

    def watch_flow(self, conn) -> None:
        """Install the sender/receiver hook references on ``conn``."""
        self._flow_id = conn.sender.flow_id
        conn.sender.spans = self
        conn.receiver.spans = self

    # ------------------------------------------------------------------
    # Sender-side hooks (see repro.transport.base)
    # ------------------------------------------------------------------
    def on_segment(self, pkt: Packet) -> None:
        """A segment of an application frame entered the send queue."""
        fid = pkt.frame_id
        if fid < 0:
            return
        fr = self._frames.get(fid)
        if fr is None:
            fr = {"frame_id": fid, "t_submit": self.sim._now, "bytes": 0,
                  "msgs": 0, "segments": []}
            self._frames[fid] = fr
            self._order.append(fid)
        seg = {"size": pkt.size, "marked": pkt.marked, "tagged": pkt.tagged,
               "last": pkt.last_of_frame, "seq": None, "fate": "pending",
               "t_done": None, "attempts": [], "drops": []}
        fr["segments"].append(seg)
        fr["bytes"] += pkt.size
        if pkt.last_of_frame:
            fr["msgs"] += 1
        self._by_pkt[id(pkt)] = seg

    def on_discard(self, pkt: Packet) -> None:
        """Conflict-scheme local discard: the segment never got a sequence
        number and never touched the network."""
        seg = self._by_pkt.pop(id(pkt), None)
        if seg is None:
            return
        seg["fate"] = "discarded"
        seg["t_done"] = self.sim._now

    def on_expire(self, pkt: Packet) -> None:
        """Deadline-aware scheduling abandoned the segment unsent: its
        frame's delivery deadline passed while it queued.  Like a local
        discard, it never got a sequence number."""
        seg = self._by_pkt.pop(id(pkt), None)
        if seg is None:
            return
        seg["fate"] = "expired"
        seg["t_done"] = self.sim._now

    def on_transmit(self, pkt: Packet) -> None:
        """First transmission or retransmission of a segment."""
        key = (pkt.flow_id, pkt.seq)
        seg = self._by_key.get(key)
        if seg is None:
            seg = self._by_pkt.pop(id(pkt), None)
            if seg is None:
                return
            seg["seq"] = pkt.seq
            self._by_key[key] = seg
            kind = "tx"
        else:
            kind = "retx"
        seg["attempts"].append(
            {"t": self.sim._now, "kind": kind, "skip": pkt.skip})

    # ------------------------------------------------------------------
    # Network hooks (links bind these through ``sim.spans``)
    # ------------------------------------------------------------------
    def on_drop(self, pkt: Packet, link: str, kind: str) -> None:
        """A wire copy of a tracked segment was dropped en route."""
        if pkt.frame_id < 0:
            return
        seg = self._by_key.get((pkt.flow_id, pkt.seq))
        if seg is None:
            return
        seg["drops"].append({"t": self.sim._now, "link": link, "kind": kind})

    # ------------------------------------------------------------------
    # Receiver-side hooks
    # ------------------------------------------------------------------
    def on_deliver(self, pkt: Packet) -> None:
        seg = self._by_key.get((pkt.flow_id, pkt.seq))
        if seg is None or seg["fate"] != "pending":
            return
        seg["fate"] = "delivered"
        seg["t_done"] = self.sim._now

    def on_recover(self, pkt: Packet) -> None:
        """The FEC decoder rebuilt the segment from a repair -- delivery
        without a retransmission round trip.  Fired *before* the rebuilt
        packet is injected through the receive path, so the subsequent
        ``on_deliver`` sees a non-pending fate and leaves it alone."""
        seg = self._by_key.get((pkt.flow_id, pkt.seq))
        if seg is None or seg["fate"] != "pending":
            return
        seg["fate"] = "recovered"
        seg["t_done"] = self.sim._now

    def on_skip(self, pkt: Packet) -> None:
        """A skip (hole-fill) segment consumed the sequence number: the
        original payload was abandoned by adaptive reliability."""
        seg = self._by_key.get((pkt.flow_id, pkt.seq))
        if seg is None or seg["fate"] != "pending":
            return
        seg["fate"] = "skipped"
        seg["t_done"] = self.sim._now

    # ------------------------------------------------------------------
    # The decision chain: a listener on the trace bus
    # ------------------------------------------------------------------
    def __call__(self, etype: str, fields: dict[str, Any]) -> None:
        """Bus listener (:meth:`repro.obs.bus.TraceBus.cold`).  An
        ``ATTR_RECEIVED`` opens an episode; a ``COORD_ACTION`` *carrying*
        ``attr_seq`` pairs with the open one (the coordinator reports an
        exchange and its actions back to back), one without is spontaneous."""
        if etype == COORD_ACTION:
            rec = {"t": self.sim._now, "action": fields["action"],
                   "episode": (len(self.episodes) - 1
                               if "attr_seq" in fields else None)}
            rec.update((k, v) for k, v in fields.items()
                       if k not in COORD_KEYS)
            self.actions.append(rec)
        elif etype == ATTR_RECEIVED:
            self.episodes.append({"id": len(self.episodes),
                                  "t": self.sim._now,
                                  "attrs": fields["attrs"]})

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------
    def _classify(self, fr: dict[str, Any]) -> str:
        segs = fr["segments"]
        n = len(segs)
        # A recovered segment reached the application exactly like a
        # delivered one (just via the repair tier); expired segments were
        # abandoned unsent, like skips without the sequence number.
        delivered = sum(1 for s in segs
                        if s["fate"] in ("delivered", "recovered"))
        discarded = sum(1 for s in segs if s["fate"] == "discarded")
        skipped = sum(1 for s in segs
                      if s["fate"] in ("skipped", "expired"))
        if delivered == n:
            return "delivered"
        if delivered > 0:
            return "degraded"
        if discarded == n:
            return "discarded"
        if discarded + skipped == n:
            return "abandoned"
        return "pending"

    def _decompose(self, fr: dict[str, Any]) -> dict[str, float] | None:
        """Per-frame latency decomposition over the delivered segments.

        ``total`` is submit-to-last-delivery.  Serialization charges each
        delivered segment's wire bytes on every hop (store-and-forward);
        propagation is the one-way path delay (paid once -- segments
        pipeline); retransmission-wait is the span from each segment's
        first to last transmission attempt; queueing absorbs the residual
        (clamped at zero), which on the dumbbell is bottleneck queueing
        delay plus pipelining slack.
        """
        done = [s for s in fr["segments"]
                if s["fate"] in ("delivered", "recovered")
                and s["t_done"] is not None]
        if not done or not self._path_hops:
            return None
        t_done = max(s["t_done"] for s in done)
        total = t_done - fr["t_submit"]
        inv_bw = sum(8.0 / bw for bw, _d in self._path_hops)
        prop = sum(d for _bw, d in self._path_hops)
        ser = sum((s["size"] + HEADER_BYTES) * inv_bw for s in done)
        retx_wait = 0.0
        for s in done:
            at = s["attempts"]
            if len(at) > 1:
                retx_wait += at[-1]["t"] - at[0]["t"]
        queueing = max(total - ser - prop - retx_wait, 0.0)
        return {"total_s": total, "serialization_s": ser,
                "propagation_s": prop, "retx_wait_s": retx_wait,
                "queueing_s": queueing}

    def finalize(self) -> dict[str, Any]:
        """Freeze the lineage into a plain-data artifact.

        ``frames_with_delivery`` is the reconciliation anchor: it must
        equal ``DeliveryLog.frames_delivered()`` exactly (a frame counts
        once it has at least one delivered payload segment -- the same
        predicate the delivery log applies).
        """
        frames = []
        counts = {k: 0 for k in FRAME_OUTCOMES}
        frames_with_delivery = 0
        for fid in sorted(self._frames):
            fr = self._frames[fid]
            outcome = self._classify(fr)
            counts[outcome] += 1
            if any(s["fate"] in ("delivered", "recovered")
                   for s in fr["segments"]):
                frames_with_delivery += 1
            done = [s["t_done"] for s in fr["segments"]
                    if s["t_done"] is not None]
            frames.append({
                "frame_id": fid,
                "t_submit": fr["t_submit"],
                "bytes": fr["bytes"],
                "msgs": fr["msgs"],
                "outcome": outcome,
                "t_done": max(done) if done else None,
                "latency": self._decompose(fr),
                "segments": fr["segments"],
            })
        return {
            "scenario": self.scenario,
            "flow": self._flow_id,
            "path": {"hops": [[bw, d] for bw, d in self._path_hops]},
            "frames": frames,
            "episodes": self.episodes,
            "actions": self.actions,
            "counts": counts,
            "frames_with_delivery": frames_with_delivery,
        }
