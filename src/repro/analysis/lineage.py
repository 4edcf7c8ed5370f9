"""Causal frame-lineage analysis over ``ScenarioResult.spans``.

The span recorder (:mod:`repro.obs.spans`) captures the raw chain --
frames, datagram attempts, drops -- and this module turns it into the
artefacts ``repro report RESULT`` prints:

* :func:`frame_accounting` -- outcome counts plus the reconciliation
  anchor (``frames_with_delivery`` must equal the delivery log's frame
  count exactly),
* :func:`render_lineage` / :func:`render_frame_lineage` -- the text
  reports, including the per-frame latency decomposition
  (serialization / queueing / propagation / retransmission-wait).

Which exchange caused which coordination action is the report's audit
(:func:`repro.obs.report.decision_chain`), read from the coordinator's
own record.
"""

from __future__ import annotations

from typing import Any, Mapping

from .tables import render_table

__all__ = ["frame_accounting", "render_lineage", "render_frame_lineage"]


def frame_accounting(spans: Mapping[str, Any]) -> dict[str, Any]:
    """Frame/segment outcome bookkeeping for one lineage artifact.

    ``frames_with_delivery`` is the number that must reconcile exactly
    with ``DeliveryLog.frames_delivered()`` -- both count a frame once it
    has at least one delivered payload segment.
    """
    seg_fates: dict[str, int] = {}
    for fr in spans["frames"]:
        for s in fr["segments"]:
            seg_fates[s["fate"]] = seg_fates.get(s["fate"], 0) + 1
    return {
        "frames": len(spans["frames"]),
        "outcomes": dict(spans["counts"]),
        "frames_with_delivery": spans["frames_with_delivery"],
        "segment_fates": dict(sorted(seg_fates.items())),
    }


def _latency_cells(lat: Mapping[str, float] | None) -> list[str]:
    if lat is None:
        return ["-"] * 5
    return [f"{lat[k] * 1e3:.2f}"
            for k in ("total_s", "serialization_s", "queueing_s",
                      "propagation_s", "retx_wait_s")]


def render_lineage(spans: Mapping[str, Any], *,
                   limit: int | None = 20) -> str:
    """Full lineage report: accounting, frame table.

    The frame table shows every non-delivered frame plus the newest
    ``limit`` frames (where the endgame lives); pass ``limit=None`` for
    all of them.
    """
    acct = frame_accounting(spans)
    parts = [f"Causal lineage: {spans.get('scenario', '?')} "
             f"(flow {spans.get('flow')})"]
    outcome_txt = " ".join(f"{k}={v}" for k, v in acct["outcomes"].items()
                           if v)
    parts.append(f"frames: {acct['frames']} submitted, "
                 f"{acct['frames_with_delivery']} with delivery "
                 f"({outcome_txt or 'none'})")
    fate_txt = " ".join(f"{k}={v}"
                        for k, v in acct["segment_fates"].items())
    parts.append(f"segments: {fate_txt or 'none'}")

    frames = spans["frames"]
    shown = frames
    if limit is not None and len(frames) > limit:
        # Non-delivered frames are the interesting ones; always keep them.
        keep = [f for f in frames if f["outcome"] != "delivered"]
        tail = [f for f in frames[len(frames) - limit:]
                if f["outcome"] == "delivered"]
        shown = sorted(keep + tail, key=lambda f: f["frame_id"])
    rows = []
    for fr in shown:
        n_attempts = sum(len(s["attempts"]) for s in fr["segments"])
        n_drops = sum(len(s["drops"]) for s in fr["segments"])
        rows.append([fr["frame_id"], f"{fr['t_submit']:.3f}", fr["bytes"],
                     len(fr["segments"]), n_attempts, n_drops,
                     fr["outcome"], *_latency_cells(fr["latency"])])
    parts.append("")
    parts.append(render_table(
        ["frame", "t_submit", "bytes", "segs", "tx", "drops", "outcome",
         "total_ms", "ser_ms", "queue_ms", "prop_ms", "retx_ms"],
        rows, title=f"Frames ({len(shown)}/{len(frames)} shown)"))
    return "\n".join(parts)


def render_frame_lineage(spans: Mapping[str, Any], frame_id: int) -> str:
    """Segment-level story of one frame: every transmission attempt, drop
    and final fate, with the frame's latency decomposition."""
    fr = next((f for f in spans["frames"] if f["frame_id"] == frame_id),
              None)
    if fr is None:
        raise ValueError(f"frame {frame_id} not in lineage (frames "
                         f"0..{len(spans['frames']) - 1} recorded)")
    parts = [f"Frame {frame_id} [{fr['outcome']}]: {fr['bytes']} B in "
             f"{len(fr['segments'])} segment(s), submitted "
             f"t={fr['t_submit']:.6f}s"
             + (f", done t={fr['t_done']:.6f}s" if fr["t_done"] is not None
                else "")]
    lat = fr["latency"]
    if lat is not None:
        parts.append(
            f"latency: total={lat['total_s'] * 1e3:.2f}ms = "
            f"serialization {lat['serialization_s'] * 1e3:.2f} + "
            f"queueing {lat['queueing_s'] * 1e3:.2f} + "
            f"propagation {lat['propagation_s'] * 1e3:.2f} + "
            f"retx-wait {lat['retx_wait_s'] * 1e3:.2f}")
    for i, seg in enumerate(fr["segments"]):
        flags = "".join(f for f, on in (("M", seg["marked"]),
                                        ("T", seg["tagged"]),
                                        ("L", seg["last"])) if on)
        head = (f"  seg {i} seq={seg['seq']} size={seg['size']}"
                + (f" [{flags}]" if flags else "")
                + f" -> {seg['fate']}")
        if seg["t_done"] is not None:
            head += f" t={seg['t_done']:.6f}s"
        parts.append(head)
        for at in seg["attempts"]:
            parts.append(f"    {at['kind']} t={at['t']:.6f}s"
                         + (" (skip)" if at["skip"] else ""))
        for dr in seg["drops"]:
            parts.append(f"    drop t={dr['t']:.6f}s link={dr['link']} "
                         f"kind={dr['kind']}")
        if not seg["attempts"]:
            parts.append("    (never transmitted)")
    return "\n".join(parts)
