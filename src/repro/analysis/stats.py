"""Vectorised metric computation for the experiment tables.

All heavy computation is NumPy on arrays extracted from
:class:`~repro.middleware.receiver.DeliveryLog`; nothing here touches the
simulator.  The vocabulary follows the paper's tables:

* *inter-arrival* -- mean gap between consecutive message completions;
* *jitter* -- standard deviation of those gaps ("the jitter (deviation) of
  packet inter-arrival");
* *delay* -- mean inter-arrival at datagram granularity (Tables 3-8 report
  it in milliseconds; Table 3's text defines tagged delay as "average
  inter-arrival of tagged messages");
* *throughput* -- delivered payload bytes over the flow duration.
"""

from __future__ import annotations

import numpy as np

from ..middleware.receiver import DeliveryLog

__all__ = ["interarrival_stats", "flow_summary", "improvement"]


def interarrival_stats(times: np.ndarray) -> tuple[float, float]:
    """(mean, std) of the gaps between consecutive times; (0,0) when fewer
    than two samples exist."""
    t = np.asarray(times, dtype=np.float64)
    if t.size < 2:
        return 0.0, 0.0
    gaps = np.diff(t)
    return float(gaps.mean()), float(gaps.std())


def flow_summary(log: DeliveryLog, *, submitted_datagrams: int | None = None,
                 start_time: float = 0.0) -> dict[str, float]:
    """The standard metric bundle every experiment table draws from.

    Keys
    ----
    duration_s            time to finish (last delivery minus ``start_time``)
    throughput_kBps       delivered payload KB/s over the duration
    msg_interarrival_s    mean gap between message (frame) completions
    msg_jitter_s          std of those gaps
    delay_ms / jitter_ms  datagram-level inter-arrival mean/std, in ms
    tagged_delay_ms / tagged_jitter_ms   same, tagged datagrams only
    owd_ms                mean one-way (submit-to-deliver) delay, ms
    pct_received          delivered datagrams / submitted datagrams * 100
    delivered_datagrams, delivered_bytes  raw counts
    frames_completed      distinct frames with >= 1 delivered segment
                          (see :meth:`DeliveryLog.frames_delivered`)
    goodput_fps           frames_completed per second of flow duration --
                          the delivered-frame goodput the dynamics sweeps
                          compare transports on
    """
    duration = max(log.duration - start_time, 0.0)
    times = log.times  # built from the Python list once, shared below
    frames_done = log.frames_delivered()
    msg_mean, msg_std = interarrival_stats(log.message_times(times))
    pkt_mean, pkt_std = interarrival_stats(times)
    tag_mean, tag_std = interarrival_stats(log.tagged_times(times))
    owd = log.one_way_delays(times)
    summary = {
        "duration_s": duration,
        "throughput_kBps": (log.total_bytes / 1e3 / duration
                            if duration > 0 else 0.0),
        "msg_interarrival_s": msg_mean,
        "msg_jitter_s": msg_std,
        "delay_ms": pkt_mean * 1e3,
        "jitter_ms": pkt_std * 1e3,
        "tagged_delay_ms": tag_mean * 1e3,
        "tagged_jitter_ms": tag_std * 1e3,
        "owd_ms": float(owd.mean()) * 1e3 if owd.size else 0.0,
        "delivered_datagrams": float(len(log)),
        "delivered_bytes": float(log.total_bytes),
        "frames_completed": float(frames_done),
        "goodput_fps": frames_done / duration if duration > 0 else 0.0,
    }
    if submitted_datagrams:
        summary["pct_received"] = 100.0 * len(log) / submitted_datagrams
    else:
        summary["pct_received"] = 100.0 if len(log) else 0.0
    return summary


def improvement(coordinated: float, uncoordinated: float, *,
                lower_is_better: bool = False) -> float:
    """Percent improvement of the coordinated value over the baseline.

    Positive means the coordinated scheme is better.  With
    ``lower_is_better`` (durations, delays, jitters) the sign flips
    accordingly.
    """
    if uncoordinated == 0:
        return 0.0
    rel = (coordinated - uncoordinated) / abs(uncoordinated)
    return -100.0 * rel if lower_is_better else 100.0 * rel
