"""Scenario metrics as a view of the result, and the one Prometheus writer.

:func:`collect_scenario_metrics` reads one finished scenario's connection,
network, adaptation, source and delivery log and returns the ``obs_*``
counters, gauges and per-period series statistics that ``run_scenario``
merges into ``ScenarioResult.summary``.  :func:`scenario_prometheus`
renders the same numbers from a result's own state, which survives
``detach()``, pickling and the caches; no metrics object is stored.  A
series' percentiles read a bounded deterministic sample
(:func:`reservoir`), so identical runs agree whatever the worker count.

:func:`render_prometheus` is the one writer of Prometheus text (format
0.0.4): the result exposition, ``CampaignReport.render_prometheus`` and the
live ``/metrics`` page all call it.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Sequence

__all__ = ["collect_scenario_metrics", "coordination_counts",
           "scenario_prometheus", "render_prometheus", "reservoir",
           "percentile"]

#: Prometheus metric names allow ``[a-zA-Z_:][a-zA-Z0-9_:]*``.
_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(prefix: str, name: str) -> str:
    out = _PROM_BAD.sub("_", prefix + name)
    return "_" + out if out[:1].isdigit() else out


def _prom_value(v: float) -> str:
    """Stable float rendering (no locale, fixed precision) so exposition
    output is byte-identical across runs -- the golden test depends on it."""
    if v != v:
        return "NaN"
    if v in (float("inf"), float("-inf")):
        return "+Inf" if v > 0 else "-Inf"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.10g}"


def _prom_label(value: Any) -> str:
    return str(value).replace("\\", r"\\").replace('"', r'\"')


def render_prometheus(blocks: Iterable[tuple[str, str, Sequence[tuple]]],
                      prefix: str = "") -> str:
    """Prometheus text (format 0.0.4) of ``(name, type, rows)`` blocks,
    each row ``(suffix, labels mapping, value)``; a block without rows
    writes nothing.  Formatting is pinned: equal inputs, equal bytes."""
    lines: list[str] = []
    for name, kind, rows in blocks:
        if not rows:
            continue
        pname = _prom_name(prefix, name)
        lines.append(f"# TYPE {pname} {kind}")
        for suffix, labels, value in rows:
            text = ",".join(f'{k}="{_prom_label(v)}"'
                            for k, v in labels.items())
            lines.append(f"{pname}{suffix}{{{text}}} {_prom_value(value)}"
                         if text else f"{pname}{suffix} {_prom_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def reservoir(values: Iterable[float], maxlen: int = 256) -> list[float]:
    """The bounded deterministic sample of ``values`` percentiles read:
    every ``stride``-th value, the stride starting at 1; when ``maxlen``
    values are kept, every other one is dropped and the stride doubles."""
    if maxlen < 2:
        raise ValueError("reservoir maxlen must be >= 2")
    kept: list[float] = []
    stride = 1
    for i, x in enumerate(values):
        if i % stride:
            continue
        if len(kept) >= maxlen:
            del kept[1::2]
            stride *= 2
            if i % stride:
                continue
        kept.append(x)
    return kept


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``samples``, ``q`` in [0, 100]; 0 when
    empty."""
    ordered = sorted(samples)
    return (ordered[int(q / 100.0 * (len(ordered) - 1) + 0.5)] if ordered
            else 0.0)


def _series_stats(values: Iterable[float]) -> dict[str, float]:
    """``count``/``mean``/``p50``/``p95``/``max`` plus the exact ``sum``
    of one per-period series (all 0 when empty)."""
    xs = [float(x) for x in values]
    total = 0.0
    for x in xs:  # in stream order: the sum is part of the exposition
        total += x
    sample = reservoir(xs)
    return {"count": float(len(xs)), "mean": total / len(xs) if xs else 0.0,
            "p50": percentile(sample, 50), "p95": percentile(sample, 95),
            "max": max(xs, default=0.0), "sum": total}


#: The ``coord_*`` counters, in :func:`coordination_counts`' order.
_COORD_KEYS = ("coord_window_rescales", "coord_discard_switches",
               "coord_pending", "coord_cond_corrections",
               "coord_freq_adaptations", "coord_fec_adaptations",
               "coord_fec_boosts")


def coordination_counts(coord) -> dict[str, int]:
    """The ``coord_*`` counters: counts over the coordinator's decision
    record, 0 without a coordinator."""
    if coord is None:
        return dict.fromkeys(_COORD_KEYS, 0)
    count = coord.count
    return {"coord_window_rescales": count("window_rescale"),
            "coord_discard_switches": count("discard", changed=True),
            "coord_pending": count("pending"),
            "coord_cond_corrections": count("window_rescale", cond=True),
            "coord_freq_adaptations": count("freq_no_window_change"),
            "coord_fec_adaptations": sum(
                a["action"] == "fec_redundancy"
                and a["r_after"] != a["r_before"] for a in coord.actions),
            "coord_fec_boosts": count("fec_boost")}


def _instruments(conn, net, strategy, source, log, frames_delivered):
    """One finished scenario's ``(name, type, value)`` rows: sorted
    counters, sorted gauges, then each per-period series by name as a
    ``summary`` of :func:`_series_stats`.  Duck-typed, so it reads every
    transport (TCP included) and topologies built by hand in tests."""
    counters: dict[str, Any] = {}
    gauges: dict[str, Any] = {}
    series: dict[str, list] = {}  # name -> per-period values
    sender = getattr(conn, "sender", None)
    coordinator = getattr(sender, "coordinator", None)
    if sender is not None:
        stats = sender.stats
        for name in ("packets_sent", "retransmissions", "timeouts",
                     "fast_retransmits", "skips_sent", "discarded_msgs",
                     "submitted_msgs"):
            counters[name] = getattr(stats, name)
        # Abandonment causes: discarded locally, skipped in flight and --
        # only in deadline-armed runs -- expired.
        counters["abandoned_msgs_discard"] = stats.discarded_msgs
        counters["abandoned_datagrams_skip"] = stats.skips_sent
        if getattr(sender, "deadline_armed", False):
            counters["abandoned_msgs_deadline"] = stats.expired_msgs
            counters["abandoned_bytes_deadline"] = stats.expired_bytes
        gauges["cwnd_final"] = sender.cc.cwnd
        gauges["rtt_final_s"] = sender.rtt.rtt
        callbacks = getattr(sender, "callbacks", None)
        if callbacks is not None:
            counters["callbacks_upper"] = callbacks.fired_upper
            counters["callbacks_lower"] = callbacks.fired_lower
        # Zero-default so the summary schema is identical across transports
        # (an IQ run with no adaptation must equal a plain RUDP run).
        coord_counts = coordination_counts(coordinator)
        for name, value in coord_counts.items():
            if not name.startswith("coord_fec_"):
                counters[name] = value
        history = getattr(getattr(sender, "metrics", None), "history", None)
        if history:
            series["period_error_ratio"] = [pm.error_ratio for pm in history]
            series["period_cwnd"] = [pm.cwnd for pm in history]
            series["period_rtt_s"] = [pm.rtt for pm in history]
            series["period_rate_bps"] = [pm.rate_bps for pm in history]
    if net is not None:
        qstats = net.bottleneck_queue.stats
        counters["bottleneck_drops"] = qstats.drops
        counters["bottleneck_arrivals"] = qstats.arrivals
        gauges["bottleneck_peak_pkts"] = qstats.peak_packets
        gauges["bottleneck_peak_bytes"] = qstats.peak_bytes
    submitted = getattr(source, "submitted_frames", 0)
    if source is not None:
        counters["frames_submitted"] = submitted
    if log is not None:
        if frames_delivered is None:
            frames_delivered = log.frames_delivered()
        counters["frames_delivered"] = frames_delivered
        if source is not None:
            counters["frames_undelivered"] = max(
                submitted - frames_delivered, 0)
    fec = getattr(conn, "fec", None)
    if fec is not None:
        # Exported only when the repair tier is armed: a disarmed run's
        # summary must stay byte-identical to the pre-FEC schema.
        for name in ("repairs_sent", "repair_bytes", "recovered",
                     "unrecoverable", "repairs_unused"):
            counters[f"fec_{name}"] = getattr(fec, name)
        gauges["fec_redundancy_final"] = fec.r
        if sender is not None:
            for name in ("coord_fec_adaptations", "coord_fec_boosts"):
                counters[name] = coord_counts[name]
    if strategy is not None:
        for name in ("scale", "freq_scale"):
            gauges[f"adapt_{name}_final"] = getattr(strategy, name, 1.0)
        for name in ("upper_events", "lower_events"):
            counters[f"adapt_{name}"] = getattr(strategy, name, 0)
    return ([(n, "counter", float(counters[n])) for n in sorted(counters)]
            + [(n, "gauge", float(gauges[n])) for n in sorted(gauges)]
            + [(n, "summary", _series_stats(series[n]))
               for n in sorted(series)])


def collect_scenario_metrics(*, conn, net=None, strategy=None, source=None,
                             log=None, frames_delivered: int | None = None
                             ) -> dict[str, float]:
    """One finished scenario's ``obs_*`` summary scalars, a series as
    ``_count``/``_mean``/``_p50``/``_p95``/``_max``.  ``frames_delivered``
    is ``log.frames_delivered()`` when the caller already counted it
    (``flow_summary`` does; it is an ``np.unique``)."""
    out: dict[str, float] = {}
    for name, kind, value in _instruments(conn, net, strategy, source, log,
                                          frames_delivered):
        if kind == "summary":
            out.update((f"obs_{name}_{stat}", value[stat])
                       for stat in ("count", "mean", "p50", "p95", "max"))
        else:
            out[f"obs_{name}"] = value
    return out


def scenario_prometheus(res) -> str:
    """Prometheus text of a finished (possibly unpickled) result's metrics,
    rendered from its own ``conn``/``net``/``strategy``/``source``/``log``.
    A series is a summary (p50/p95 quantiles, ``_sum``, ``_count``): the
    reservoir keeps samples, not buckets."""
    return render_prometheus(
        [(name, kind, [("", {"quantile": "0.5"}, value["p50"]),
                       ("", {"quantile": "0.95"}, value["p95"]),
                       ("_sum", {}, value["sum"]),
                       ("_count", {}, value["count"])]
          if kind == "summary" else [("", {}, value)])
         for name, kind, value in _instruments(
             res.conn, res.net, res.strategy, res.source, res.log, None)],
        "repro_")
