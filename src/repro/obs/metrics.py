"""Metrics registry: counters, gauges and bounded-reservoir histograms.

The registry is the *aggregated* half of observability (the trace bus is
the sequential half): per-scenario instruments rolled into an extended
``ScenarioResult.summary`` under ``obs_*`` keys, so every bench, test and
cached result carries distribution-level evidence (cwnd spread, per-period
error ratios, queue pressure) without any event stream attached.

Everything here is plain picklable Python data -- registries survive
``ScenarioResult.detach()``, the worker pool's pickle transport, and the
persistent on-disk cache.

Histograms keep a *bounded, deterministic* reservoir: once ``maxlen``
samples are retained the reservoir is decimated to every other sample and
the retention stride doubles (systematic decimation, not random sampling),
so identical runs produce identical reservoirs regardless of worker count.
Exact count/sum/min/max are always tracked alongside.
"""

from __future__ import annotations

import re
from typing import Any

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "collect_scenario_metrics"]

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


class Counter:
    """Monotonic event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def __getstate__(self):
        return (self.name, self.value)

    def __setstate__(self, state):
        self.name, self.value = state


class Gauge:
    """Last-value-wins instrument."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)

    def __getstate__(self):
        return (self.name, self.value)

    def __setstate__(self, state):
        self.name, self.value = state


class Histogram:
    """Bounded deterministic reservoir with exact count/sum/min/max.

    ``add`` retains every ``stride``-th sample; when the reservoir reaches
    ``maxlen`` it is decimated in place (keep every other retained sample)
    and the stride doubles, so the memory bound holds for any stream length
    while the retained set stays a deterministic function of the input
    sequence.
    """

    __slots__ = ("name", "maxlen", "count", "total", "min", "max",
                 "_samples", "_stride")

    def __init__(self, name: str, maxlen: int = 256):
        if maxlen < 2:
            raise ValueError("histogram maxlen must be >= 2")
        self.name = name
        self.maxlen = maxlen
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: list[float] = []
        self._stride = 1

    def add(self, x: float) -> None:
        x = float(x)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        if self.count % self._stride == 0:
            if len(self._samples) >= self.maxlen:
                del self._samples[1::2]
                self._stride *= 2
                if self.count % self._stride == 0:
                    self._samples.append(x)
            else:
                self._samples.append(x)
        self.count += 1
        self.total += x

    @property
    def samples(self) -> list[float]:
        return list(self._samples)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained reservoir (0 when
        empty); ``q`` in [0, 100]."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        idx = min(int(q / 100.0 * (len(ordered) - 1) + 0.5),
                  len(ordered) - 1)
        return ordered[idx]

    def stats(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0}
        return {"count": float(self.count), "mean": self.mean,
                "min": self.min, "max": self.max,
                "p50": self.percentile(50), "p95": self.percentile(95)}

    def __getstate__(self):
        return (self.name, self.maxlen, self.count, self.total, self.min,
                self.max, self._samples, self._stride)

    def __setstate__(self, state):
        (self.name, self.maxlen, self.count, self.total, self.min,
         self.max, self._samples, self._stride) = state


class MetricsRegistry:
    """Named instrument store with a flat-summary export.

    ``counter``/``gauge``/``histogram`` are get-or-create so call sites
    never coordinate registration order; :meth:`summary` flattens every
    instrument to ``prefix``-ed scalar floats for ``ScenarioResult.summary``.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str, maxlen: int = 256) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, maxlen)
        return h

    @property
    def counters(self) -> dict[str, Counter]:
        return dict(self._counters)

    @property
    def gauges(self) -> dict[str, Gauge]:
        return dict(self._gauges)

    @property
    def histograms(self) -> dict[str, Histogram]:
        return dict(self._histograms)

    def summary(self, prefix: str = "obs_") -> dict[str, float]:
        """Flat ``{prefix+name: float}`` export, deterministically ordered
        (sorted by key within each instrument class)."""
        out: dict[str, float] = {}
        for name in sorted(self._counters):
            out[f"{prefix}{name}"] = self._counters[name].value
        for name in sorted(self._gauges):
            out[f"{prefix}{name}"] = self._gauges[name].value
        for name in sorted(self._histograms):
            stats = self._histograms[name].stats()
            for stat in ("count", "mean", "p50", "p95", "max"):
                out[f"{prefix}{name}_{stat}"] = stats[stat]
        return out

    def render_prometheus(self, prefix: str = "repro_") -> str:
        """Prometheus text exposition (version 0.0.4) of every instrument.

        Counters and gauges render as their native types; histograms as
        summaries (p50/p95 quantile labels plus ``_sum``/``_count``) since
        the deterministic reservoir keeps samples, not fixed buckets.
        Output is sorted by instrument class then name and numeric
        formatting is pinned, so identical registries render
        byte-identical text -- ``repro metrics`` output can be
        golden-tested and diffed across runs.
        """
        lines: list[str] = []
        for name in sorted(self._counters):
            pname = _prom_name(prefix, name)
            lines.append(f"# TYPE {pname} counter")
            lines.append(f"{pname} {_prom_value(self._counters[name].value)}")
        for name in sorted(self._gauges):
            pname = _prom_name(prefix, name)
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {_prom_value(self._gauges[name].value)}")
        for name in sorted(self._histograms):
            h = self._histograms[name]
            pname = _prom_name(prefix, name)
            lines.append(f"# TYPE {pname} summary")
            for q, label in ((50, "0.5"), (95, "0.95")):
                lines.append(f'{pname}{{quantile="{label}"}} '
                             f"{_prom_value(h.percentile(q))}")
            lines.append(f"{pname}_sum {_prom_value(h.total)}")
            lines.append(f"{pname}_count {_prom_value(float(h.count))}")
        return "\n".join(lines) + ("\n" if lines else "")


def collect_scenario_metrics(registry: MetricsRegistry, *, conn, net=None,
                             strategy=None, source=None, log=None,
                             frames_delivered: int | None = None
                             ) -> MetricsRegistry:
    """Roll one finished scenario's state into ``registry``.

    Duck-typed over the connection/network/strategy objects so it works for
    every transport in the registry (TCP included) and stays usable from
    tests that build topologies by hand.  Called by ``run_scenario`` after
    the run completes; costs one pass over the per-period metric history.

    ``source`` (the application :class:`AdaptiveSource`) and ``log`` (the
    :class:`DeliveryLog`) add frame-level failure accounting -- submitted
    versus delivered frames plus the abandonment causes (local conflict
    discards, adaptive-reliability skips) -- derived from state every run
    carries, so armed-span and disarmed runs export identical values.
    ``frames_delivered`` is ``log.frames_delivered()`` when the caller
    already counted it (``flow_summary`` does; it is an ``np.unique``).
    """
    sender = getattr(conn, "sender", None)
    if sender is not None:
        stats = sender.stats
        for name in ("packets_sent", "retransmissions", "timeouts",
                     "fast_retransmits", "skips_sent", "discarded_msgs",
                     "submitted_msgs"):
            registry.counter(name).inc(getattr(stats, name))
        registry.gauge("cwnd_final").set(sender.cc.cwnd)
        registry.gauge("rtt_final_s").set(sender.rtt.rtt)
        callbacks = getattr(sender, "callbacks", None)
        if callbacks is not None:
            registry.counter("callbacks_upper").inc(callbacks.fired_upper)
            registry.counter("callbacks_lower").inc(callbacks.fired_lower)
        coordinator = getattr(sender, "coordinator", None)
        # Zero-default so the summary schema is identical across transports
        # (an IQ run with no adaptation must equal a plain RUDP run).
        for attr, name in (("window_rescales", "coord_window_rescales"),
                           ("discard_switches", "coord_discard_switches"),
                           ("pending_adaptations", "coord_pending"),
                           ("cond_corrections", "coord_cond_corrections"),
                           ("freq_adaptations", "coord_freq_adaptations")):
            registry.counter(name).inc(getattr(coordinator, attr, 0))
        history = getattr(getattr(sender, "metrics", None), "history", None)
        if history:
            h_err = registry.histogram("period_error_ratio")
            h_cwnd = registry.histogram("period_cwnd")
            h_rtt = registry.histogram("period_rtt_s")
            h_rate = registry.histogram("period_rate_bps")
            for pm in history:
                h_err.add(pm.error_ratio)
                h_cwnd.add(pm.cwnd)
                h_rtt.add(pm.rtt)
                h_rate.add(pm.rate_bps)
    if net is not None:
        qstats = net.bottleneck_queue.stats
        registry.counter("bottleneck_drops").inc(qstats.drops)
        registry.counter("bottleneck_arrivals").inc(qstats.arrivals)
        registry.gauge("bottleneck_peak_pkts").set(qstats.peak_packets)
        registry.gauge("bottleneck_peak_bytes").set(qstats.peak_bytes)
    if source is not None:
        registry.counter("frames_submitted").inc(
            getattr(source, "submitted_frames", 0))
    if log is not None:
        if frames_delivered is None:
            frames_delivered = log.frames_delivered()
        registry.counter("frames_delivered").inc(frames_delivered)
        if source is not None:
            registry.counter("frames_undelivered").inc(
                max(getattr(source, "submitted_frames", 0)
                    - frames_delivered, 0))
    if sender is not None:
        # Abandonment causes, from counters every transport keeps: frames
        # whose datagrams were discarded locally by the conflict scheme,
        # and datagrams abandoned in flight via skip messages.
        registry.counter("abandoned_msgs_discard").inc(
            sender.stats.discarded_msgs)
        registry.counter("abandoned_datagrams_skip").inc(
            sender.stats.skips_sent)
    fec_state = getattr(conn, "fec", None)
    if fec_state is not None:
        # Exported only when the repair tier is armed: a disarmed run's
        # summary must stay byte-identical to the pre-FEC schema.
        registry.counter("fec_repairs_sent").inc(fec_state.repairs_sent)
        registry.counter("fec_repair_bytes").inc(fec_state.repair_bytes)
        registry.counter("fec_recovered").inc(fec_state.recovered)
        registry.counter("fec_unrecoverable").inc(fec_state.unrecoverable)
        registry.counter("fec_repairs_unused").inc(fec_state.repairs_unused)
        registry.gauge("fec_redundancy_final").set(fec_state.r)
        if sender is not None:
            coordinator = getattr(sender, "coordinator", None)
            registry.counter("coord_fec_adaptations").inc(
                getattr(coordinator, "fec_adaptations", 0))
            registry.counter("coord_fec_boosts").inc(
                getattr(coordinator, "fec_boosts", 0))
    if sender is not None and getattr(sender, "deadline_armed", False):
        # Same conditionality for deadline scheduling: only deadline-armed
        # runs grow the expired-frame columns.
        registry.counter("abandoned_msgs_deadline").inc(
            sender.stats.expired_msgs)
        registry.counter("abandoned_bytes_deadline").inc(
            sender.stats.expired_bytes)
    if strategy is not None:
        registry.gauge("adapt_scale_final").set(
            getattr(strategy, "scale", 1.0))
        registry.gauge("adapt_freq_scale_final").set(
            getattr(strategy, "freq_scale", 1.0))
        registry.counter("adapt_upper_events").inc(
            getattr(strategy, "upper_events", 0))
        registry.counter("adapt_lower_events").inc(
            getattr(strategy, "lower_events", 0))
    return registry
