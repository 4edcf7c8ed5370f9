"""Sampled time-series telemetry: the trajectory half of observability.

The trace bus records *discrete* control-loop events and the metrics
registry records *end-of-run* aggregates; neither can show how IQ-RUDP's
window, loss estimate or queue occupancy **evolve** -- the paper's
coordination claims (cwnd re-inflation to ``1/(1-rate_chg)``, Eq. 1 drift
correction) are trajectory claims.  This module samples per-flow, per-queue
and per-link state on the *simulation* clock at a configurable cadence and
keeps each series in a bounded piecewise-aggregate form (M4-style
count/sum/min/max buckets), so memory is O(buckets) no matter how long the
run is and identical configs produce byte-identical series for any worker
count.

Arming
------
Telemetry is a :class:`~repro.experiments.common.ScenarioConfig` field
(``telemetry=TelemetryConfig(...)``), so it is part of the cache key: an
armed run is a different (strictly richer) artifact than a disarmed one.
Sampling is *pull-based* -- a periodic tick reads transport/queue/link
state through their ``telemetry_probe()`` methods -- so no component holds
a telemetry handle and a disarmed run executes **zero** telemetry
instructions.  The coordinator's decision record
(``res.conn.sender.coordinator.actions``) stamps each action with ``t`` on
the same simulation clock as the series, so a cwnd step pairs with its
``window_rescale`` by time.

Determinism
-----------
Sample ticks ride the event heap at :data:`~repro.invariants.checks
.CHECK_PRIORITY` (observing post-quiescent state at each instant) and only
*read* state, so armed and disarmed runs produce bit-identical summaries
-- the same observer-purity contract the invariant checker honours, and
the same oracle the fuzzer enforces.  Bucket compaction (merge adjacent
pairs, double the bucket width) is a deterministic function of the sample
sequence, mirroring :func:`~repro.obs.metrics.reservoir`'s
decimation.
"""

from __future__ import annotations

import math
from typing import Any

#: Sampling ticks share the invariant checker's priority: at any sampled
#: instant every same-time data/timer event has already fired, so the
#: probe observes the settled state of that instant.
from ..invariants.checks import CHECK_PRIORITY as TELEMETRY_PRIORITY

__all__ = ["TelemetryConfig", "Series", "Telemetry", "TelemetryRecorder",
           "TELEMETRY_PRIORITY", "BUCKETS"]

#: Per-series bucket budget: when a run outgrows it, adjacent buckets
#: merge pairwise and the bucket width doubles (memory stays O(BUCKETS),
#: early samples keep count/sum/min/max fidelity).
BUCKETS = 256

#: The shortest sampling period accepted (callers sample every 50 ms or
#: slower): a tick too short to move the clock would refire forever.
_MIN_CADENCE_S = 1e-3


class TelemetryConfig:
    """Arming knob for the recorder: ``cadence_s``, the simulation-time
    sampling period in seconds (finite, at least 1 ms).

    Instances are scenario-config values, so they must be picklable and
    carry a *stable* ``repr`` -- the runner's ``config_fingerprint`` hashes
    config fields via ``repr`` and two equal configs must produce the same
    cache key.
    """

    def __init__(self, *, cadence_s: float = 0.1):
        cadence_s = float(cadence_s)
        if not (math.isfinite(cadence_s) and cadence_s >= _MIN_CADENCE_S):
            raise ValueError(f"telemetry cadence_s must be a finite number "
                             f"of seconds >= {_MIN_CADENCE_S:g}, got "
                             f"{cadence_s!r}")
        self.cadence_s = cadence_s

    def __repr__(self) -> str:
        return f"TelemetryConfig(cadence_s={self.cadence_s!r})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TelemetryConfig)
                and self.cadence_s == other.cadence_s)

    def __hash__(self) -> int:
        return hash(self.cadence_s)


class Series:
    """Bounded piecewise-aggregate time series (M4-style).

    Fixed-width buckets over simulation time, each keeping
    ``[count, sum, min, max]`` of the samples that landed in it (``None``
    for empty buckets).  When a sample lands beyond the bucket budget,
    adjacent buckets merge pairwise and the width doubles -- the retained
    aggregate is a deterministic function of the ``(t, value)`` sequence,
    never of wall clock or worker count.
    """

    def __init__(self, name: str, *, bucket_s: float, maxlen: int):
        if bucket_s <= 0:
            raise ValueError("bucket_s must be positive")
        if maxlen < 2:
            raise ValueError("series maxlen must be >= 2")
        self.name = name
        self.bucket_s = float(bucket_s)
        self.maxlen = int(maxlen)
        self.samples = 0
        self._buckets: list[list[float] | None] = []

    # ------------------------------------------------------------------
    def add(self, t: float, value: float) -> None:
        """Fold one sample taken at simulation time ``t`` into its bucket."""
        value = float(value)
        idx = int(t / self.bucket_s)
        maxlen = self.maxlen
        while idx >= maxlen:
            self._halve()
            idx = int(t / self.bucket_s)
        buckets = self._buckets
        if idx >= len(buckets):
            buckets.extend([None] * (idx + 1 - len(buckets)))
        b = buckets[idx]
        if b is None:
            buckets[idx] = [1.0, value, value, value]
        else:
            b[0] += 1.0
            b[1] += value
            if value < b[2]:
                b[2] = value
            if value > b[3]:
                b[3] = value
        self.samples += 1

    def _halve(self) -> None:
        """Merge adjacent bucket pairs and double the bucket width."""
        old = self._buckets
        merged: list[list[float] | None] = []
        for i in range(0, len(old), 2):
            a = old[i]
            b = old[i + 1] if i + 1 < len(old) else None
            if a is None:
                merged.append(None if b is None else list(b))
            elif b is None:
                merged.append(list(a))
            else:
                merged.append([a[0] + b[0], a[1] + b[1],
                               min(a[2], b[2]), max(a[3], b[3])])
        self._buckets = merged
        self.bucket_s *= 2.0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._buckets)

    def times(self) -> list[float]:
        """Bucket-center times (every bucket, empty ones included)."""
        w = self.bucket_s
        return [(i + 0.5) * w for i in range(len(self._buckets))]

    def counts(self) -> list[float]:
        return [0.0 if b is None else b[0] for b in self._buckets]

    def means(self) -> "list[float | None]":
        return [None if b is None else b[1] / b[0] for b in self._buckets]

    def mins(self) -> "list[float | None]":
        return [None if b is None else b[2] for b in self._buckets]

    def maxs(self) -> "list[float | None]":
        return [None if b is None else b[3] for b in self._buckets]

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly export: name, width and raw bucket aggregates."""
        return {"name": self.name, "bucket_s": self.bucket_s,
                "samples": self.samples,
                "buckets": [None if b is None else list(b)
                            for b in self._buckets]}

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Series)
                and self.name == other.name
                and self.bucket_s == other.bucket_s
                and self.maxlen == other.maxlen
                and self.samples == other.samples
                and self._buckets == other._buckets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Series {self.name} {len(self._buckets)} buckets "
                f"x {self.bucket_s:g}s, {self.samples} samples>")


class Telemetry:
    """The picklable payload a recorder produces: named series.

    Rides inside :class:`~repro.experiments.common.ScenarioResult`
    (``res.telemetry``), survives ``detach()``, the pool's pickle
    transport and the persistent results cache.
    """

    def __init__(self, config: TelemetryConfig):
        self.config = config
        self.series: dict[str, Series] = {}
        self.ticks = 0

    def get_series(self, name: str) -> Series:
        """Get-or-create, so probe sites never coordinate registration."""
        s = self.series.get(name)
        if s is None:
            s = self.series[name] = Series(
                name, bucket_s=self.config.cadence_s, maxlen=BUCKETS)
        return s

    def names(self) -> list[str]:
        return sorted(self.series)

    def as_dict(self) -> dict[str, Any]:
        return {"cadence_s": self.config.cadence_s,
                "ticks": self.ticks,
                "series": {name: self.series[name].as_dict()
                           for name in sorted(self.series)}}

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Telemetry)
                and self.config == other.config
                and self.series == other.series
                and self.ticks == other.ticks)


class TelemetryRecorder:
    """Periodic read-only sampler over flows, queues and links.

    Mirrors :class:`~repro.invariants.checks.InvariantChecker`'s shape:
    ``watch_flow``/``watch_network`` register subjects, ``arm()`` starts
    the self-rescheduling sampling tick.  Probes only *read* (through each
    subject's ``telemetry_probe()``), so the sampled run's summary is
    bit-identical to an unsampled one.
    """

    def __init__(self, sim, config: TelemetryConfig):
        self.sim = sim
        self.config = config
        self.data = Telemetry(config)
        # (prefix, sender, receiver-or-None, mutable delta state)
        self._flows: list[tuple[str, Any, Any, dict[str, float]]] = []
        # (prefix, FecState, mutable delta state); only populated for
        # FEC-armed flows so disarmed runs sample exactly as before.
        self._fec_flows: list[tuple[str, Any, dict[str, float]]] = []
        self._queues: list[tuple[str, Any]] = []
        # (prefix, link, mutable delta state)
        self._links: list[tuple[str, Any, dict[str, float]]] = []
        self._armed = False
        # Pre-resolved (probe, bound Series.add, ...) rows, built lazily on
        # the first tick -- see _bind().  Registration invalidates it.
        self._bound: tuple[list, list, list] | None = None

    # ------------------------------------------------------------------
    def watch_flow(self, conn, *, prefix: str = "flow") -> None:
        """Sample a connection's sender (cwnd/flightsize/SRTT/RTO/loss)
        and, when it has one, its receiver (goodput)."""
        sender = getattr(conn, "sender", None)
        if sender is None:
            raise TypeError(f"{type(conn).__name__} has no sender to probe")
        receiver = getattr(conn, "receiver", None)
        self._flows.append((prefix, sender, receiver,
                            {"delivered_bytes": 0.0}))
        fec_state = getattr(conn, "fec", None)
        if fec_state is not None:
            self._fec_flows.append((prefix, fec_state,
                                    {"recovered": 0.0,
                                     "repair_bytes": 0.0}))
        self._bound = None

    def watch_network(self, net) -> None:
        """Sample the dumbbell's bottleneck queues and link utilisation."""
        for link in (net.forward, net.backward):
            # The link: reading ``link.queue`` settles a planned backlog.
            self._queues.append((f"queue.{link.name}", link))
            self._links.append((f"link.{link.name}", link,
                                {"bytes_sent": 0.0}))
        self._bound = None

    def arm(self) -> None:
        if self._armed:
            return
        self._armed = True
        self.sim.schedule(self.config.cadence_s, self._tick,
                          priority=TELEMETRY_PRIORITY)

    # ------------------------------------------------------------------
    def _bind(self) -> tuple[list, list, list]:
        """Pre-resolve every probe and every series' bound ``add``.

        The per-sample cost of ``_tick`` was dominated by rebuilding series
        names (f-strings) and re-walking ``data.series`` for every sample of
        every tick; each (subject, series) pair is fixed for the life of the
        run, so resolve them once.  Built lazily on the *first* tick -- not
        at arm time -- so a run with zero ticks still creates no series
        (same lazy-series behaviour as before).
        """
        get = self.data.get_series
        flows = [(sender.telemetry_probe,
                  get(f"{prefix}.cwnd").add,
                  get(f"{prefix}.flightsize").add,
                  get(f"{prefix}.srtt_s").add,
                  get(f"{prefix}.rto_s").add,
                  get(f"{prefix}.loss_ratio").add,
                  None if receiver is None else receiver.stats,
                  None if receiver is None
                  else get(f"{prefix}.goodput_bps").add,
                  state)
                 for prefix, sender, receiver, state in self._flows]
        queues = [(link,
                   get(f"{prefix}.pkts").add,
                   get(f"{prefix}.bytes").add,
                   get(f"{prefix}.drops").add)
                  for prefix, link in self._queues]
        links = [(link.telemetry_probe,
                  get(f"{prefix}.util").add,
                  link, state)
                 for prefix, link, state in self._links]
        fecs = [(fec_state,
                 get(f"{prefix}.fec_redundancy").add,
                 get(f"{prefix}.fec_repair_rate").add,
                 get(f"{prefix}.fec_overhead_bps").add,
                 state)
                for prefix, fec_state, state in self._fec_flows]
        return flows, queues, links, fecs

    def _tick(self) -> None:
        data = self.data
        data.ticks += 1
        now = self.sim.now
        cadence = self.config.cadence_s
        bound = self._bound
        if bound is None:
            bound = self._bound = self._bind()
        flows, queues, links, fecs = bound
        for (probe_fn, add_cwnd, add_flight, add_srtt, add_rto, add_loss,
             rstats, add_goodput, state) in flows:
            probe = probe_fn()
            add_cwnd(now, probe["cwnd"])
            add_flight(now, probe["flightsize"])
            add_srtt(now, probe["srtt_s"])
            add_rto(now, probe["rto_s"])
            add_loss(now, probe["loss_ratio"])
            if rstats is not None:
                total = float(rstats.delivered_bytes)
                delta = total - state["delivered_bytes"]
                state["delivered_bytes"] = total
                add_goodput(now, delta * 8.0 / cadence)
        for link, add_pkts, add_bytes, add_drops in queues:
            probe = link.queue.telemetry_probe()
            add_pkts(now, probe["pkts"])
            add_bytes(now, probe["bytes"])
            add_drops(now, probe["drops"])
        for probe_fn, add_util, link, state in links:
            probe = probe_fn()
            total = float(probe["bytes_sent"])
            delta = total - state["bytes_sent"]
            state["bytes_sent"] = total
            add_util(now, delta * 8.0 / (cadence * link.bandwidth_bps))
        for fec_state, add_r, add_rate, add_overhead, state in fecs:
            add_r(now, float(fec_state.r))
            total = float(fec_state.recovered)
            add_rate(now, (total - state["recovered"]) / cadence)
            state["recovered"] = total
            total = float(fec_state.repair_bytes)
            add_overhead(now, (total - state["repair_bytes"]) * 8.0 / cadence)
            state["repair_bytes"] = total
        self.sim.schedule(cadence, self._tick, priority=TELEMETRY_PRIORITY)
