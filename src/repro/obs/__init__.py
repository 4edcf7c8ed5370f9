"""Observability subsystem: trace bus, metrics registry, sinks and reports.

The paper's argument is causal -- "loss spike -> callback fired ->
``ADAPT_WHEN``/``ADAPT_COND`` sent -> coordinator re-inflated cwnd" -- yet
summary numbers alone cannot show that sequence for a given run.  This
package provides the run-level evidence chain:

* :mod:`.events` -- typed, ``__slots__`` trace events and the one
  vocabulary table (each type, its layer, cold or per-packet; the
  ring-only names).
* :mod:`.bus` -- the per-simulation :class:`~repro.obs.bus.TraceBus`, the
  one place components report to (the flight ring, the lineage and the
  telemetry annotations listen), and the :data:`~repro.obs.bus.NULL_BUS`
  null object; a disabled site costs exactly one attribute check.
* :mod:`.sinks` -- JSONL writer (gzip capable, deterministic ordering so
  ``jobs=1`` and ``jobs=N`` produce identical files), bounded ring buffer
  for tests, and the batch trace-file writer with cache-aware run headers.
* :mod:`.metrics` -- counters/gauges/bounded-reservoir histograms rolled
  per scenario into ``ScenarioResult.summary`` (``obs_*`` keys); survives
  ``detach()`` and the persistent runner cache.
* :mod:`.report` -- the ``repro report`` renderers: per-run adaptation
  timeline and the coordination audit pairing every ``ADAPT_*`` attribute
  exchange with the transport action it produced.
* :mod:`.telemetry` -- sampled per-flow/queue/link time series
  (``ScenarioConfig(telemetry=...)``) with bounded M4-style downsampling.
* :mod:`.profiler` -- the engine self-profiler behind ``repro profile``.
* :mod:`.compare` -- the ``repro compare`` run-diff tooling.
* :mod:`.flight` -- the always-on bounded flight recorder whose dump is
  attached to every result and failure (``repro forensics``).
* :mod:`.spans` -- causal frame-lineage spans linking application frames
  to datagram attempts, drops and coordination episodes
  (``ScenarioConfig(spans=True)``, ``repro lineage``).
* :mod:`.live` -- the one campaign-directory snapshot behind
  ``campaign status``, ``campaign watch`` and ``repro serve``; a
  worker's row is read from its claim and its journal.
"""

from .bus import NULL_BUS, NullBus, TraceBus
from .events import (ADAPT_ACTION, ATTR_RECEIVED, ATTR_SENT, CALLBACK_FIRED,
                     COORD_ACTION, CWND_CHANGE, EVENT_TYPES, FEC_RECOVERED,
                     FEC_REPAIR, FRAME_ABANDONED, PACKET_ACK, PACKET_DROP,
                     PACKET_RETX, PACKET_SEND, PERIOD_ROLL, QUEUE_DEPTH,
                     TraceEvent)
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      collect_scenario_metrics)
from .sinks import JsonlTraceSink, RingBufferSink, read_trace, write_trace
# Imported after .bus: telemetry reaches repro.invariants, whose checked
# engine imports repro.sim.engine, which imports .bus -- the order here
# keeps that cycle resolvable.
from .compare import ComparisonReport, compare_artifacts
from .flight import (DEFAULT_CAPACITY, FlightRecorder, first_divergence,
                     flight_from_env, render_flight)
from .profiler import EngineProfile, ProfiledSimulator, profile_scenario
from .spans import FRAME_OUTCOMES, SpanRecorder
from .telemetry import Series, Telemetry, TelemetryConfig, TelemetryRecorder

__all__ = [
    "TraceEvent", "EVENT_TYPES",
    "PACKET_SEND", "PACKET_DROP", "PACKET_ACK", "PACKET_RETX",
    "CWND_CHANGE", "QUEUE_DEPTH", "CALLBACK_FIRED", "ATTR_SENT",
    "ATTR_RECEIVED", "COORD_ACTION", "ADAPT_ACTION", "PERIOD_ROLL",
    "FEC_REPAIR", "FEC_RECOVERED", "FRAME_ABANDONED",
    "TraceBus", "NullBus", "NULL_BUS",
    "JsonlTraceSink", "RingBufferSink", "write_trace", "read_trace",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "collect_scenario_metrics",
    "TelemetryConfig", "Telemetry", "TelemetryRecorder", "Series",
    "EngineProfile", "ProfiledSimulator", "profile_scenario",
    "ComparisonReport", "compare_artifacts",
    "FlightRecorder", "flight_from_env", "first_divergence",
    "render_flight", "DEFAULT_CAPACITY",
    "SpanRecorder", "FRAME_OUTCOMES",
]
