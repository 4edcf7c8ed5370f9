"""Observability subsystem: trace bus, scenario metrics, sinks and reports.

The paper's argument is causal -- "loss spike -> callback fired ->
``ADAPT_WHEN``/``ADAPT_COND`` sent -> coordinator re-inflated cwnd" -- yet
summary numbers alone cannot show that sequence for a given run.  This
package provides the run-level evidence chain:

* :mod:`.events` -- typed, ``__slots__`` trace events and the one
  vocabulary table (each type, its layer, cold or per-packet; the
  ring-only names).
* :mod:`.bus` -- the per-simulation :class:`~repro.obs.bus.TraceBus`, the
  one place components report to (it feeds the flight ring and a trace
  sink), and the :data:`~repro.obs.bus.NULL_BUS` null object; a disabled
  site costs exactly one attribute check.
* :mod:`.sinks` -- ring-buffer sink and the trace file writer (gzip
  capable, deterministic ordering so ``jobs=1`` and ``jobs=N`` produce
  identical files, cache-aware run headers) and reader.
* :mod:`.metrics` -- a finished run's ``obs_*`` summary keys and their
  Prometheus text, both computed from the result's own state (the
  ``obs_coord_*`` keys count over the coordinator's decision record); the
  one Prometheus writer.
* :mod:`.report` -- the one run-artifact loader and ``repro report``:
  a trace's adaptation timeline, a result's flight ring, lineage, failure
  and metrics, a fuzz forensics file; and the coordination audit of a
  trace and of a result alike (every ``ADAPT_*`` exchange paired, by its
  ``episode``, with the transport action it produced).
* :mod:`.telemetry` -- sampled per-flow/queue/link time series
  (``ScenarioConfig(telemetry=...)``) with bounded M4-style downsampling,
  on the same clock as the coordinator's decision record.
* :mod:`.profiler` -- the engine self-profiler behind ``repro profile``.
* :mod:`.compare` -- the ``repro compare`` run-diff tooling.
* :mod:`.flight` -- the always-on bounded flight recorder whose dump is
  attached to every result and failure (``repro report RESULT``).
* :mod:`.spans` -- causal frame-lineage spans linking application frames
  to datagram attempts and drops
  (``ScenarioConfig(spans=True)``, ``repro report RESULT [--frame N]``).
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
from .metrics import collect_scenario_metrics
from .sinks import RingBufferSink, read_trace, write_trace
# Imported after .bus: telemetry reaches repro.invariants, whose checked
# engine imports repro.sim.engine, which imports .bus -- the order here
# keeps that cycle resolvable.
from .compare import ComparisonReport, compare_artifacts
from .flight import (DEFAULT_CAPACITY, FlightRecorder, first_divergence,
                     render_flight)
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
    "RingBufferSink", "write_trace", "read_trace",
    "collect_scenario_metrics",
    "TelemetryConfig", "Telemetry", "TelemetryRecorder", "Series",
    "EngineProfile", "ProfiledSimulator", "profile_scenario",
    "ComparisonReport", "compare_artifacts",
    "FlightRecorder", "first_divergence",
    "render_flight", "DEFAULT_CAPACITY",
    "SpanRecorder", "FRAME_OUTCOMES",
]
