"""Unit tests for the trace bus: null-object discipline, determinism of
sequence/timestamp stamping, and pickle behaviour (the worker pool and the
persistent cache both ship objects that may hold a bus)."""

import pickle

import pytest

from repro.obs.bus import NULL_BUS, NullBus, TraceBus
from repro.obs.events import PACKET_SEND, TraceEvent
from repro.obs.sinks import RingBufferSink
from repro.sim.engine import Simulator


class PoisonedSink:
    """Raises on any append: proves the disabled path never reaches sinks."""

    def append(self, ev):
        raise AssertionError("sink touched on a disabled path")


class TestNullBus:
    def test_disabled_class_attribute(self):
        assert NullBus.enabled is False
        assert NULL_BUS.enabled is False
        # No per-instance storage: the guard is a plain class-attr load.
        assert NullBus.__slots__ == ()

    def test_emit_is_a_noop(self):
        assert NULL_BUS.emit("transport", PACKET_SEND, seq=1) == -1

    def test_pickle_preserves_singleton(self):
        clone = pickle.loads(pickle.dumps(NULL_BUS))
        assert clone is NULL_BUS

    def test_simulator_defaults_to_null_bus(self):
        assert Simulator().bus is NULL_BUS


class TestTraceBus:
    def test_emit_stamps_seq_and_sim_clock(self):
        sim = Simulator()
        sink = RingBufferSink()
        bus = TraceBus(sim, sinks=[sink])
        assert bus.enabled
        sim._now = 1.5
        first = bus.emit("transport", PACKET_SEND, seq=7, size=1400)
        sim._now = 2.0
        second = bus.emit("net", "PACKET_DROP", kind="wire")
        assert (first, second) == (0, 1)
        assert bus.events_emitted == 2
        evs = sink.events
        assert [ev.seq for ev in evs] == [0, 1]
        assert [ev.t for ev in evs] == [1.5, 2.0]
        assert evs[0].layer == "transport"
        assert evs[0].fields == {"seq": 7, "size": 1400}

    def test_fans_out_to_every_sink(self):
        sim = Simulator()
        a, b = RingBufferSink(), RingBufferSink()
        bus = TraceBus(sim, sinks=[a, b])
        bus.emit("app", "ADAPT_ACTION", trigger="upper")
        assert len(a) == len(b) == 1
        assert a.events == b.events

    def test_pickles_back_inert(self):
        bus = TraceBus(Simulator(), sinks=[RingBufferSink()])
        bus.emit("transport", PACKET_SEND)
        clone = pickle.loads(pickle.dumps(bus))
        assert clone.enabled is False
        assert clone.sinks == []
        # The hook-point pattern on the revived object is a harmless no-op.
        if clone.enabled:
            clone.emit("transport", PACKET_SEND)

    def test_disabled_guard_protects_poisoned_sink(self):
        """Every hook site is written as ``if tr.enabled: tr.emit(...)``;
        on a disabled bus the sink (even a poisoned one) is unreachable."""
        inert = pickle.loads(pickle.dumps(TraceBus(Simulator())))
        inert.sinks.append(PoisonedSink())
        for tr in (NULL_BUS, inert):
            for _ in range(100):
                if tr.enabled:
                    tr.emit("transport", PACKET_SEND)

    def test_event_pickle_roundtrip(self):
        ev = TraceEvent(3, 0.25, "coord", "COORD_ACTION",
                        {"action": "discard", "enabled": True})
        clone = pickle.loads(pickle.dumps(ev))
        assert clone == ev
        assert clone.as_obj() == {"seq": 3, "t": 0.25, "layer": "coord",
                                  "event": "COORD_ACTION",
                                  "action": "discard", "enabled": True}

    def test_untraced_run_emits_nothing(self):
        """A scenario without a trace sink carries a bus that records cold
        events for the flight ring but wants no per-packet event: nothing
        is ever numbered into a trace."""
        from repro.experiments.common import ScenarioConfig, run_scenario
        res = run_scenario(ScenarioConfig(transport="iq", workload="greedy",
                                          n_frames=50, time_cap=60.0))
        assert res.completed
        bus = res.conn.sender.trace
        assert bus is res.sim.bus
        assert bus.enabled is False and bus.sinks == []
        assert bus.events_emitted == 0

    def test_flight_off_and_nothing_armed_keeps_the_null_bus(
            self, monkeypatch):
        from repro.experiments.common import ScenarioConfig, run_scenario
        monkeypatch.setenv("REPRO_FLIGHT", "0")
        res = run_scenario(ScenarioConfig(transport="iq", workload="greedy",
                                          n_frames=50, time_cap=60.0))
        assert res.completed
        assert res.conn.sender.trace is NULL_BUS
