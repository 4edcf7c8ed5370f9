"""The instrumentation seam: components report to the trace bus, which
feeds the flight ring and the trace; both name an attribute exchange by
its episode in the coordinator's record.

(a) pins that moving the reports onto the seam moved no byte of any
artifact (literals recorded at the commit before it); (b)-(d) are the
properties that keep the surfaces from drifting apart again; (e) is the
pickling contract the worker pool relies on.
"""

import ast
import hashlib
import json
import pathlib
import pickle
from collections import namedtuple
from functools import lru_cache

import pytest

import repro
from repro.cli import EXPERIMENTS
from repro.experiments import common
from repro.experiments.common import run_scenario
from repro.obs import events as vocabulary
from repro.obs.bus import TraceBus
from repro.obs.events import (COLD_TYPES, EVENT_TYPES, LAYERS, RING_ONLY,
                              VOCABULARY)
from repro.obs.flight import FlightRecorder
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import TelemetryConfig
from repro.runner import run_batch
from repro.sim.engine import Simulator

#: ``experiment:label`` -> frames, then what the fully armed, traced run
#: produced at the parent commit: trace events, digests of the trace event
#: list, ``res.spans``, ``res.telemetry.as_dict()`` and ``res.summary``,
#: and the flight ring's ``events_noted``.  The telemetry digests, and the
#: trace and lineage digests of the two rows that rescale the window, were
#: recorded again when the telemetry stopped copying the record and each
#: ``window_rescale`` gained its ``cond`` field.  Every lineage digest, and
#: the trace digest of each row that coordinates, were recorded again when
#: the lineage stopped copying the record and the trace named an exchange
#: by its ``episode`` instead of its ``seq``; every summary digest, event
#: count and ``events_noted`` is the parent's.  Between them the nine fire
#: ``discard``, ``pending``, ``window_rescale``,
#: ``rescale_skipped_large_frame``, ``stall_degrade``, ``stall_recover``,
#: ``fec_boost``, ``fec_relax`` and ``fec_redundancy``.
RECORDED = {
    "table3:IQ-RUDP": (120, 4795, "adcd23d3484ba059", "f6bfc1bf2bd88ae2",
                       "46f681566b943a92", "f8f2ae6dbeaf4038", 640),
    "table5:IQ-RUDP": (1500, 4406, "dd05a8b6c1267f24", "2cff9ac241b63d26",
                       "1cb10bed0baf9e4f", "3eaa667e56d16c7c", 428),
    "table7:IQ-RUDP w/o ADAPT_COND": (
        1500, 3715, "d96c9df7bb4035e8", "3a2c1eb31c443c42",
        "ef965211732e9a25", "4b42c2f548bda2bb", 328),
    "table8:IQ-RUDP w/ ADAPT_COND": (
        1500, 3446, "0ff702efc9af5d16", "3f052802e88341d3",
        "338fe1c2efe6604b", "7350e21b3db1f0bb", 303),
    "table6:16/IQ-RUDP": (800, 1692, "e2be95dc9def998e", "b2d9939d2e149a3c",
                          "fbcc6760f7c23556", "007de5d8346e4ee2", 2),
    "dynamics:flap/iq": (250, 14189, "5d738a97de8daeaa", "c326f814d5417744",
                         "818e00571ac213a1", "a6c10836a1417dfb", 7639),
    "dynamics:cliff/iq": (250, 6995, "f441f1d36621381d", "48b8e5676d9ae132",
                          "d0534d416058fca8", "724e3145e355bcfe", 583),
    "reliability:blackout/iq+fec": (
        250, 9268, "4669fdccf631c4a2", "3e6efbddf5e29af7",
        "00af8a5fa4bf6356", "e705086972b9fa7b", 2919),
    "reliability:burst/iq+fec": (
        250, 8392, "7a7b769ebfe85ba7", "7692a1c8435a74b2",
        "ef94c66ffcb48b58", "ebe365f79de8038c", 2173),
}

scenarios = pytest.mark.parametrize("name", list(RECORDED))


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def config(name):
    experiment, label = name.split(":")
    cfg = EXPERIMENTS[experiment].configs(n_frames=RECORDED[name][0])[label]
    return cfg.replace(spans=True, invariants=True,
                       telemetry=TelemetryConfig(cadence_s=0.1))


#: What a run leaves behind, without the simulation that produced it.
Artifacts = namedtuple("Artifacts", "summary spans telemetry flight")


@lru_cache(maxsize=None)
def armed_run(name, traced=True):
    """One fully armed run (lineage, telemetry, invariants) with a ring
    deep enough to keep every note; returns ``(artifacts, trace events)``."""
    sink = RingBufferSink() if traced else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(common, "FlightRecorder",
                   lambda: FlightRecorder(capacity=100000))
        res = run_scenario(config(name), trace_sink=sink)
    return (Artifacts(res.summary, res.spans, res.telemetry, res.flight),
            [ev.as_obj() for ev in sink.events] if traced else [])


@pytest.fixture(scope="module", autouse=True)
def forget_runs():
    yield
    armed_run.cache_clear()


# -- (a) the seam moved no byte ---------------------------------------------
@scenarios
def test_artifacts_equal_the_literals_recorded_at_the_parent(name):
    res, events = armed_run(name)
    assert (len(events), digest(events), digest(res.spans),
            digest(res.telemetry.as_dict()), digest(res.summary),
            res.flight["events_noted"]) == RECORDED[name][1:]


# -- (b) one record per cold event, on every surface ------------------------
@scenarios
def test_ring_records_are_the_trace_events_of_the_same_instant(name):
    res, events = armed_run(name)
    ring = res.flight["events"]
    assert len(ring) == res.flight["events_noted"]      # nothing evicted
    cold = [dict(ev) for ev in events if ev["event"] in COLD_TYPES]
    shared = [dict(rec) for rec in ring if rec["event"] in EVENT_TYPES]
    for ev, rec in zip(cold, shared):
        del ev["seq"], rec["id"]
    assert shared == cold       # same order, instant, layer, name, fields
    assert {rec["event"] for rec in ring} - EVENT_TYPES <= RING_ONLY
    assert {ev["event"]: ev["layer"] for ev in events}.items() \
        <= {etype: row[0] for etype, row in VOCABULARY.items()}.items()


# -- (c) tracing changes nothing ------------------------------------------
@scenarios
def test_untraced_run_equals_the_traced_one(name):
    traced, _ = armed_run(name)
    untraced, _ = armed_run(name, traced=False)
    assert untraced.summary == traced.summary
    assert untraced.spans == traced.spans
    assert untraced.telemetry == traced.telemetry
    assert untraced.flight == traced.flight


# -- (d) a closed vocabulary ------------------------------------------------
def report_calls():
    """``(file, line, method, layer, event)`` of every ``.cold(`` /
    ``.emit(`` / ``.note(`` call under ``src/repro`` that names its event
    (the bus itself forwards the one it was given)."""
    root = pathlib.Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        if path == root / "obs" / "bus.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("cold", "emit", "note")
                    and len(node.args) == 2):
                layer, event = node.args
                event = (event.value if isinstance(event, ast.Constant)
                         else getattr(vocabulary, event.id))
                yield (path.name, node.lineno, node.func.attr, layer.value,
                       event)


def test_every_report_site_speaks_the_vocabulary():
    calls = list(report_calls())
    assert len(calls) >= 30
    for file, line, method, layer, event in calls:
        site = f"{file}:{line}"
        if method == "note":
            assert event in RING_ONLY, site
            continue
        assert VOCABULARY[event][:2] == (layer, method), site
    assert {c[4] for c in calls if c[2] == "cold"} == COLD_TYPES
    assert {c[4] for c in calls if c[2] == "note"} == RING_ONLY
    assert {c[4] for c in calls if c[2] != "note"} == EVENT_TYPES
    assert {c[3] for c in calls} == {*LAYERS, "run"}


# -- (e) pickling and the worker pool ---------------------------------------
def test_pickled_bus_with_ring_and_sink_comes_back_inert():
    sim = Simulator()
    bus = TraceBus(sim, [RingBufferSink()], ring=FlightRecorder())
    assert bus.enabled and bus.recording
    bus.cold("net", "LINK_RECOVER", link="hop")
    clone = pickle.loads(pickle.dumps(bus))
    assert (clone.enabled, clone.recording, clone.ring,
            clone.sinks) == (False, False, None, [])
    assert clone.events_emitted == 1
    # Both idioms on the revived object are harmless no-ops.
    clone.cold("net", "LINK_RECOVER", link="hop")
    clone.note("transport", "RTO")
    assert clone.events_emitted == 1


def test_armed_batch_is_identical_across_worker_counts():
    cfgs = {name: config(name).replace(n_frames=60)
            for name in ("table3:IQ-RUDP", "reliability:burst/iq+fec")}
    serial = run_batch(cfgs, jobs=1, cache=False)
    pooled = run_batch(cfgs, jobs=2, cache=False)
    for name in cfgs:
        a, b = serial[name], pooled[name]
        assert a.summary == b.summary
        assert pickle.dumps(a.spans) == pickle.dumps(b.spans)
        assert pickle.dumps(a.telemetry) == pickle.dumps(b.telemetry)
        assert a.flight == b.flight
