"""The instrumentation seam: components report to the trace bus, which
feeds the flight ring and the trace; the lineage's decision chain and the
telemetry annotations copy the coordinator's record.

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
#: and the flight ring's ``events_noted``.  Between them the nine fire
#: ``discard``, ``pending``, ``window_rescale``,
#: ``rescale_skipped_large_frame``, ``stall_degrade``, ``stall_recover``,
#: ``fec_boost``, ``fec_relax`` and ``fec_redundancy``.
RECORDED = {
    "table3:IQ-RUDP": (120, 4795, "870bec7f4ef1d012", "fa7048a73c232762",
                       "6582b13a49abc552", "f8f2ae6dbeaf4038", 640),
    "table5:IQ-RUDP": (1500, 4406, "84742148ffb03b49", "14026f797f1c6065",
                       "29c02185d39f8ae8", "3eaa667e56d16c7c", 428),
    "table7:IQ-RUDP w/o ADAPT_COND": (
        1500, 3715, "a3806059d9a4a6d0", "439a7d2c7f2c6c54",
        "6127ff2cd942f5dd", "4b42c2f548bda2bb", 328),
    "table8:IQ-RUDP w/ ADAPT_COND": (
        1500, 3446, "4383087dbd7353bd", "296f33ed696ca7ab",
        "c133af93192f2365", "7350e21b3db1f0bb", 303),
    "table6:16/IQ-RUDP": (800, 1692, "e2be95dc9def998e", "79de5ddd8b86b79a",
                          "c7cab1a95ce898b5", "007de5d8346e4ee2", 2),
    "dynamics:flap/iq": (250, 14189, "b33c90ea7ad98679", "b37bb7d58afd5120",
                         "e01a9182eb322509", "a6c10836a1417dfb", 7639),
    "dynamics:cliff/iq": (250, 6995, "d9ca144af9093331", "7ad349901de9fd13",
                          "7cf308d44d15fcb1", "724e3145e355bcfe", 583),
    "reliability:blackout/iq+fec": (
        250, 9268, "747d8cd1940fc07e", "2c8b6c3ee1abdd2d",
        "d4ff563c7a4f6c03", "e705086972b9fa7b", 2919),
    "reliability:burst/iq+fec": (
        250, 8392, "fd1bb9f3e7637ae2", "3debbe7eb468e173",
        "c6ffe5cb47371654", "ebe365f79de8038c", 2173),
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


# -- (c) tracing changes nothing but attr_seq -------------------------------
@scenarios
def test_untraced_run_differs_only_in_attr_seq(name):
    traced, _ = armed_run(name)
    untraced, _ = armed_run(name, traced=False)
    assert untraced.summary == traced.summary
    assert untraced.spans == traced.spans
    assert untraced.telemetry == traced.telemetry

    def masked(dump):
        return [{k: (None if k == "attr_seq" else v) for k, v in rec.items()}
                for rec in dump["events"]]

    assert masked(untraced.flight) == masked(traced.flight)
    assert {rec["attr_seq"] for rec in untraced.flight["events"]
            if "attr_seq" in rec} <= {-1}


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
    assert clone.cold("net", "LINK_RECOVER", link="hop") == -1
    clone.note("transport", "RTO")


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
