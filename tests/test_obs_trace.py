"""Trace-file tests: determinism across worker counts, cache interplay,
gzip round-trips, and the no-perturbation guarantee (tracing must never
change a scenario's results)."""

import pathlib

from repro.experiments.common import ScenarioConfig, run_scenario
from repro.middleware.adaptation import ResolutionAdaptation
from repro.obs.events import (ATTR_SENT, CALLBACK_FIRED, COORD_ACTION,
                              CWND_CHANGE, EVENT_TYPES, PACKET_SEND)
from repro.obs.sinks import RingBufferSink, read_trace, write_trace
from repro.runner import ResultsCache, run_batch


def _resolution():
    return ResolutionAdaptation(upper=0.05, lower=0.005)


def _congested(seed=2, **kw):
    """Small but genuinely congested IQ scenario: CBR + VBR cross traffic
    push the loss ratio over the adaptation thresholds, so the trace shows
    the whole coordination chain."""
    defaults = dict(transport="iq", workload="greedy", n_frames=2000,
                    base_frame_size=700, cbr_bps=17.5e6, vbr_mean_bps=1e6,
                    metric_period=0.1, adaptation=_resolution, seed=seed,
                    time_cap=120.0)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def test_trace_file_identical_for_any_worker_count(tmp_path):
    cfgs = {f"s{seed}": _congested(seed=seed) for seed in (1, 2, 3)}
    p1 = tmp_path / "j1.jsonl"
    p4 = tmp_path / "j4.jsonl"
    r1 = run_batch(cfgs, jobs=1, cache=False, trace=str(p1))
    r4 = run_batch(cfgs, jobs=4, cache=False, trace=str(p4))
    assert p1.read_bytes() == p4.read_bytes()
    for key in cfgs:
        assert r1[key].summary == r4[key].summary


def test_trace_events_well_formed_and_ordered(tmp_path):
    path = tmp_path / "t.jsonl"
    run_batch({"only": _congested()}, cache=False, trace=str(path))
    header, runs = read_trace(path)
    assert header["format"] == "repro-trace"
    assert header["runs"] == 1
    (entry,) = runs
    assert entry["run"] == "only"
    assert entry["cached"] is False
    assert entry["meta"]["transport"] == "iq"
    events = entry["events"]
    assert events, "traced run produced no events"
    assert [ev["seq"] for ev in events] == list(range(len(events)))
    assert all(ev["event"] in EVENT_TYPES for ev in events)
    ts = [ev["t"] for ev in events]
    assert ts == sorted(ts), "timestamps must be monotone in seq order"


def test_iq_coordinated_run_emits_required_event_types(tmp_path):
    """The acceptance set: an IQ run with application adaptation must show
    the full coordination chain in its trace."""
    path = tmp_path / "iq.jsonl"
    run_batch([_congested()], cache=False, trace=str(path))
    _, runs = read_trace(path)
    seen = {ev["event"] for ev in runs[0]["events"]}
    assert {CWND_CHANGE, CALLBACK_FIRED, ATTR_SENT, COORD_ACTION,
            PACKET_SEND} <= seen


def test_tracing_does_not_perturb_results(tmp_path):
    cfg = _congested()
    plain = run_scenario(cfg)
    traced = run_scenario(cfg, trace_sink=RingBufferSink())
    assert traced.summary == plain.summary


def test_cache_hits_recorded_honestly(tmp_path):
    store = ResultsCache(tmp_path / "cache")
    cfg = _congested(adaptation=None)  # hashable -> cacheable
    p1 = tmp_path / "fresh.jsonl"
    p2 = tmp_path / "hit.jsonl"
    run_batch([cfg], cache=store, trace=str(p1))
    run_batch([cfg], cache=store, trace=str(p2))
    _, fresh_runs = read_trace(p1)
    _, hit_runs = read_trace(p2)
    assert fresh_runs[0]["cached"] is False and fresh_runs[0]["events"]
    assert hit_runs[0]["cached"] is True and not hit_runs[0]["events"]
    # The cached payload itself must not smuggle an event stream.
    assert store.get(store_key(cfg)).trace is None


def store_key(cfg):
    from repro.runner import config_key
    return config_key(cfg)


def test_gzip_trace_roundtrip_and_determinism(tmp_path):
    cfg = _congested(n_frames=150)
    plain = tmp_path / "a.jsonl"
    gz1 = tmp_path / "b.jsonl.gz"
    gz2 = tmp_path / "c.jsonl.gz"
    run_batch([cfg], cache=False, trace=str(plain))
    run_batch([cfg], cache=False, trace=str(gz1))
    run_batch([cfg], cache=False, trace=str(gz2))
    assert read_trace(gz1) == read_trace(plain)
    # mtime is pinned, so even the compressed bytes are reproducible.
    assert gz1.read_bytes() == gz2.read_bytes()


def test_write_trace_round_trip_with_synthetic_runs(tmp_path):
    path = tmp_path / "synth.jsonl"
    total = write_trace(path, [
        {"run": "a", "cached": False,
         "events": [{"seq": 0, "t": 0.0, "layer": "transport",
                     "event": PACKET_SEND, "size": 1400}],
         "meta": {"seed": 7}},
        {"run": "b", "cached": True, "events": None, "meta": {}},
    ])
    assert total == 1
    header, runs = read_trace(path)
    assert header["runs"] == 2
    assert [r["run"] for r in runs] == ["a", "b"]
    assert runs[0]["meta"] == {"seed": 7}
    assert runs[1]["cached"] is True and runs[1]["events"] == []


def test_read_trace_rejects_foreign_files(tmp_path):
    bogus = tmp_path / "x.jsonl"
    bogus.write_text('{"type":"header","format":"other","version":1}\n')
    import pytest
    with pytest.raises(ValueError):
        read_trace(bogus)
    empty = tmp_path / "y.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError):
        read_trace(empty)
    headerless = tmp_path / "z.jsonl"
    headerless.write_text('{"type":"event","run":"0","seq":0,"t":0.0}\n')
    with pytest.raises(ValueError):
        read_trace(headerless)


def test_ring_buffer_bounds():
    sink = RingBufferSink(capacity=4)
    from repro.obs.events import TraceEvent
    for i in range(10):
        sink.append(TraceEvent(i, 0.0, "net", PACKET_SEND, {}))
    assert len(sink) == 4
    assert sink.appended == 10
    assert [ev.seq for ev in sink.events] == [6, 7, 8, 9]
    sink.clear()
    assert len(sink) == 0
