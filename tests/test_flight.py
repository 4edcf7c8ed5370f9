"""Tests for the always-on flight recorder (ISSUE 7 tentpole part 2).

The contract: a bounded, deterministic ring of the last N notable events
rides every result -- success or failure -- at near-zero cost, and every
failure path (in-process crash, supervised crash, invariant violation,
supervisor timeout kill) attaches the dump to its ``FailedResult`` so
``repro forensics`` can render the last moments before death.
"""

from __future__ import annotations

import json
import pickle
import time

import pytest

from repro.experiments import common
from repro.experiments.common import ScenarioConfig, run_scenario
from repro.invariants import InvariantViolation
from repro.obs.flight import (DEFAULT_CAPACITY, FlightRecorder,
                              first_divergence, render_flight)
from repro.runner import FailedResult, ResultsCache, run_batch, run_one
from repro.runner.cache import write_pickle


def _small(**kw) -> ScenarioConfig:
    base = dict(transport="iq", workload="fixed_clocked", n_frames=30,
                time_cap=15.0)
    base.update(kw)
    return ScenarioConfig(**base)


# Module-level factories: picklable for fork-started workers and
# fingerprintable by the config hasher.
def boom_adaptation():
    raise RuntimeError("deliberate flight-test crash")


def violation_adaptation():
    raise InvariantViolation("test-invariant", "deliberate violation")


def hang_adaptation():
    time.sleep(300)


# ----------------------------------------------------------------------
# Ring mechanics
# ----------------------------------------------------------------------
def test_ring_evicts_oldest_and_keeps_monotone_ids():
    fl = FlightRecorder(capacity=4)
    for i in range(10):
        fl.note("run", "E", i=i)
    dump = fl.dump()
    assert dump["capacity"] == 4
    assert dump["events_noted"] == 10
    assert [ev["id"] for ev in dump["events"]] == [6, 7, 8, 9]
    assert [ev["i"] for ev in dump["events"]] == [6, 7, 8, 9]


def test_the_environment_does_not_change_what_a_cached_result_holds(
        tmp_path, monkeypatch):
    """The ring is part of the result, and the cache key is the config:
    a variable that once disabled the ring changes neither."""
    cfg = ScenarioConfig(workload="greedy", n_frames=30)
    cache = ResultsCache(tmp_path)
    monkeypatch.setenv("REPRO_FLIGHT", "0")
    first = run_one(cfg, cache=cache)
    monkeypatch.delenv("REPRO_FLIGHT")
    second = run_one(cfg, cache=cache)
    assert cache.hits == 1
    assert first.flight["capacity"] == DEFAULT_CAPACITY
    assert second.flight == first.flight == run_scenario(cfg).flight


def _dump(n, *, capacity=8):
    fl = FlightRecorder(capacity=capacity)
    for i in range(n):
        fl.note("run", "E", i=i)
    return fl.dump()


def test_first_divergence():
    assert first_divergence(_dump(5), _dump(5)) is None
    a, b = _dump(5), _dump(5)
    b["events"][3]["i"] = 99
    assert first_divergence(a, b) == 3
    # Different event counts: divergence is at the shorter side's end.
    assert first_divergence(_dump(5), _dump(7)) == 5
    # A missing dump is not comparable, not a divergence at 0.
    assert first_divergence(None, _dump(3)) is None
    assert first_divergence(None, None) is None


def test_render_flight_marker_and_empty():
    dump = _dump(3)
    text = render_flight(dump, mark_id=1)
    assert "flight recorder: last 3 of 3 events" in text
    marked = [ln for ln in text.splitlines() if ln.startswith(">>")]
    assert len(marked) == 1 and "#1" in marked[0]
    assert "(flight recorder empty)" in render_flight(_dump(0))


def test_render_flight_limit_zero_shows_no_event():
    text = render_flight(_dump(3), limit=0)
    assert "3 earlier events elided" in text
    assert "#" not in text


# ----------------------------------------------------------------------
# Always-on capture
# ----------------------------------------------------------------------
def test_flight_rides_every_successful_result():
    res = run_scenario(_small())
    assert res.flight is not None
    events = [ev["event"] for ev in res.flight["events"]]
    assert events[0] == "START"
    assert "COMPLETE" in events


def test_disarming_does_not_perturb_summary(monkeypatch):
    armed = run_scenario(_small(seed=3)).summary
    monkeypatch.setattr(common, "FlightRecorder", lambda: None)
    disarmed = run_scenario(_small(seed=3)).summary
    assert pickle.dumps(armed) == pickle.dumps(disarmed)


# ----------------------------------------------------------------------
# Failure forensics: every failure kind carries the dump
# ----------------------------------------------------------------------
def test_inprocess_crash_attaches_flight_dump():
    [bad] = run_batch([_small(adaptation=boom_adaptation)], jobs=1,
                      cache=False, on_error="capture")
    assert isinstance(bad, FailedResult) and bad.kind == "error"
    assert bad.flight is not None
    events = [ev["event"] for ev in bad.flight["events"]]
    assert events[0] == "START" and events[-1] == "EXCEPTION"
    assert bad.flight["events"][-1]["error"] == "RuntimeError"


def test_invariant_violation_attaches_flight_dump():
    [bad] = run_batch([_small(adaptation=violation_adaptation)], jobs=1,
                      cache=False, on_error="capture")
    assert isinstance(bad, FailedResult) and bad.kind == "invariant"
    assert bad.flight is not None
    assert bad.flight["events"][-1]["event"] == "EXCEPTION"


def test_supervised_crash_ships_flight_dump_across_process():
    [bad] = run_batch([_small(adaptation=boom_adaptation)], jobs=2,
                      cache=False, on_error="capture", timeout=60.0)
    assert isinstance(bad, FailedResult) and bad.kind == "error"
    assert bad.flight is not None
    assert bad.flight["events"][0]["event"] == "START"


def test_supervisor_timeout_kill_recovers_flight_dump():
    [bad] = run_batch([_small(adaptation=hang_adaptation)], jobs=2,
                      cache=False, on_error="capture", timeout=1.5)
    assert isinstance(bad, FailedResult) and bad.kind == "timeout"
    # The SIGTERM grace protocol pulls the dump out of the dying worker.
    assert bad.flight is not None
    events = [ev["event"] for ev in bad.flight["events"]]
    assert events[0] == "START" and "EXCEPTION" in events


def test_flight_dump_survives_failedresult_pickle():
    [bad] = run_batch([_small(adaptation=boom_adaptation)], jobs=1,
                      cache=False, on_error="capture")
    clone = pickle.loads(pickle.dumps(bad))
    assert clone.flight == bad.flight


# ----------------------------------------------------------------------
# repro forensics CLI
# ----------------------------------------------------------------------
class TestForensicsCli:
    def test_renders_failed_result(self, tmp_path, capsys):
        from repro.cli import main
        [bad] = run_batch([_small(adaptation=boom_adaptation)], jobs=1,
                          cache=False, on_error="capture")
        path = tmp_path / "bad.pkl"
        write_pickle(path, bad)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "FAILED scenario" in out
        assert "flight recorder: last" in out
        assert "EXCEPTION error=RuntimeError" in out
        assert "worker traceback" in out

    def test_renders_successful_result_with_lineage(self, tmp_path, capsys):
        from repro.cli import main
        res = run_scenario(_small(spans=True)).detach()
        path = tmp_path / "ok.pkl"
        write_pickle(path, res)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "flight recorder: last" in out
        assert "Causal lineage" in out

    def test_renders_fuzz_forensics_json(self, tmp_path, capsys):
        from repro.cli import main
        a, b = _dump(4), _dump(4)
        b["events"][2]["i"] = 42
        payload = {
            "summary": "fuzz FAIL: 1 mismatch",
            "failures": [], "mismatches": ["case 0: summaries differ"],
            "forensics": [{"label": "jobs=4", "case": "case 0 (iq)",
                           "mismatches": ["case 0: summaries differ"],
                           "first_divergence": first_divergence(a, b),
                           "ref_flight": a, "other_flight": b}],
        }
        path = tmp_path / "fz.json"
        path.write_text(json.dumps(payload))
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fuzz forensics: 1 record(s)" in out
        assert "first divergence" in out
        assert ">>" in out  # divergent event marked in the timeline

    def test_unknown_pickle_type_is_user_error(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "junk.pkl"
        write_pickle(path, {"not": "a result"})
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert "junk.pkl" in err and "holds dict" in err
