"""Tests for resilient sweep execution (ISSUE 4 tentpole part 1).

The contract: one insane scenario in a batch becomes one typed
``FailedResult`` row -- never a dead batch, never a poisoned cache entry,
never a silently-averaged number.  Hung workers are killed at the
per-scenario timeout, transient failures (timeout / worker-lost) retry
with backoff while deterministic crashes do not.  (A batch that must
outlive its process runs through a campaign directory; see
``tests/test_campaign.py``.)
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import threading
import time

import pytest

from repro.experiments.common import ScenarioConfig, ScenarioResult
from repro.middleware.adaptation import MarkingAdaptation
from repro.campaign import CampaignStore
from repro.runner import (BatchExecutionError, FailedResult, ResultsCache,
                          config_key, run_batch)
from repro.runner.failures import TRANSIENT_KINDS


def _small(**kw) -> ScenarioConfig:
    base = dict(transport="iq", workload="fixed_clocked", n_frames=40,
                time_cap=20.0)
    base.update(kw)
    return ScenarioConfig(**base)


# Module-level adaptation factories: dotted-name fingerprints keep the
# configs cacheable/journalable, and fork-started workers see them as-is.
def boom_adaptation():
    raise RuntimeError("deliberate scenario crash (test fixture)")


def hang_adaptation():
    time.sleep(300)


def die_once_adaptation():
    """Kill the worker hard on first construction; succeed afterwards.

    ``os._exit`` bypasses the supervisor's exception channel entirely, so
    the parent sees pipe EOF -- the transient ``worker-lost`` kind.
    """
    sentinel = os.environ["REPRO_TEST_DIE_ONCE"]
    if not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os._exit(3)
    return MarkingAdaptation()


def slow_adaptation():
    time.sleep(1.5)
    return MarkingAdaptation()


def _count_children(monkeypatch) -> list:
    """Count the processes the supervisor starts from here on."""
    from repro.runner import supervisor
    starts = []
    real = supervisor._start_child

    def start(worker):
        starts.append(worker)
        return real(worker)
    monkeypatch.setattr(supervisor, "_start_child", start)
    return starts


# ----------------------------------------------------------------------
# Crash isolation
# ----------------------------------------------------------------------
def test_capture_turns_crash_into_failed_result_row():
    cfgs = [_small(seed=1), _small(seed=2, adaptation=boom_adaptation),
            _small(seed=3)]
    out = run_batch(cfgs, jobs=1, cache=False, on_error="capture")
    assert isinstance(out[0], ScenarioResult)
    assert isinstance(out[2], ScenarioResult)
    bad = out[1]
    assert isinstance(bad, FailedResult)
    assert bad.failed and not bad.completed
    assert bad.kind == "error" and not bad.transient
    assert bad.error_type == "RuntimeError"
    assert "deliberate scenario crash" in bad.message
    assert "boom_adaptation" in (bad.traceback or "")
    assert bad.attempts == 1


def test_failed_result_summary_access_raises():
    [bad] = run_batch([_small(adaptation=boom_adaptation)], jobs=1,
                      cache=False, on_error="capture")
    with pytest.raises(BatchExecutionError) as ei:
        bad.summary
    assert "deliberate scenario crash" in str(ei.value)
    assert ei.value.failure is bad
    with pytest.raises(BatchExecutionError):
        bad["duration_s"]
    assert bad.detach() is bad  # detach (pool plumbing) must not raise


def test_legacy_raise_path_propagates_original_exception():
    # No resilience features requested -> historical behaviour unchanged:
    # the worker's own exception type, not a wrapper.
    with pytest.raises(RuntimeError, match="deliberate scenario crash"):
        run_batch([_small(adaptation=boom_adaptation)], jobs=1, cache=False)


@pytest.mark.parametrize("jobs", [1, 2])
def test_results_landed_before_a_raise_are_cache_hits(tmp_path, jobs):
    store = ResultsCache(tmp_path)
    cfgs = [_small(seed=1), _small(seed=2),
            _small(seed=3, adaptation=boom_adaptation)]
    with pytest.raises(RuntimeError, match="deliberate scenario crash"):
        run_batch(cfgs, jobs=jobs, cache=store)
    assert len(list(tmp_path.glob("*.pkl"))) == 2
    store.hits = 0
    assert all(r.completed for r in run_batch(cfgs[:2], cache=store))
    assert store.hits == 2


@pytest.mark.parametrize("jobs", [1, 2])
def test_results_landed_before_ctrl_c_are_cache_hits(tmp_path, monkeypatch,
                                                     jobs):
    from repro.runner import pool as pool_mod
    updates = []

    def update(self, *, failed=False):
        updates.append(failed)
        if len(updates) == 2:
            raise KeyboardInterrupt
    monkeypatch.setattr(pool_mod.SweepProgress, "update", update)
    store = ResultsCache(tmp_path)
    cfgs = [_small(seed=s) for s in (1, 2, 3)]
    with pytest.raises(KeyboardInterrupt):
        run_batch(cfgs, jobs=jobs, cache=store)
    monkeypatch.undo()
    assert len(list(tmp_path.glob("*.pkl"))) == 2
    run_batch(cfgs, cache=store)
    assert (store.hits, len(list(tmp_path.glob("*.pkl")))) == (2, 3)


def test_pool_raise_path_surfaces_the_workers_own_exception():
    cfgs = [_small(seed=1), _small(seed=2, adaptation=boom_adaptation),
            _small(seed=3)]
    with pytest.raises(RuntimeError, match="deliberate scenario crash") as ei:
        run_batch(cfgs, jobs=2, cache=False)
    assert type(ei.value) is RuntimeError   # not a wrapper...
    # ...but the worker's traceback rides along as its cause.
    assert "boom_adaptation" in str(ei.value.__cause__)


def test_resilient_raise_path_wraps_with_traceback():
    with pytest.raises(BatchExecutionError) as ei:
        run_batch([_small(adaptation=boom_adaptation)], jobs=1,
                  cache=False, timeout=60.0)
    assert "boom_adaptation" in str(ei.value)  # worker traceback embedded


def test_failed_result_pickles_across_processes():
    [bad] = run_batch([_small(adaptation=boom_adaptation)], jobs=2,
                      cache=False, on_error="capture", timeout=60.0)
    clone = pickle.loads(pickle.dumps(bad))
    assert clone.kind == bad.kind and clone.message == bad.message


# ----------------------------------------------------------------------
# Timeouts and retries
# ----------------------------------------------------------------------
def test_hung_scenario_is_killed_at_timeout():
    cfgs = [_small(seed=1), _small(seed=2, adaptation=hang_adaptation)]
    t0 = time.monotonic()
    out = run_batch(cfgs, jobs=2, cache=False, on_error="capture",
                    timeout=1.5)
    elapsed = time.monotonic() - t0
    assert isinstance(out[0], ScenarioResult)
    assert isinstance(out[1], FailedResult)
    assert out[1].kind == "timeout" and out[1].transient
    assert out[1].elapsed_s >= 1.0
    assert elapsed < 60  # nowhere near the fixture's 300s sleep


def test_hung_scenario_child_is_replaced_and_the_rest_complete(
        monkeypatch):
    starts = _count_children(monkeypatch)
    cfgs = [_small(seed=1, adaptation=hang_adaptation)] + [
        _small(seed=s) for s in (2, 3, 4)]
    out = run_batch(cfgs, jobs=1, cache=False, on_error="capture",
                    timeout=1.5)
    assert out[0].kind == "timeout"
    assert all(isinstance(r, ScenarioResult) and r.completed
               for r in out[1:])
    assert len(starts) == 2     # the killed child, then one replacement


def test_worker_lost_is_transient_and_retried(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TEST_DIE_ONCE", str(tmp_path / "died"))
    cfg = _small(adaptation=die_once_adaptation)
    store = ResultsCache(tmp_path / "cache")
    [res] = run_batch([cfg], jobs=1, cache=store, on_error="capture",
                      timeout=60.0, retries=2, retry_backoff_s=0.01)
    assert (tmp_path / "died").exists()  # first attempt really died
    assert isinstance(res, ScenarioResult) and res.completed
    # Cache-poisoning check: the retried-then-successful scenario stored
    # exactly one entry, under its own key.
    entries = list((tmp_path / "cache").glob("*.pkl"))
    assert len(entries) == 1
    assert store.get(config_key(cfg), expect=ScenarioResult) is not None


def test_worker_lost_without_retries_fails(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TEST_DIE_ONCE", str(tmp_path / "died"))
    [res] = run_batch([_small(adaptation=die_once_adaptation)], jobs=1,
                      cache=False, on_error="capture", timeout=60.0)
    assert isinstance(res, FailedResult)
    assert res.kind == "worker-lost"
    assert res.kind in TRANSIENT_KINDS
    assert res.attempts == 1


def test_deterministic_crash_is_not_retried():
    [bad] = run_batch([_small(adaptation=boom_adaptation)], jobs=1,
                      cache=False, on_error="capture", timeout=60.0,
                      retries=3, retry_backoff_s=0.01)
    assert isinstance(bad, FailedResult)
    assert bad.kind == "error"
    assert bad.attempts == 1  # retry budget is for transients only


def test_sigint_to_a_worker_child_is_not_a_failure():
    """A terminal Ctrl-C signals the whole process group; the children
    ignore it and only this process decides what an interrupt means."""
    sent = []

    def interrupt_child():
        deadline = time.monotonic() + 30
        while not sent and time.monotonic() < deadline:
            for child in multiprocessing.active_children():
                time.sleep(0.3)  # the child is past its signal set-up
                os.kill(child.pid, signal.SIGINT)
                sent.append(child.pid)
                break
            time.sleep(0.01)
    thread = threading.Thread(target=interrupt_child, daemon=True)
    thread.start()
    [res] = run_batch([_small(adaptation=slow_adaptation)], jobs=1,
                      cache=False, on_error="capture", timeout=60.0)
    thread.join(timeout=30)
    assert not thread.is_alive() and sent
    assert isinstance(res, ScenarioResult) and res.completed


# ----------------------------------------------------------------------
# The pool: a bounded set of reusable children
# ----------------------------------------------------------------------
def test_supervised_batch_reuses_at_most_jobs_children(monkeypatch):
    starts = _count_children(monkeypatch)
    cfgs = [_small(seed=s, n_frames=5) for s in range(24)]
    out = run_batch(cfgs, jobs=2, cache=False, timeout=60.0)
    assert all(r.completed for r in out)
    assert 1 <= len(starts) <= 2


# ----------------------------------------------------------------------
# Cache poisoning
# ----------------------------------------------------------------------
def test_crashed_scenario_never_leaves_a_cache_entry(tmp_path):
    store = ResultsCache(tmp_path)
    cfg = _small(adaptation=boom_adaptation)
    key = config_key(cfg)
    assert key is not None  # module-level factory => cacheable config
    [bad] = run_batch([cfg], jobs=1, cache=store, on_error="capture")
    assert isinstance(bad, FailedResult)
    assert store.get(key) is None
    assert not list(tmp_path.glob("*.pkl"))


# ----------------------------------------------------------------------
# The outcome journal's torn-tail safety
# ----------------------------------------------------------------------
def test_journal_truncates_torn_tail(tmp_path):
    store = CampaignStore(tmp_path, worker="w0")
    path = store.journal_dir / "w0.pkl"
    store.record("key-a", "ok")
    store.record("key-b", "error")
    store.close()
    good_size = path.stat().st_size
    with open(path, "ab") as fh:
        fh.write(b"\x80\x05torn-frame-garbage")
    loaded = store.journals()
    assert loaded == {"w0": {"key-a": "ok", "key-b": "error"}}
    assert path.stat().st_size == good_size  # tail truncated on load
    # ... so the next append starts on a frame boundary.
    store.record("key-c", "ok")
    store.close()
    assert list(store.journals()["w0"]) == ["key-a", "key-b", "key-c"]


# ----------------------------------------------------------------------
# Parallel capture determinism
# ----------------------------------------------------------------------
def test_capture_results_identical_across_worker_counts():
    cfgs = [_small(seed=s) for s in (1, 2, 3)]
    cfgs.insert(1, _small(seed=9, adaptation=boom_adaptation))
    serial = run_batch(cfgs, jobs=1, cache=False, on_error="capture")
    par = run_batch(cfgs, jobs=3, cache=False, on_error="capture",
                    timeout=120.0)
    for s, p in zip(serial, par):
        assert isinstance(s, FailedResult) == isinstance(p, FailedResult)
        if isinstance(s, FailedResult):
            assert s.kind == p.kind
        else:
            assert s.summary == p.summary
