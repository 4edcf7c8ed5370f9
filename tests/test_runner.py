"""Tests for the batch runner and persistent results cache.

The contract under test: worker count never changes results (bit-identical
metrics for a fixed seed), cache hits are indistinguishable from fresh
runs, and cache keys react to exactly the config fields and nothing else
(the code version names the default cache's directory instead).
"""

from __future__ import annotations

import math
import pickle

import pytest

from repro.experiments.common import ScenarioConfig
from repro.middleware.adaptation import MarkingAdaptation
from repro.runner import (ResultsCache, code_salt, config_fingerprint,
                          config_key, default_cache, run_batch, run_one)
from repro.runner import cache as cache_mod
from repro.runner import hashing


def _small(**kw) -> ScenarioConfig:
    base = dict(workload="greedy", n_frames=150, time_cap=60.0)
    base.update(kw)
    return ScenarioConfig(**base)


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------
def test_config_key_stable_across_instances():
    assert config_key(_small(seed=3)) == config_key(_small(seed=3))


def test_config_key_sensitive_to_every_field_change():
    base = _small()
    for kw in (dict(seed=2), dict(n_frames=151), dict(transport="rudp"),
               dict(cbr_bps=1e6), dict(rtt_s=0.05),
               dict(adaptation=MarkingAdaptation)):
        assert config_key(base.replace(**kw)) != config_key(base), kw


def test_lambda_adaptation_is_uncacheable_but_runs():
    cfg = _small(transport="iq",
                 adaptation=lambda: MarkingAdaptation(upper=0.5, lower=0.1))
    assert config_fingerprint(cfg) is None
    assert config_key(cfg) is None
    res = run_one(cfg)  # must still execute, just bypassing the cache
    assert res.completed


def test_code_salt_is_memoised_and_nonempty():
    assert code_salt() and code_salt() == code_salt()


# ----------------------------------------------------------------------
# Parallel determinism
# ----------------------------------------------------------------------
def test_parallel_results_bit_identical_to_serial():
    cfgs = {s: _small(seed=s, cbr_bps=8e6) for s in (1, 2, 3, 4)}
    serial = run_batch(cfgs, jobs=1, cache=False)
    parallel = run_batch(cfgs, jobs=4, cache=False)
    assert list(serial) == list(parallel)
    for k in cfgs:
        assert serial[k].summary == parallel[k].summary


def test_run_batch_preserves_mapping_order_and_sequence_shape():
    cfgs = {"b": _small(seed=2), "a": _small(seed=1)}
    out = run_batch(cfgs, cache=False)
    assert list(out) == ["b", "a"]
    seq = run_batch([_small(seed=1)], cache=False)
    assert isinstance(seq, list) and len(seq) == 1


def test_run_batch_rejects_nonpositive_or_nonint_jobs():
    cfgs = [_small(seed=1)]
    for bad in (0, -3, True, 2.5, "4"):
        with pytest.raises(ValueError, match="jobs"):
            run_batch(cfgs, jobs=bad, cache=False)
    # jobs=None keeps meaning "serial" for keyword-forwarding callers.
    assert run_batch(cfgs, jobs=None, cache=False)[0].completed


@pytest.mark.parametrize("kw", [
    {"timeout": 0}, {"timeout": -1.0}, {"timeout": math.inf},
    {"timeout": math.nan}, {"retries": -1},
    {"retry_backoff_s": -0.1}, {"retry_backoff_s": math.nan},
    {"retry_backoff_s": math.inf}])
def test_supervision_knobs_are_refused_by_name_on_both_paths(tmp_path, kw):
    """``run_batch`` and a campaign directory meet in ``run_supervised``,
    which refuses these before any scenario runs or any cell is stored."""
    from repro.campaign import run_campaign
    from repro.runner.supervisor import run_supervised
    name = next(iter(kw))
    with pytest.raises(ValueError, match=name):
        run_batch([_small(seed=1)], jobs=2, cache=False, **kw)
    if name != "retry_backoff_s":
        with pytest.raises(ValueError, match=name):
            run_campaign({"template": {"workload": "greedy", "n_frames": 5}},
                         dir=tmp_path / "camp", cache=False, progress=False,
                         **kw)
        assert not (tmp_path / "camp").exists()
    with pytest.raises(ValueError, match=name):
        run_supervised(iter(()), _small, on_result=print, **kw)


@pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
def test_campaign_cli_refuses_a_bad_timeout_and_stores_no_cell(
        tmp_path, capsys, value):
    from repro.cli import main
    spec = tmp_path / "spec.toml"
    spec.write_text('name = "t"\n[template]\nworkload = "greedy"\n'
                    'n_frames = 5\n')
    root = tmp_path / "camp"
    assert main(["campaign", "run", str(spec), "--dir", str(root),
                 "--timeout", value]) == 2
    err = [line for line in capsys.readouterr().err.splitlines()
           if line.startswith("error:")]
    assert len(err) == 1 and "timeout" in err[0], err
    assert not list(root.glob("cells/*.pkl"))
    assert not list(root.glob("journal/*.pkl"))


@pytest.mark.parametrize("flags", [["--timeout", "nan"], ["--retries", "-1"]])
def test_a_refused_campaign_run_leaves_no_directory(tmp_path, capsys, flags):
    """The arguments are checked before the store is made: a typo leaves
    no directory that would later read as a campaign with no cell done."""
    from repro.cli import main
    spec = tmp_path / "spec.toml"
    spec.write_text('name = "t"\n[template]\nworkload = "greedy"\n'
                    'n_frames = 5\n')
    root = tmp_path / "camp"
    assert main(["campaign", "run", str(spec), "--dir", str(root),
                 *flags]) == 2
    assert "error:" in capsys.readouterr().err
    assert not root.exists()


# ----------------------------------------------------------------------
# Persistent cache
# ----------------------------------------------------------------------
def test_cache_hit_equals_fresh_run(tmp_path):
    store = ResultsCache(tmp_path)
    cfg = _small(seed=7)
    fresh = run_batch([cfg], cache=store)[0]
    assert store.misses >= 1
    hits_before = store.hits
    again = run_batch([cfg], cache=store)[0]
    assert store.hits == hits_before + 1
    assert again.summary == fresh.summary
    assert len(again.log) == len(fresh.log)
    assert (again.conn.sender.stats.submitted_segments
            == fresh.conn.sender.stats.submitted_segments)


def test_cached_results_survive_pickle_roundtrip(tmp_path):
    res = run_batch([_small(seed=9)], cache=ResultsCache(tmp_path))[0]
    clone = pickle.loads(pickle.dumps(res))
    assert clone.summary == res.summary


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    store = ResultsCache(tmp_path)
    cfg = _small(seed=5)
    key = config_key(cfg)
    store.put(key, run_one(cfg, cache=False))  # seed a valid entry
    store.path_for(key).write_bytes(b"not a pickle")
    assert store.get(key) is None
    res = run_batch([cfg], cache=store)[0]  # recomputes and heals the entry
    assert res.completed
    assert store.get(key) is not None


def test_env_dir_and_no_cache_opt_out(tmp_path, monkeypatch):
    monkeypatch.setenv(cache_mod.ENV_DIR, str(tmp_path / "envcache"))
    salted = tmp_path / "envcache" / code_salt()[:16]
    cfg = _small(seed=11)
    run_batch([cfg])
    assert [p.name for p in salted.glob("*.pkl")] == [
        f"{config_key(cfg)}.pkl"]

    monkeypatch.setenv(cache_mod.ENV_OFF, "1")
    other = _small(seed=12)
    run_batch([other])
    assert len(list(salted.glob("*.pkl"))) == 1  # unchanged


def test_code_salt_names_the_default_cache_directory(tmp_path, monkeypatch):
    """The key carries no code version; the default cache's directory
    does, so an entry stored under one salt is a miss under another."""
    monkeypatch.setenv(cache_mod.ENV_DIR, str(tmp_path))
    roots = []
    for salt in ("a" * 64, "b" * 64):
        monkeypatch.setattr(hashing, "_SALT_CACHE", salt)
        roots.append(default_cache().root)
        assert roots[-1] == tmp_path / salt[:16]
    monkeypatch.setattr(hashing, "_SALT_CACHE", "a" * 64)
    default_cache().put("k", 1)
    assert default_cache().get("k") == 1
    monkeypatch.setattr(hashing, "_SALT_CACHE", "b" * 64)
    assert default_cache().get("k") is None


def test_cache_get_type_mismatch_is_a_miss(tmp_path):
    from repro.experiments.common import ScenarioResult
    store = ResultsCache(tmp_path)
    key = "k" * 40
    store.put(key, {"stale": "payload of the wrong shape"})
    misses_before = store.misses
    assert store.get(key, expect=ScenarioResult) is None
    assert store.misses == misses_before + 1
    assert store.hits == 0
    # Without the expectation the (corrupt-but-unpicklable) value loads.
    assert store.get(key) == {"stale": "payload of the wrong shape"}


def test_cache_put_oserror_degrades_to_one_warning(tmp_path):
    """The store raises; the memo (``_cache_put``) warns once and hands
    back no cache, so ``run_batch`` warns once per batch."""
    import warnings as warnings_mod
    from repro.runner.pool import _cache_put
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file where the cache dir should go")
    # mkdir under a regular file raises NotADirectoryError (an OSError)
    # even for root, unlike permission bits.
    store = ResultsCache(blocker / "cache")
    with pytest.raises(OSError):
        store.put("a" * 40, {"v": 1})
    res = run_one(_small(seed=23), cache=False)
    with pytest.warns(RuntimeWarning, match="not writable"):
        assert _cache_put(store, "b" * 40, res) is None
    assert store.get("b" * 40) is None  # nothing was stored
    with warnings_mod.catch_warnings(record=True) as caught:
        warnings_mod.simplefilter("always")
        out = run_batch([_small(seed=24), _small(seed=25)], cache=store)
    assert all(r.completed for r in out)
    assert [str(w.message).count("not writable") for w in caught] == [1]
    from repro.campaign import run_campaign
    with warnings_mod.catch_warnings(record=True) as caught:
        warnings_mod.simplefilter("always")
        run = run_campaign({"template": {"workload": "greedy",
                                         "n_frames": 5},
                            "seeds": {"list": [1, 2]}},
                           dir=tmp_path / "camp", cache=store,
                           progress=False)
    assert run.complete and len(run.results) == 2    # cells still stored
    assert [str(w.message).count("not writable") for w in caught] == [1]


def test_unwritable_cache_does_not_kill_the_batch(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    store = ResultsCache(blocker / "cache")
    with pytest.warns(RuntimeWarning, match="not writable"):
        res = run_batch([_small(seed=21)], cache=store)[0]
    assert res.completed  # computed fresh, uncached


def test_atomic_write_failure_keeps_the_old_file_and_no_tmp(tmp_path,
                                                            monkeypatch):
    target = tmp_path / "made" / "on" / "demand" / "cell.pkl"
    cache_mod.atomic_write(target, b"old")      # missing directory created
    assert target.read_bytes() == b"old"

    def replace(src, dst):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(cache_mod.os, "replace", replace)
    with pytest.raises(OSError, match="No space left"):
        cache_mod.atomic_write(target, b"new bytes that never land")
    assert target.read_bytes() == b"old"
    assert [p.name for p in target.parent.iterdir()] == ["cell.pkl"]


def test_oserror_degrades_the_cache_but_fails_the_campaign_store(
        tmp_path, monkeypatch):
    """One store, one policy -- it raises: memoising is optional (the memo
    warns and stops), a cell is not (its campaign fails)."""
    from repro.campaign import CampaignStore, load_campaign, run_campaign
    from repro.runner.pool import _cache_put
    res = run_one(_small(seed=22), cache=False)
    camp = load_campaign({"template": {"workload": "greedy", "n_frames": 5}})
    CampaignStore(tmp_path / "run").init(camp)

    def replace(src, dst):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(cache_mod.os, "replace", replace)
    cache = ResultsCache(tmp_path / "cache")
    with pytest.raises(OSError, match="No space left"):
        cache.put("a" * 40, res)
    with pytest.warns(RuntimeWarning, match="not writable"):
        assert _cache_put(cache, "a" * 40, res) is None
    with pytest.raises(OSError, match="No space left"):
        CampaignStore(tmp_path / "camp").cells.put("c" * 20, res)
    with pytest.raises(OSError, match="No space left"):
        run_campaign(camp, dir=tmp_path / "run", cache=False,
                     progress=False)
    monkeypatch.undo()
    left = [p for p in tmp_path.rglob("*")
            if p.is_file() and p.name != "manifest.json"]
    assert left == []       # neither entry, cell, claim nor litter


def test_cache_put_unpicklable_payload_still_raises(tmp_path):
    store = ResultsCache(tmp_path)
    with pytest.raises((pickle.PicklingError, TypeError, AttributeError)):
        store.put("c" * 40, lambda: None)  # caller bug, not environment
    assert not list(tmp_path.glob("*.tmp"))  # no litter left behind


# ----------------------------------------------------------------------
# Experiment helpers fan out through the runner
# ----------------------------------------------------------------------
def test_table_helper_parallel_matches_serial(tmp_path):
    from repro.experiments.baseline import run_table2
    a = run_table2(n_frames=150, jobs=1, cache=False)
    b = run_table2(n_frames=150, jobs=2, cache=False)
    assert list(a) == list(b) == ["TCP", "IQ-RUDP"]
    for k in a:
        assert a[k].summary == b[k].summary


def test_table6_reshapes_flat_batch(tmp_path):
    from repro.experiments.overreaction import run_table6
    out = run_table6(groups=(12,), n_frames=150, jobs=2,
                     cache=ResultsCache(tmp_path))
    assert set(out) == {12}
    assert set(out[12]) == {"IQ-RUDP", "RUDP"}
