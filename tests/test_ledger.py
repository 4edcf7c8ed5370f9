"""Tests for :mod:`repro.obs.ledger`: append/replay determinism, torn
tails, the disarmed/armed ``record_run`` wrapper, sentinel verdicts on
synthetic drift, and the ``history``/``sentinel`` CLIs, plus the
producer hooks in ``run_batch`` / ``run_campaign``.
"""

import json
import os

import pytest

from repro.api import Scenario
from repro.campaign import Campaign, run_campaign
from repro.experiments.common import ScenarioConfig
from repro.obs.ledger import (RunLedger, ledger_enabled, metric_direction,
                              record_run, render_history, render_sentinel,
                              sentinel_verdicts)
from repro.runner import config_fingerprint, run_batch

TINY = dict(workload="greedy", n_frames=5, time_cap=30.0)

PINNED = dict(t=1700000000.0, host="testhost", salt="cafebabe" * 4)


def _append_runs(ledger, key, values, metric="cells_per_s"):
    for i, value in enumerate(values):
        ledger.append(kind="bench", key=key, metrics={metric: value},
                      t=PINNED["t"] + i, host=PINNED["host"],
                      salt=PINNED["salt"])


# ----------------------------------------------------------------------
# Append / replay determinism
# ----------------------------------------------------------------------
def test_append_replay_is_byte_identical(tmp_path):
    metrics = {"throughput_kBps": 123.4, "duration_s": 2.5,
               "note": "ok", "inf": float("inf"),
               "skipped": True, "log": ["not", "a", "scalar"]}
    ledgers = [RunLedger(tmp_path / name) for name in ("a", "b")]
    for ledger in ledgers:
        for i in range(3):
            ledger.append(kind="scenario", key=f"cfg-{i}", metrics=metrics,
                          fingerprint="f" * 20, t=PINNED["t"] + i,
                          host=PINNED["host"], salt=PINNED["salt"])
    raw_a = ledgers[0].path.read_bytes()
    assert raw_a == ledgers[1].path.read_bytes()
    # and the replay sees exactly what was appended, scalars only
    records = ledgers[0].read()
    assert [r["key"] for r in records] == ["cfg-0", "cfg-1", "cfg-2"]
    assert records[0]["metrics"] == {"throughput_kBps": 123.4,
                                     "duration_s": 2.5, "note": "ok",
                                     "inf": "inf", "skipped": True}
    assert records[0]["code_salt"] == PINNED["salt"][:16]
    assert records[0]["fingerprint"] == "f" * 20


def test_torn_tail_is_skipped_not_raised(tmp_path):
    ledger = RunLedger(tmp_path)
    _append_runs(ledger, "k", [1.0, 2.0])
    with open(ledger.path, "ab") as fh:
        fh.write(b'{"kind": "bench", "key": "k", "metr')  # torn final line
    records = ledger.read(key="k")
    assert [r["metrics"]["cells_per_s"] for r in records] == [1.0, 2.0]


def test_read_filters_and_keys(tmp_path):
    ledger = RunLedger(tmp_path)
    _append_runs(ledger, "alpha", [1.0])
    _append_runs(ledger, "beta", [2.0])
    ledger.append(kind="campaign", key="alpha", metrics={"cells_done": 4},
                  **PINNED)
    assert ledger.keys() == ["alpha", "beta"]
    assert ledger.keys(kind="campaign") == ["alpha"]
    assert len(ledger.read(key="alpha")) == 2
    assert len(ledger.read(key="alpha", kind="bench")) == 1
    assert RunLedger(tmp_path / "missing").read() == []


# ----------------------------------------------------------------------
# record_run wrapper
# ----------------------------------------------------------------------
def test_record_run_disarmed_is_noop(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    assert not ledger_enabled()
    assert record_run("bench", "k", {"x_per_s": 1.0}) is None
    assert os.listdir(tmp_path) == []


def test_record_run_armed_appends(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
    assert ledger_enabled()
    record = record_run("bench", "k", {"x_per_s": 1.0}, **PINNED)
    assert record["metrics"] == {"x_per_s": 1.0}
    (stored,) = RunLedger(tmp_path / "ledger").read()
    assert stored == json.loads(json.dumps(record))


def test_record_run_broken_ledger_warns_once(tmp_path, monkeypatch):
    import repro.obs.ledger as ledger_mod
    (tmp_path / "blocked").write_text("a file, not a directory")
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "blocked"))
    monkeypatch.setattr(ledger_mod, "_warned_broken", False)
    with pytest.warns(RuntimeWarning, match="not writable"):
        assert record_run("bench", "k", {"x_per_s": 1.0}) is None
    # second failure is silent: the run already knows
    assert record_run("bench", "k", {"x_per_s": 1.0}) is None


# ----------------------------------------------------------------------
# Sentinel
# ----------------------------------------------------------------------
def test_sentinel_identical_runs_are_ok(tmp_path):
    ledger = RunLedger(tmp_path)
    _append_runs(ledger, "k", [10.0, 10.0, 10.0])
    (verdict,) = sentinel_verdicts(ledger.read())
    assert verdict["verdict"] == "ok"
    assert verdict["delta_pct"] == 0.0
    assert verdict["window_n"] == 2


def test_sentinel_flags_rate_slowdown(tmp_path):
    ledger = RunLedger(tmp_path)
    _append_runs(ledger, "k", [10.0, 10.0, 10.0, 8.0])  # -20% on *_per_s
    (verdict,) = sentinel_verdicts(ledger.read())
    assert verdict["verdict"] == "regression"
    assert verdict["delta_pct"] == -20.0
    assert verdict["baseline"] == 10.0
    assert "regression" in render_sentinel([verdict])


def test_sentinel_flags_latency_increase_and_improvement(tmp_path):
    ledger = RunLedger(tmp_path)
    _append_runs(ledger, "slow", [1.0, 1.0, 1.3], metric="duration_s")
    _append_runs(ledger, "fast", [10.0, 10.0, 15.0])
    verdicts = {v["key"]: v["verdict"]
                for v in sentinel_verdicts(ledger.read())}
    assert verdicts == {"slow": "regression", "fast": "improved"}


def test_sentinel_single_run_is_insufficient_data(tmp_path):
    ledger = RunLedger(tmp_path)
    _append_runs(ledger, "k", [10.0])
    (verdict,) = sentinel_verdicts(ledger.read())
    assert verdict["verdict"] == "insufficient-data"
    assert verdict["window_n"] == 0


def test_sentinel_window_and_tolerance(tmp_path):
    ledger = RunLedger(tmp_path)
    # Old slow runs age out of a window of 2; the recent pool is 10s.
    _append_runs(ledger, "k", [1.0, 1.0, 10.0, 10.0, 9.5])
    (verdict,) = sentinel_verdicts(ledger.read(), window=2)
    assert verdict["verdict"] == "ok"
    assert verdict["baseline"] == 10.0
    (tight,) = sentinel_verdicts(ledger.read(), window=2, tolerance=0.01)
    assert tight["verdict"] == "regression"
    with pytest.raises(ValueError):
        sentinel_verdicts(ledger.read(), window=0)
    with pytest.raises(ValueError):
        sentinel_verdicts(ledger.read(), tolerance=-0.1)


def test_sentinel_ignores_non_directional_metrics(tmp_path):
    ledger = RunLedger(tmp_path)
    for value in (10.0, 20.0):
        ledger.append(kind="bench", key="k",
                      metrics={"fairness": value, "events": value},
                      **PINNED)
    assert sentinel_verdicts(ledger.read()) == []


def test_metric_direction():
    assert metric_direction("cells_per_s") == "higher"
    assert metric_direction("frame_fps") == "higher"
    assert metric_direction("speedup") is None  # needs the _speedup suffix
    assert metric_direction("vs_speedup") == "higher"
    assert metric_direction("duration_s") == "lower"
    assert metric_direction("overhead_pct") == "lower"
    assert metric_direction("guard_ns") == "lower"
    assert metric_direction("fairness") is None
    assert metric_direction("completed") is None


def test_render_history_shows_trajectory(tmp_path):
    ledger = RunLedger(tmp_path)
    _append_runs(ledger, "k", [10.0, 12.0, 8.0])
    out = render_history(ledger.read(key="k"))
    assert "history: k (3 run(s))" in out
    assert "cells_per_s" in out
    assert PINNED["salt"][:8] in out
    assert render_history([]).startswith("no ledger records")


# ----------------------------------------------------------------------
# Producer hooks
# ----------------------------------------------------------------------
def test_run_batch_records_scenario_rows(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_PROGRESS", "0")
    cfg = ScenarioConfig(**TINY)
    run_batch({"keyed-tiny": cfg})
    run_batch([cfg])
    records = RunLedger(tmp_path / "ledger").read(kind="scenario")
    assert [r["key"] for r in records][0] == "keyed-tiny"
    assert records[1]["key"].startswith("cfg:")
    for r in records:
        assert r["metrics"]["completed"] == 1.0
        assert len(r["fingerprint"]) == 20
    # Disarmed, nobody keeps the row, so its key is not worked out.
    from repro.runner import pool as pool_mod
    fingerprinted = []
    monkeypatch.setattr(
        pool_mod, "config_fingerprint",
        lambda c: fingerprinted.append(c) or config_fingerprint(c))
    run_batch([cfg])
    assert len(fingerprinted) == 1
    monkeypatch.delenv("REPRO_LEDGER_DIR")
    run_batch([cfg])
    assert len(fingerprinted) == 1


def test_run_campaign_records_campaign_row(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_PROGRESS", "0")
    camp = Campaign(Scenario(**TINY), name="ledgered",
                    axes={"transport": ["tcp", "iq"]}, seeds=1)
    run_campaign(camp)  # in-memory path, no campaign dir
    ledger = RunLedger(tmp_path / "ledger")
    (row,) = ledger.read(kind="campaign")
    assert row["key"] == "ledgered"
    assert row["metrics"]["cells_total"] == 2
    assert row["metrics"]["cells_done"] == 2
    assert row["metrics"]["cells_failed"] == 0
    assert row["metrics"]["cells_per_s"] > 0
    assert row["timings"]["duration_s"] > 0
    assert len(row["fingerprint"]) == 20
    # the per-cell scenario rows ride along too
    assert len(ledger.read(kind="scenario")) == 2


# ----------------------------------------------------------------------
# CLIs
# ----------------------------------------------------------------------
def test_history_cli(tmp_path, monkeypatch, capsys):
    from repro.cli import main
    monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
    assert main(["history", "k"]) == 2
    assert "ledger" in capsys.readouterr().err

    ledger_dir = str(tmp_path / "ledger")
    _append_runs(RunLedger(ledger_dir), "k", [10.0, 12.0])
    assert main(["history", "k", "--ledger-dir", ledger_dir]) == 0
    assert "history: k (2 run(s))" in capsys.readouterr().out

    assert main(["history", "nope", "--ledger-dir", ledger_dir]) == 2
    assert "k" in capsys.readouterr().err  # known-keys hint

    assert main(["history", "k", "--ledger-dir", ledger_dir,
                 "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["metrics"]["cells_per_s"] for r in rows] == [10.0, 12.0]


def test_sentinel_cli(tmp_path, monkeypatch, capsys):
    from repro.cli import main
    monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
    assert main(["sentinel"]) == 2
    capsys.readouterr()

    ledger_dir = str(tmp_path / "ledger")
    ledger = RunLedger(ledger_dir)
    _append_runs(ledger, "steady", [10.0, 10.0, 10.0])
    assert main(["sentinel", "--ledger-dir", ledger_dir]) == 0
    assert "0 regression(s)" in capsys.readouterr().out

    _append_runs(ledger, "drifty", [10.0, 10.0, 10.0, 5.0])
    assert main(["sentinel", "--ledger-dir", ledger_dir]) == 1
    out = capsys.readouterr().out
    assert "regression" in out

    # filtering to the healthy key passes again
    assert main(["sentinel", "steady", "--ledger-dir", ledger_dir]) == 0
    capsys.readouterr()

    assert main(["sentinel", "--ledger-dir", ledger_dir, "--json"]) == 1
    verdicts = json.loads(capsys.readouterr().out)
    assert {v["key"]: v["verdict"] for v in verdicts} == {
        "steady": "ok", "drifty": "regression"}
