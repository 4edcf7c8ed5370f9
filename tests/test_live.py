"""Tests for :mod:`repro.obs.live`: the one snapshot (incremental fold vs
``aggregate``, worker rows from claims and journals, lease detail),
deterministic ``watch --once`` goldens, the Prometheus ``serve`` endpoint,
and one directory read through ``status``, ``watch``, ``report`` and
``/metrics``.

Golden discipline: a watch snapshot is a pure function of the directory
contents and the injected ``now``, so the goldens here pin exact bytes --
a formatting change must update them consciously.
"""

import json
import os
import threading
import time
import urllib.request

import pytest

from repro.api import Scenario
from repro.campaign import Campaign, CampaignStore, aggregate, run_campaign
from repro.experiments.common import ScenarioResult
from repro.obs.live import (PROM_CONTENT_TYPE, build_metrics_text,
                            make_live_server, render_watch, watch_snapshot)
from repro.runner.cache import atomic_write
from repro.runner.failures import FailedResult

TINY = dict(workload="greedy", n_frames=5, time_cap=30.0)

SUMMARIES = {
    "tcp": {"duration_s": 2.0, "throughput_kBps": 100.0,
            "msg_interarrival_s": 0.01, "msg_jitter_s": 0.002},
    "iq": {"duration_s": 1.0, "throughput_kBps": 200.0,
           "msg_interarrival_s": 0.005, "msg_jitter_s": 0.001},
}


def _golden_campaign():
    return Campaign(Scenario(**TINY), name="golden",
                    axes={"transport": ["tcp", "iq"]}, seeds=1)


def _result(summary):
    return ScenarioResult(summary=dict(summary), log=[], conn=None,
                          source=None, strategy=None, net=None, sim=None,
                          completed=1)


def _finish(store, cells):
    """Store and journal ``cells`` as ``store.worker`` would."""
    for cell in cells:
        store.store_cell(cell.key,
                         _result(SUMMARIES[cell.assignment["transport"]]))
        store.journal().append(cell.key, "ok")
    store.close()


def _pin_claim(root, cell, worker, *, claimed_at, lease_s=300.0):
    """The lease ``worker`` took on ``cell`` at ``claimed_at``."""
    atomic_write(CampaignStore(root).claim_path(cell.key), json.dumps({
        "worker": worker, "pid": 4242, "host": "testhost",
        "claimed_at": claimed_at, "expires_at": claimed_at + lease_s,
        "generation": 1}).encode())


@pytest.fixture()
def golden_dir(tmp_path):
    """A finished 2-cell campaign directory whose worker ``w1`` journaled
    both cells -- every byte of it is deterministic (synthetic results,
    no clocks)."""
    camp = _golden_campaign()
    store = CampaignStore(tmp_path / "camp", worker="w1")
    store.init(camp)
    _finish(store, camp.cells())
    return tmp_path / "camp"


@pytest.fixture()
def midrun_dir(tmp_path):
    """The same campaign caught mid-run: ``w1`` finished the tcp cell and
    ``w2`` has held the lease on the iq cell since t=1000 s."""
    camp = _golden_campaign()
    tcp, iq = camp.cells()
    store = CampaignStore(tmp_path / "camp", worker="w1")
    store.init(camp)
    _finish(store, [tcp])
    _pin_claim(tmp_path / "camp", iq, "w2", claimed_at=1000.0)
    return tmp_path / "camp"


def _cli(capsys, *argv):
    from repro.cli import main
    assert main(["campaign", *argv]) == 0
    return capsys.readouterr().out


# ----------------------------------------------------------------------
# Worker rows: the claim is the liveness, the journal the counts
# ----------------------------------------------------------------------
def test_worker_state_comes_from_the_claim_lease(midrun_dir):
    _tcp, iq = _golden_campaign().cells()
    rows = lambda now: {w["worker"]: w for w in watch_snapshot(
        midrun_dir, now=now)["workers"]}
    live = rows(1000.0 + 300.0 - 1)
    assert live["w2"] == {"worker": "w2", "state": "running",
                          "cell": iq.label, "age_s": 299.0,
                          "done": 0, "failed": 0}
    assert live["w1"] == {"worker": "w1", "state": "idle", "cell": None,
                          "age_s": None, "done": 1, "failed": 0}
    # The lease runs out at expires_at exactly: the cell is stealable
    # and its holder stale in the same instant.
    assert rows(1000.0 + 300.0)["w2"]["state"] == "stale"


def test_dead_worker_reported_stale_after_lease_timeout(midrun_dir, capsys):
    _tcp, iq = _golden_campaign().cells()
    store = CampaignStore(midrun_dir)
    snap = watch_snapshot(midrun_dir, now=1000.0 + store.lease_s + 1)
    w2 = next(w for w in snap["workers"] if w["worker"] == "w2")
    assert w2["state"] == "stale" and w2["cell"] == iq.label
    assert w2["age_s"] == pytest.approx(store.lease_s + 1)
    # ... while a view inside the lease reads it running.
    assert watch_snapshot(midrun_dir, now=1001.0)["workers"][1][
        "state"] == "running"
    # The lease was taken at t=1000 s of the epoch: on the wall clock
    # every surface reads it stale, on its cell.
    status = json.loads(_cli(capsys, "status", str(midrun_dir), "--json"))
    assert {(w["worker"], w["state"], w["cell"])
            for w in status["workers"]} == {("w1", "idle", None),
                                            ("w2", "stale", iq.label)}
    watch = _cli(capsys, "watch", str(midrun_dir), "--once")
    assert f"warning: stale claim on {iq.label!r} held by w2" in watch
    assert any(line.split()[:2] == ["w2", "stale"]
               for line in watch.splitlines())
    metrics = build_metrics_text(midrun_dir)
    assert 'repro_campaign_workers{state="stale"} 1' in metrics
    assert 'repro_campaign_workers{state="running"} 0' in metrics


def test_status_reports_stale_lease_detail(tmp_path):
    camp = _golden_campaign()
    store = CampaignStore(tmp_path, lease_s=0.01)
    store.init(camp)
    cells = camp.cells()
    assert store.try_claim(cells[0].key)
    time.sleep(0.02)  # let the lease expire
    snap = watch_snapshot(tmp_path)
    assert snap["stale_claims"] == 1 and snap["running"] == 0
    (claim,) = [c for c in snap["claims"] if c["expired"]]
    assert claim["cell"] == cells[0].label
    assert claim["worker"] == store.worker
    # A foreign claim file with no usable times reads as stale, age 0.
    store.claim_path(cells[1].key).write_text(
        '{"worker": "x", "claimed_at": "noon"}')
    snap = watch_snapshot(tmp_path)
    assert snap["stale_claims"] == 2
    assert snap["claims"][1] == {"cell": cells[1].label, "worker": "x",
                                 "age_s": 0.0, "expired": True}


def test_snapshot_opens_only_the_claims_that_exist(tmp_path, monkeypatch):
    camp = Campaign(Scenario(**TINY), name="wide",
                    axes={"transport": ["tcp", "iq"]}, seeds=100)
    cells = camp.cells()
    store = CampaignStore(tmp_path)
    store.init(camp)
    assert store.try_claim(cells[7].key)
    opened = []
    real_read = CampaignStore.read_claim
    monkeypatch.setattr(
        CampaignStore, "read_claim",
        lambda self, key: opened.append(key) or real_read(self, key))
    snap = watch_snapshot(tmp_path)
    assert len(cells) == 200 and opened == [cells[7].key]
    assert snap["running"] == 1 and snap["pending"] == 199


def test_finished_directory_holds_only_the_protocol_files(tmp_path,
                                                          monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    run_campaign(_golden_campaign(), dir=tmp_path / "camp", workers=1,
                 progress=False)
    assert sorted(os.listdir(tmp_path / "camp")) == [
        "cells", "claims", "journal", "manifest.json"]


@pytest.mark.parametrize("argv", [["campaign", "watch"], ["serve"]])
def test_expiry_flag_is_an_argparse_error(argv, golden_dir, capsys):
    from repro.cli import main
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(golden_dir), "--expiry", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --expiry" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The fold over a directory that fills up
# ----------------------------------------------------------------------
def test_streaming_axes_match_batch_aggregate(golden_dir):
    camp = _golden_campaign()
    store = CampaignStore(golden_dir)
    agg = store.aggregator()
    assert agg.poll(store) == 2
    assert agg.poll(store) == 0  # idempotent: nothing new to fold
    results = {c.key: store.load_cell(c.key) for c in camp.cells()}
    batch = aggregate(camp, results)
    assert agg.report().to_json() == batch.to_json()
    snap = watch_snapshot(golden_dir, agg=agg, now=1001.0)
    assert snap["axes"] == batch.axes
    assert snap["failures"] == batch.failures


def test_streaming_fold_is_incremental(golden_dir, monkeypatch):
    camp = _golden_campaign()
    store = CampaignStore(golden_dir)
    cells = camp.cells()
    agg = store.aggregator()
    os.unlink(store.cell_path(cells[1].key))
    assert agg.poll(store) == 1
    assert agg.done == 1
    loaded = []
    real_load = CampaignStore.load_cell
    monkeypatch.setattr(
        CampaignStore, "load_cell",
        lambda self, key: loaded.append(key) or real_load(self, key))
    # The second cell lands later; only it is folded by the next poll.
    store.store_cell(cells[1].key,
                     _result(SUMMARIES[cells[1].assignment["transport"]]))
    assert agg.poll(store) == 1
    assert agg.done == 2
    assert loaded == [cells[1].key]  # the folded cell is not read again
    assert not agg.fold(cells[1].key, _result(SUMMARIES["iq"]))


# ----------------------------------------------------------------------
# watch --once golden
# ----------------------------------------------------------------------
GOLDEN_WATCH = """\
campaign golden: 1/2 done (0 failed), 1 running, 0 pending

workers
worker  state    age  cell                   done  failed
------  -------  ---  ---------------------  ----  ------
w1      idle     -    -                      1     0
w2      running  1s   transport='iq',seed=1  0     0

axis: transport (streaming, 1 cells in)
transport  metric              n  mean   min    max    std
---------  ------------------  -  -----  -----  -----  ---
'tcp'      duration_s          1  2      2      2      0
'tcp'      throughput_kBps     1  100    100    100    0
'tcp'      msg_interarrival_s  1  0.01   0.01   0.01   0
'tcp'      msg_jitter_s        1  0.002  0.002  0.002  0"""


def _rstripped(text):
    # The renderer pads table cells with trailing spaces; strip them so
    # the golden survives editors that trim trailing whitespace.
    return "\n".join(line.rstrip() for line in text.splitlines())


def test_watch_snapshot_golden(midrun_dir):
    snap = watch_snapshot(midrun_dir, now=1001.0)
    assert _rstripped(render_watch(snap)) == GOLDEN_WATCH


def test_watch_snapshot_is_deterministic_given_now(midrun_dir):
    a = watch_snapshot(midrun_dir, now=1001.0)
    b = watch_snapshot(midrun_dir, now=1001.0)
    assert a == b


def test_watch_once_cli(golden_dir, capsys):
    from repro.cli import main
    assert main(["campaign", "watch", str(golden_dir), "--once"]) == 0
    out = capsys.readouterr().out
    assert "campaign golden: 2/2 done" in out
    assert "w1" in out
    assert "axis: transport (streaming, 2 cells in)" in out


def test_watch_missing_dir_is_user_error(tmp_path, capsys):
    from repro.cli import main
    assert main(["campaign", "watch", str(tmp_path / "nope"),
                 "--once"]) == 2
    assert "no campaign manifest" in capsys.readouterr().err


def test_watch_shows_stale_claim_warning(golden_dir):
    camp = _golden_campaign()
    store = CampaignStore(golden_dir, lease_s=0.01)
    cells = camp.cells()
    os.unlink(store.cell_path(cells[0].key))
    assert store.try_claim(cells[0].key)
    time.sleep(0.02)
    # Claim leases carry wall-clock expiries, so use the real clock here.
    out = render_watch(watch_snapshot(golden_dir))
    assert "warning: stale claim" in out
    assert "stealable" in out


# ----------------------------------------------------------------------
# Prometheus serving
# ----------------------------------------------------------------------
def test_metrics_text_reuses_pinned_report_formatting(golden_dir):
    text = build_metrics_text(golden_dir, now=1001.0)
    camp = _golden_campaign()
    store = CampaignStore(golden_dir)
    results = {c.key: store.load_cell(c.key) for c in camp.cells()}
    report_lines = aggregate(camp, results).render_prometheus().rstrip("\n")
    assert text.startswith(report_lines)
    assert 'repro_campaign_workers{state="idle"} 1' in text
    assert 'repro_campaign_worker_cells{worker="w1",state="done"} 2' in text
    assert "rate" not in text


def test_serve_endpoint_content_type_and_pinned_bytes(golden_dir):
    server = make_live_server(golden_dir, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        resp = urllib.request.urlopen(f"{base}/metrics")
        assert resp.headers["Content-Type"] == PROM_CONTENT_TYPE
        body = resp.read()
        # Scrapes over an unchanged directory are byte-identical, and
        # agree with the offline renderer up to the (age-independent)
        # worker-state lines.
        assert body == urllib.request.urlopen(f"{base}/metrics").read()
        assert body.decode() == build_metrics_text(golden_dir)
        root = urllib.request.urlopen(f"{base}/")
        assert "campaign golden: 2/2 done" in root.read().decode()
        assert urllib.request.urlopen(f"{base}/healthz").read() == b"ok\n"
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{base}/nope")
        assert err.value.code == 404
    finally:
        server.shutdown()
        server.server_close()


def test_serve_refuses_non_campaign_dir(tmp_path):
    with pytest.raises(FileNotFoundError, match="no campaign manifest"):
        make_live_server(tmp_path, port=0)


# ----------------------------------------------------------------------
# One directory, four surfaces: status, watch, report, /metrics
# ----------------------------------------------------------------------
ORDER_SENSITIVE = (0.1, 0.2, 0.3, 0.4)  # their float sum depends on order


@pytest.fixture()
def order_dir(tmp_path):
    """A finished 12-cell directory (one cell failed) whose per-axis sums
    come out differently in expansion order and in sha-key order."""
    camp = Campaign(Scenario(**TINY), name="order",
                    axes={"transport": ["tcp", "iq", "rudp"]}, seeds=4)
    store = CampaignStore(tmp_path / "camp", worker="w0")
    store.init(camp)
    for n, cell in enumerate(camp.cells()):
        value = ORDER_SENSITIVE[cell.seed - 1]
        res = (FailedResult(kind="timeout", scenario=cell.label) if n == 1
               else _result({"duration_s": value,
                             "throughput_kBps": 3 * value,
                             "msg_interarrival_s": 7 * value,
                             "msg_jitter_s": value / 3}))
        store.store_cell(cell.key, res)
        store.journal().append(cell.key, getattr(res, "kind", "ok"))
    store.close()
    return tmp_path / "camp", camp


def test_metrics_endpoint_starts_with_report_prom(order_dir, capsys):
    root, _camp = order_dir
    report_prom = _cli(capsys, "report", str(root), "--prom")
    server = make_live_server(root, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        body = urllib.request.urlopen(f"http://{host}:{port}/metrics").read()
    finally:
        server.shutdown()
        server.server_close()
    assert body.decode()[:len(report_prom)] == report_prom
    assert 'stat="mean"' in report_prom


def test_watch_shows_the_axis_rows_of_report(order_dir, capsys):
    root, _camp = order_dir
    report = _cli(capsys, "report", str(root)).splitlines()
    watch = _cli(capsys, "watch", str(root), "--once").splitlines()
    start = report.index("axis: transport")
    rows = report[start + 1:]
    assert len(rows) == 2 + 3 * 4  # header, rule, 3 values x 4 metrics
    assert watch[-len(rows):] == rows
    assert watch[-len(rows) - 1] == "axis: transport (streaming, 12 cells in)"


def test_status_watch_report_agree_on_counts(order_dir, capsys):
    root, camp = order_dir
    status = json.loads(_cli(capsys, "status", str(root), "--json"))
    report = json.loads(_cli(capsys, "report", str(root), "--json"))
    watch = _cli(capsys, "watch", str(root), "--once")
    short = _cli(capsys, "status", str(root))
    assert status["total"] == report["cells"]["total"] == len(camp) == 12
    assert status["done"] == report["cells"]["done"] == 12
    assert status["failed"] == report["cells"]["failed"] == 1
    assert status["failures"] == report["failures"]["by_kind"] == {
        "timeout": 1}
    assert status["axes"] == report["per_axis"]
    headline = "campaign order: 12/12 done (1 failed), 0 running, 0 pending"
    assert watch.splitlines()[0] == short.splitlines()[0] == headline
    assert "failures by kind: timeout: 1" in watch
    # Zero duplicate executions: every cell sits in exactly one journal.
    assert status["executed"] == {"w0": 12}
    # The worker row is that journal: 12 frames, one of them not "ok".
    assert status["workers"] == [{"worker": "w0", "state": "idle",
                                  "cell": None, "age_s": None,
                                  "done": 12, "failed": 1}]
    assert sum(watch_snapshot(root)["executed"].values()) == len(camp)


# ----------------------------------------------------------------------
# Acceptance: a real 2-worker campaign is observable end to end
# ----------------------------------------------------------------------
def test_two_worker_campaign_shows_journal_rows_and_aggregates(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_PROGRESS", "0")
    camp = Campaign(Scenario(**TINY), name="accept",
                    axes={"transport": ["tcp", "iq"]}, seeds=2)
    run = run_campaign(camp, dir=tmp_path / "camp", workers=2)
    assert run.complete

    from repro.cli import main
    assert main(["campaign", "watch", str(tmp_path / "camp"),
                 "--once"]) == 0
    out = capsys.readouterr().out
    assert "campaign accept: 4/4 done" in out
    assert "axis: transport (streaming, 4 cells in)" in out
    snap = watch_snapshot(tmp_path / "camp")
    assert len(snap["workers"]) == 1   # one claimer, two cells in flight
    assert sum(w["done"] for w in snap["workers"]) == sum(
        snap["executed"].values()) == 4
    for w in snap["workers"]:
        assert w["state"] == "idle" and w["failed"] == 0
        assert w["done"] == snap["executed"][w["worker"]]
        assert w["worker"] in out

    assert main(["campaign", "status", str(tmp_path / "camp")]) == 0
    status_out = capsys.readouterr().out
    assert status_out.splitlines()[0] == (
        "campaign accept: 4/4 done (0 failed), 0 running, 0 pending")
    assert "idle" in status_out and "axis:" not in status_out
