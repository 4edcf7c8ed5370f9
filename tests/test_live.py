"""Tests for :mod:`repro.obs.live`: heartbeat atomicity/expiry, the one
snapshot (incremental fold vs ``aggregate``, lease and heartbeat detail),
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
from repro.obs.live import (DEFAULT_EXPIRY_S, PROM_CONTENT_TYPE,
                            HeartbeatWriter, build_metrics_text,
                            heartbeat_state, make_live_server,
                            read_heartbeats, render_watch, watch_snapshot)
from repro.runner.cache import atomic_write
from repro.runner.failures import FailedResult

TINY = dict(workload="greedy", n_frames=5, time_cap=30.0)

SUMMARIES = {
    "tcp": {"duration_s": 2.0, "throughput_kBps": 100.0,
            "msg_interarrival_s": 0.01, "msg_jitter_s": 0.002},
    "iq": {"duration_s": 1.0, "throughput_kBps": 200.0,
           "msg_interarrival_s": 0.005, "msg_jitter_s": 0.001},
}


def _atomic_write_json(path, payload):
    atomic_write(path, json.dumps(payload, sort_keys=True).encode())


def _golden_campaign():
    return Campaign(Scenario(**TINY), name="golden",
                    axes={"transport": ["tcp", "iq"]}, seeds=1)


def _result(summary):
    return ScenarioResult(summary=dict(summary), log=[], conn=None,
                          source=None, strategy=None, net=None, sim=None,
                          completed=1)


@pytest.fixture()
def golden_dir(tmp_path):
    """A finished 2-cell campaign directory with one pinned heartbeat --
    every byte of it is deterministic (synthetic results, no clocks)."""
    camp = _golden_campaign()
    store = CampaignStore(tmp_path / "camp")
    store.init(camp)
    for cell in camp.cells():
        store.store_cell(cell.key,
                         _result(SUMMARIES[cell.assignment["transport"]]))
    _atomic_write_json(store.heartbeat_dir / "w1.json", {
        "v": 1, "worker": "w1", "pid": 4242, "host": "testhost",
        "state": "running", "started_at": 1000.0, "updated_at": 1000.0,
        "claimed": None, "claimed_key": None, "done": 2, "failed": 0,
        "rate_per_s": 0.5, "note": "transport:COMPLETE"})
    return tmp_path / "camp"


# ----------------------------------------------------------------------
# Heartbeat writer: atomicity, throttling, failure behaviour
# ----------------------------------------------------------------------
def test_heartbeat_write_is_atomic_and_leaves_no_tmp(tmp_path):
    hb = HeartbeatWriter(tmp_path, "w0", clock=lambda: 1000.0)
    for _ in range(20):
        hb.beat(force=True)
    names = sorted(os.listdir(tmp_path))
    assert names == ["w0.json"], "only the final renamed file may exist"
    payload = json.loads((tmp_path / "w0.json").read_text())
    assert payload["worker"] == "w0"
    assert payload["updated_at"] == 1000.0
    assert payload["state"] == "running"


def test_heartbeat_throttles_unforced_beats(tmp_path):
    hb = HeartbeatWriter(tmp_path, "w0", min_interval_s=3600.0,
                         clock=lambda: 1000.0)
    first = (tmp_path / "w0.json").read_text()
    hb.done = 99
    hb.beat()  # throttled: within min_interval of the construction write
    assert (tmp_path / "w0.json").read_text() == first
    hb.beat(force=True)
    assert json.loads((tmp_path / "w0.json").read_text())["done"] == 99


def test_heartbeat_counters_and_note(tmp_path):
    clock_now = [1000.0]
    hb = HeartbeatWriter(tmp_path, "w0", min_interval_s=0.0,
                         clock=lambda: clock_now[0])
    hb.claim("cell-a", "k1")
    assert json.loads((tmp_path / "w0.json").read_text())["claimed"] == \
        "cell-a"
    clock_now[0] = 1001.0
    hb.complete(note="run:COMPLETE")
    clock_now[0] = 1002.0
    hb.complete(failed=True, note="link:DOWN")
    payload = json.loads((tmp_path / "w0.json").read_text())
    assert payload["done"] == 2
    assert payload["failed"] == 1
    assert payload["claimed"] is None
    assert payload["note"] == "link:DOWN"
    assert payload["rate_per_s"] == pytest.approx(1.0)  # 2 in 2s window


def test_heartbeat_never_raises_on_broken_directory(tmp_path):
    hb = HeartbeatWriter(tmp_path / "hb", "w0")
    # Replace the heartbeat directory with a plain file: every future
    # write must fail -- silently.
    os.unlink(hb.path)
    os.rmdir(tmp_path / "hb")
    (tmp_path / "hb").write_text("not a directory")
    hb.beat(force=True)  # flips the writer into broken mode
    hb.complete()        # and stays silent thereafter
    hb.close()
    assert (tmp_path / "hb").read_text() == "not a directory"


def test_heartbeat_kill_switch(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_HEARTBEAT", "0")
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_PROGRESS", "0")
    run_campaign(_golden_campaign(), dir=tmp_path / "camp", workers=1)
    assert not os.path.exists(tmp_path / "camp" / "heartbeats")


# ----------------------------------------------------------------------
# Liveness classification
# ----------------------------------------------------------------------
def test_heartbeat_state_expiry_window():
    hb = {"state": "running", "updated_at": 1000.0}
    assert heartbeat_state(hb, now=1000.0 + DEFAULT_EXPIRY_S - 1) == "live"
    assert heartbeat_state(hb, now=1000.0 + DEFAULT_EXPIRY_S) == "stale"
    assert heartbeat_state({"state": "exited", "updated_at": 1000.0},
                           now=1000.5) == "exited"
    assert heartbeat_state({"state": "running"}, now=0.0) == "stale"


def test_read_heartbeats_skips_corrupt_files(tmp_path):
    _atomic_write_json(tmp_path / "good.json",
                       {"worker": "good", "updated_at": 1.0})
    (tmp_path / "torn.json").write_text('{"worker": "to')
    (tmp_path / "noise.txt").write_text("ignored")
    assert [hb["worker"] for hb in read_heartbeats(tmp_path)] == ["good"]


def test_dead_worker_reported_stale_after_lease_timeout(golden_dir):
    store = CampaignStore(golden_dir)
    snap = watch_snapshot(golden_dir, now=1000.0 + store.lease_s + 1,
                          expiry_s=store.lease_s)
    (hb,) = snap["workers"]
    assert hb["worker"] == "w1"
    assert hb["state"] == "stale"
    assert hb["age_s"] == pytest.approx(store.lease_s + 1)
    # ... while a just-renewed view of the same file reads live.
    assert watch_snapshot(golden_dir, now=1001.0, expiry_s=store.lease_s)[
        "workers"][0]["state"] == "live"


def test_status_reports_stale_lease_detail(tmp_path):
    camp = _golden_campaign()
    store = CampaignStore(tmp_path, lease_s=0.01)
    store.init(camp)
    cells = camp.cells()
    assert store.try_claim(cells[0].key)
    time.sleep(0.02)  # let the lease expire
    snap = watch_snapshot(tmp_path, expiry_s=store.lease_s)
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
campaign golden: 2/2 done (0 failed), 0 running, 0 pending

workers
worker  state  age  cell  done  failed  cells/s  last note
------  -----  ---  ----  ----  ------  -------  ------------------
w1      live   1s   -     2     0       0.50     transport:COMPLETE

axis: transport (streaming, 2 cells in)
transport  metric              n  mean   min    max    std
---------  ------------------  -  -----  -----  -----  ---
'iq'       duration_s          1  1      1      1      0
'iq'       throughput_kBps     1  200    200    200    0
'iq'       msg_interarrival_s  1  0.005  0.005  0.005  0
'iq'       msg_jitter_s        1  0.001  0.001  0.001  0
'tcp'      duration_s          1  2      2      2      0
'tcp'      throughput_kBps     1  100    100    100    0
'tcp'      msg_interarrival_s  1  0.01   0.01   0.01   0
'tcp'      msg_jitter_s        1  0.002  0.002  0.002  0"""


def _rstripped(text):
    # The renderer pads table cells with trailing spaces; strip them so
    # the golden survives editors that trim trailing whitespace.
    return "\n".join(line.rstrip() for line in text.splitlines())


def test_watch_snapshot_golden(golden_dir):
    snap = watch_snapshot(golden_dir, now=1001.0)
    assert _rstripped(render_watch(snap)) == GOLDEN_WATCH


def test_watch_snapshot_is_deterministic_given_now(golden_dir):
    a = watch_snapshot(golden_dir, now=1001.0)
    b = watch_snapshot(golden_dir, now=1001.0)
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
    assert 'repro_campaign_workers{state="live"} 1' in text
    assert 'repro_campaign_worker_cells{worker="w1",state="done"} 2' in text
    assert 'repro_campaign_worker_rate_cells_per_s{worker="w1"} 0.5' in text


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


def _cli(capsys, *argv):
    from repro.cli import main
    assert main(["campaign", *argv]) == 0
    return capsys.readouterr().out


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
    assert sum(watch_snapshot(root)["executed"].values()) == len(camp)


# ----------------------------------------------------------------------
# Acceptance: a real 2-worker campaign is observable end to end
# ----------------------------------------------------------------------
def test_two_worker_campaign_shows_heartbeats_and_aggregates(
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
    workers = [hb["worker"]
               for hb in read_heartbeats(tmp_path / "camp" / "heartbeats")]
    assert len(workers) == 2
    for worker in workers:
        assert worker in out

    assert main(["campaign", "status", str(tmp_path / "camp")]) == 0
    status_out = capsys.readouterr().out
    assert "heartbeat" in status_out
    assert "exited" in status_out
