"""Live campaign observability: worker heartbeats and the one snapshot.

A work-stealing campaign (:mod:`repro.campaign`) is thousands of cells
executed by N coordination-free workers over a shared directory.  This
module is the view into one while it runs:

* **Heartbeats** -- every campaign worker periodically writes one small
  JSON file into a ``heartbeats/`` directory next to the results: claimed
  cell, cells done/failed, a rolling cell rate, the last flight-recorder
  note and process identity.  Writes are atomic
  (:func:`~repro.runner.cache.atomic_write`) and throttled, so a reader
  never sees a torn file and a worker never spends its time painting.
  ``REPRO_HEARTBEAT=0`` disables the writer entirely (the disarmed path
  is one env-dict lookup at construction).
* **The snapshot** -- :func:`watch_snapshot` is the only function that
  walks a directory's manifest, cells, claims, heartbeats and journal
  counts for display.  The cells go through the campaign's one fold
  (:class:`~repro.campaign.aggregate.Aggregator`): a poll reads only the
  result files it has not folded yet, so a watcher over a 10k-cell
  campaign does O(new) file reads per refresh, and the per-axis numbers
  are the final report's, digit for digit.  The snapshot is plain data and
  a pure function of the directory contents and the ``now`` argument, so
  ``--once`` output is deterministic and golden-testable.
* **Renderings** -- :func:`render_watch` (``repro campaign watch``: worker
  table, stale-claim warnings, per-axis tables), :func:`render_status`
  (``repro campaign status``: the short form; ``--json`` prints the
  snapshot itself) and :func:`build_metrics_text` (Prometheus text
  exposition 0.0.4: the report's own
  :meth:`~repro.campaign.aggregate.CampaignReport.render_prometheus` text
  followed by worker gauges), which :func:`make_live_server` wraps in a
  stdlib :class:`http.server.ThreadingHTTPServer` for ``repro serve``.

Heartbeat liveness reuses the campaign lease discipline: a worker whose
heartbeat has not been renewed within the expiry window (default: the
claim lease, :data:`DEFAULT_EXPIRY_S`) is reported ``stale`` -- the same
condition under which its claimed cell becomes stealable.
"""

from __future__ import annotations

import json
import os
import pathlib
import socket
import time
from collections import deque
from typing import Any, Mapping

from ..analysis.tables import render_table
from ..runner.cache import atomic_write
from .metrics import _prom_name, _prom_value

__all__ = [
    "HeartbeatWriter", "heartbeat_enabled", "read_heartbeats",
    "heartbeat_state", "watch_snapshot", "render_watch", "render_status",
    "build_metrics_text", "make_live_server",
    "DEFAULT_EXPIRY_S", "DEFAULT_BEAT_INTERVAL_S",
]

#: A worker whose heartbeat is older than this is reported ``stale`` --
#: matches the default claim lease (``store.DEFAULT_LEASE_S``), because a
#: worker that stopped renewing for a full lease is exactly the worker
#: whose cells are about to be stolen.
DEFAULT_EXPIRY_S = 300.0

#: Minimum wall-clock seconds between heartbeat file writes; between
#: writes a ``beat`` costs one monotonic-clock read and a compare.
DEFAULT_BEAT_INTERVAL_S = 1.0

#: Completions inside this trailing window feed the rolling cell rate.
RATE_WINDOW_S = 30.0


def heartbeat_enabled() -> bool:
    """``REPRO_HEARTBEAT=0`` is the kill switch; anything else arms."""
    return os.environ.get("REPRO_HEARTBEAT", "") != "0"


class HeartbeatWriter:
    """One worker's liveness file, written atomically and throttled.

    The writer never raises out of :meth:`beat`: a full disk or a removed
    campaign directory silently disables it -- heartbeats are advisory
    telemetry and must not take the worker down with them.

    ``clock`` is injectable so tests can pin the timestamps that land in
    the file (throttling still uses the monotonic clock).
    """

    def __init__(self, directory: "str | os.PathLike", worker: str, *,
                 min_interval_s: float = DEFAULT_BEAT_INTERVAL_S,
                 clock=time.time) -> None:
        self.path = pathlib.Path(directory) / f"{worker}.json"
        self.worker = worker
        self.min_interval_s = min_interval_s
        self.clock = clock
        self.done = 0
        self.failed = 0
        self.claimed: str | None = None
        self.claimed_key: str | None = None
        self.note: str | None = None
        self.started_at = clock()
        self._completions: deque = deque()
        self._last_write = float("-inf")
        self._broken = False
        self.beat(force=True)

    # ------------------------------------------------------------------
    def _rate_per_s(self, now: float) -> float:
        while self._completions and now - self._completions[0] > RATE_WINDOW_S:
            self._completions.popleft()
        window = min(max(now - self.started_at, 1e-9), RATE_WINDOW_S)
        return len(self._completions) / window

    def _payload(self, state: str) -> dict[str, Any]:
        now = self.clock()
        return {
            "v": 1,
            "worker": self.worker,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "state": state,
            "started_at": self.started_at,
            "updated_at": now,
            "claimed": self.claimed,
            "claimed_key": self.claimed_key,
            "done": self.done,
            "failed": self.failed,
            "rate_per_s": round(self._rate_per_s(now), 4),
            "note": self.note,
        }

    def beat(self, *, force: bool = False, state: str = "running") -> None:
        """Write the heartbeat file (throttled unless ``force``)."""
        if self._broken:
            return
        mono = time.monotonic()
        if not force and mono - self._last_write < self.min_interval_s:
            return
        self._last_write = mono
        try:
            atomic_write(self.path, json.dumps(
                self._payload(state), sort_keys=True).encode())
        except OSError:
            self._broken = True

    # -- campaign-worker verbs -----------------------------------------
    def claim(self, label: str, key: str | None = None) -> None:
        """Record the cell this worker is about to execute."""
        self.claimed = label
        self.claimed_key = key
        self.beat()

    def complete(self, *, failed: bool = False,
                 note: str | None = None) -> None:
        """Record one finished cell (throttled write; the counters are
        always current in the next write whenever it happens)."""
        self.done += 1
        if failed:
            self.failed += 1
        self.claimed = None
        self.claimed_key = None
        if note is not None:
            self.note = note
        self._completions.append(self.clock())
        self.beat()

    def close(self, state: str = "exited") -> None:
        """Final forced write so readers can tell exit from death."""
        self.claimed = None
        self.claimed_key = None
        self.beat(force=True, state=state)


# ---------------------------------------------------------------------------
# reading side


def read_heartbeats(directory: "str | os.PathLike") -> list[dict[str, Any]]:
    """All readable heartbeat files under ``directory``, sorted by worker
    name.  Corrupt or torn files are skipped (writes are atomic, so a
    torn file means a foreign artifact, not a crashed worker)."""
    root = pathlib.Path(directory)
    try:
        names = sorted(os.listdir(root))
    except OSError:
        return []
    out: list[dict[str, Any]] = []
    for name in names:
        if not name.endswith(".json"):
            continue
        try:
            with open(root / name) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            continue
        if isinstance(payload, dict) and "worker" in payload:
            out.append(payload)
    return out


def heartbeat_state(hb: Mapping[str, Any], *, now: float,
                    expiry_s: float = DEFAULT_EXPIRY_S) -> str:
    """Classify one heartbeat: ``live``, ``stale`` or ``exited``.

    ``stale`` means the worker claimed to be running but has not renewed
    within ``expiry_s`` -- the heartbeat analogue of an expired claim
    lease, so a stale worker's in-flight cell is exactly the one the
    store will let another worker steal.
    """
    if hb.get("state") == "exited":
        return "exited"
    updated = hb.get("updated_at")
    if not isinstance(updated, (int, float)) or now - updated >= expiry_s:
        return "stale"
    return "live"


# ---------------------------------------------------------------------------
# the snapshot and its renderings


def _age_s(now: float, then: Any) -> float:
    """Seconds since ``then``; 0 when a foreign file holds no number."""
    return max(now - then, 0.0) if isinstance(then, (int, float)) else 0.0


def watch_snapshot(directory: "str | os.PathLike", *,
                   agg=None, now: float | None = None,
                   expiry_s: float = DEFAULT_EXPIRY_S) -> dict:
    """One deterministic-given-inputs view of a campaign directory.

    Pass a persistent ``agg`` (``CampaignStore(directory).aggregator()``)
    to keep folding incrementally across refreshes (the watch loop and the
    server do); a fresh one is built otherwise.  ``now`` defaults to wall
    clock and is injectable so goldens can pin worker ages.  Returns plain
    data: the report's fields (``name``, ``total``, ``done``, ``failed``,
    ``failures`` by kind, ``metrics``, ``axes``), ``running`` / ``pending``
    / ``stale_claims`` with one ``claims`` row per leased unfinished cell,
    one ``workers`` row per heartbeat, and ``executed`` -- cells per worker
    journal, the zero-duplicate witness.
    """
    from ..campaign.store import CampaignStore
    store = CampaignStore(directory)
    if agg is None:
        agg = store.aggregator()
    agg.poll(store)
    report = agg.report()
    if now is None:
        now = time.time()

    workers = [{
        "worker": hb.get("worker", "?"),
        "state": heartbeat_state(hb, now=now, expiry_s=expiry_s),
        "age_s": _age_s(now, hb.get("updated_at")),
        "claimed": hb.get("claimed"),
        "done": hb.get("done", 0),
        "failed": hb.get("failed", 0),
        "rate_per_s": hb.get("rate_per_s", 0.0),
        "note": hb.get("note"),
    } for hb in read_heartbeats(store.heartbeat_dir)]

    claims = []
    for key, label, _seed, _assignment in agg.cells:
        claim = None if key in agg else store.read_claim(key)
        if claim is None:
            continue
        expires = claim.get("expires_at")
        claims.append({
            "cell": label, "worker": claim.get("worker", "?"),
            "age_s": _age_s(now, claim.get("claimed_at")),
            "expired": not (isinstance(expires, (int, float))
                            and now < expires),
        })
    stale_claims = sum(c["expired"] for c in claims)
    running = len(claims) - stale_claims

    return {
        "name": report.name, "total": report.total, "done": report.done,
        "failed": report.failed, "failures": report.failures,
        "metrics": list(report.metrics), "axes": report.axes,
        "pending": report.total - report.done - running,
        "running": running,
        "stale_claims": stale_claims,
        "workers": workers,
        "claims": claims,
        "executed": store.journal_counts(),
        "now": now,
    }


def _report_of(snap: Mapping[str, Any]):
    """The snapshot's report fields as a report again (no cell rows)."""
    from ..campaign.aggregate import CampaignReport
    return CampaignReport(
        name=str(snap["name"]), total=snap["total"], done=snap["done"],
        failed=snap["failed"], failures=snap["failures"],
        metrics=tuple(snap["metrics"]), cells=[], axes=snap["axes"])


def _headline(snap: Mapping[str, Any]) -> str:
    return (f"campaign {snap['name']}: {snap['done']}/{snap['total']} done"
            f" ({snap['failed']} failed), {snap['running']} running, "
            f"{snap['pending']} pending"
            + (f", {snap['stale_claims']} stale claim(s)"
               if snap["stale_claims"] else ""))


def render_watch(snap: Mapping[str, Any]) -> str:
    """Monospace watch table for one :func:`watch_snapshot`."""
    lines = [_headline(snap)]
    if snap["failures"]:
        detail = ", ".join(f"{kind}: {n}"
                           for kind, n in snap["failures"].items())
        lines.append(f"failures by kind: {detail}")
    if snap["workers"]:
        rows = [[w["worker"], w["state"], f"{w['age_s']:.0f}s",
                 w["claimed"] or "-", w["done"], w["failed"],
                 f"{w['rate_per_s']:.2f}", w["note"] or "-"]
                for w in snap["workers"]]
        lines.append("")
        lines.append(render_table(
            ("worker", "state", "age", "cell", "done", "failed", "cells/s",
             "last note"), rows, title="workers"))
    stale = [c for c in snap["claims"] if c["expired"]]
    if stale:
        lines.append("")
        for c in stale:
            lines.append(f"warning: stale claim on {c['cell']!r} held by "
                         f"{c['worker']} for {c['age_s']:.0f}s (stealable)")
    lines += _report_of(snap).render_axes(
        f" (streaming, {snap['done']} cells in)")
    return "\n".join(lines)


def render_status(snap: Mapping[str, Any]) -> str:
    """The short form of one :func:`watch_snapshot`: headline, cells
    executed per worker journal, heartbeats and leases."""
    lines = [_headline(snap)]
    for worker, n in snap["executed"].items():
        lines.append(f"  {worker}: {n} cell(s) executed")
    for w in snap["workers"]:
        lines.append(f"  heartbeat {w['worker']}: {w['state']}, age "
                     f"{w['age_s']:.0f}s, {w['done']} done "
                     f"({w['failed']} failed), {w['rate_per_s']:.2f} "
                     f"cells/s"
                     + (f", on {w['claimed']!r}" if w["claimed"] else ""))
    for claim in snap["claims"]:
        lines.append(f"  lease on {claim['cell']!r}: held by "
                     f"{claim['worker']} for {claim['age_s']:.0f}s"
                     + (" -- STALE (stealable)" if claim["expired"] else ""))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Prometheus serving

#: Prometheus text exposition content type (version 0.0.4).
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def build_metrics_text(directory: "str | os.PathLike", *,
                       agg=None, now: float | None = None,
                       expiry_s: float = DEFAULT_EXPIRY_S) -> str:
    """Prometheus text for a campaign directory's live state.

    It starts with :meth:`CampaignReport.render_prometheus` of the
    directory -- byte for byte what ``campaign report --prom`` prints --
    and appends worker-liveness gauges under ``repro_campaign_worker*``.
    """
    snap = watch_snapshot(directory, agg=agg, now=now, expiry_s=expiry_s)
    lines = [_report_of(snap).render_prometheus().rstrip("\n")]
    esc = lambda s: str(s).replace("\\", r"\\").replace('"', r'\"')
    wname = _prom_name("repro_campaign_", "workers")
    lines.append(f"# TYPE {wname} gauge")
    for state in ("live", "stale", "exited"):
        n = sum(1 for w in snap["workers"] if w["state"] == state)
        lines.append(f'{wname}{{state="{state}"}} {_prom_value(n)}')
    if snap["workers"]:
        cname = _prom_name("repro_campaign_", "worker_cells")
        lines.append(f"# TYPE {cname} gauge")
        for w in snap["workers"]:
            for state in ("done", "failed"):
                lines.append(f'{cname}{{worker="{esc(w["worker"])}",'
                             f'state="{state}"}} {_prom_value(w[state])}')
        rname = _prom_name("repro_campaign_", "worker_rate_cells_per_s")
        lines.append(f"# TYPE {rname} gauge")
        for w in snap["workers"]:
            lines.append(f'{rname}{{worker="{esc(w["worker"])}"}} '
                         f'{_prom_value(w["rate_per_s"])}')
    return "\n".join(lines) + "\n"


def make_live_server(directory: "str | os.PathLike", *, port: int = 0,
                     host: str = "127.0.0.1",
                     expiry_s: float = DEFAULT_EXPIRY_S):
    """A ready-to-serve :class:`~http.server.ThreadingHTTPServer` exposing
    ``/metrics`` (Prometheus), ``/`` (the watch table) and ``/healthz``.

    The server keeps one aggregator across scrapes (a lock serialises
    polls), so each request reads only newly landed cells.  ``port=0``
    binds an ephemeral port (tests); read it back from
    ``server.server_address``.
    """
    import threading
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    from ..campaign.store import CampaignStore
    agg = CampaignStore(directory).aggregator()
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        def _send(self, body: bytes, content_type: str,
                  status: int = 200) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):  # noqa: N802 (http.server API)
            path = self.path.split("?", 1)[0]
            try:
                if path == "/metrics":
                    with lock:
                        body = build_metrics_text(directory, agg=agg,
                                                  expiry_s=expiry_s)
                    self._send(body.encode(), PROM_CONTENT_TYPE)
                elif path == "/":
                    with lock:
                        snap = watch_snapshot(directory, agg=agg,
                                              expiry_s=expiry_s)
                    self._send((render_watch(snap) + "\n").encode(),
                               "text/plain; charset=utf-8")
                elif path == "/healthz":
                    self._send(b"ok\n", "text/plain; charset=utf-8")
                else:
                    self._send(b"not found\n",
                               "text/plain; charset=utf-8", status=404)
            except Exception as exc:  # pragma: no cover - defensive
                self._send(f"error: {exc}\n".encode(),
                           "text/plain; charset=utf-8", status=500)

        def log_message(self, *args):  # quiet: stderr is for progress
            pass

    return ThreadingHTTPServer((host, port), Handler)
