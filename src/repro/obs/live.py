"""Live campaign observability: worker heartbeats + streaming aggregates.

A work-stealing campaign (:mod:`repro.campaign`) is thousands of cells
executed by N coordination-free workers over a shared directory -- and
until now the only view into a *running* campaign was ``campaign status``
polling result-file counts.  This module adds the live tier:

* **Heartbeats** -- every campaign worker periodically writes one small
  JSON file into a ``heartbeats/`` directory next to the results: claimed cell, cells done/failed, a
  rolling cell rate, the last flight-recorder note and process identity.
  Writes are atomic (tmp + ``os.replace``) and throttled, so a reader
  never sees a torn file and a worker never spends its time painting.
  ``REPRO_HEARTBEAT=0`` disables the writer entirely (the disarmed path
  is one env-dict lookup at construction).
* **Streaming aggregation** -- :class:`StreamingAggregator` folds each
  completed cell's summary into incremental per-axis aggregates *as the
  result files land*: a poll reads only cells it has not folded yet, so a
  watcher over a 10k-cell campaign does O(new) work per refresh instead
  of re-reading the whole directory.
* **Watch snapshots** -- :func:`watch_snapshot` +
  :func:`render_watch` produce the ``repro campaign watch`` table; the
  snapshot is a pure function of the directory contents and the ``now``
  argument, so ``--once`` output is deterministic and golden-testable.
* **Prometheus serving** -- :func:`build_metrics_text` renders the same
  state in Prometheus text exposition (0.0.4), reusing
  :meth:`~repro.campaign.aggregate.CampaignReport.render_prometheus`'s
  pinned number formatting; :func:`make_live_server` wraps it in a
  stdlib :class:`http.server.ThreadingHTTPServer` for ``repro serve``.

Heartbeat liveness reuses the campaign lease discipline: a worker whose
heartbeat has not been renewed within the expiry window (default: the
claim lease, :data:`DEFAULT_EXPIRY_S`) is reported ``stale`` -- the same
condition under which its claimed cell becomes stealable.

Module-level imports are stdlib-only on purpose: the campaign store
imports this module for status reporting, so everything campaign-shaped
is imported lazily inside the functions that need it.
"""

from __future__ import annotations

import json
import os
import pathlib
import socket
import tempfile
import time
from collections import deque
from typing import Any, Iterable, Mapping

__all__ = [
    "HeartbeatWriter", "heartbeat_enabled", "read_heartbeats",
    "heartbeat_state", "StreamingAggregator", "watch_snapshot",
    "render_watch", "build_metrics_text", "make_live_server",
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


def _atomic_write_json(path: pathlib.Path, payload: Mapping[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


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
            _atomic_write_json(self.path, self._payload(state))
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
# streaming aggregation


class StreamingAggregator:
    """Incremental per-axis aggregation over a campaign's landing cells.

    ``cells`` is the expanded cell list as ``(key, label, assignment)``
    triples (``assignment`` maps axis field -> value; empty for
    programmatic campaigns with no axis structure).  :meth:`poll` folds
    every *newly finished* cell from a
    :class:`~repro.campaign.store.CampaignStore`; :meth:`snapshot`
    renders the running totals in the same per-axis shape as the batch
    :func:`~repro.campaign.aggregate.aggregate`, so a watch table over a
    half-done campaign agrees exactly with the final report's rows for
    the cells that have landed.
    """

    def __init__(self, cells: Iterable[tuple], *,
                 metrics: Iterable[str] | None = None) -> None:
        from ..campaign.aggregate import DEFAULT_METRICS
        self.cells = [(key, label, dict(assignment))
                      for key, label, assignment in cells]
        self.metrics = tuple(metrics) if metrics else DEFAULT_METRICS
        self._by_key = {key: (label, assignment)
                        for key, label, assignment in self.cells}
        self._folded: set[str] = set()
        self.done = 0
        self.failed = 0
        self.failed_kinds: list[str] = []
        # axis field -> rendered value -> metric -> [values]
        self._axis_pools: dict[str, dict[str, dict[str, list[float]]]] = {}
        self._axis_fields: list[str] = []
        for _key, _label, assignment in self.cells:
            for field in assignment:
                if field not in self._axis_fields:
                    self._axis_fields.append(field)

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def folded(self) -> frozenset:
        return frozenset(self._folded)

    def fold(self, key: str, result) -> bool:
        """Fold one finished cell; returns False for unknown/duplicate
        keys (idempotent, so a re-poll after a torn read is harmless)."""
        if key in self._folded or key not in self._by_key:
            return False
        self._folded.add(key)
        self.done += 1
        if getattr(result, "failed", False):
            self.failed += 1
            self.failed_kinds.append(getattr(result, "kind", "error"))
            return True
        from ..runner.hashing import field_text
        _label, assignment = self._by_key[key]
        summary = result.summary
        for field, raw in assignment.items():
            value = field_text(raw)
            pool = self._axis_pools.setdefault(field, {}).setdefault(value, {})
            for m in self.metrics:
                if m in summary:
                    pool.setdefault(m, []).append(float(summary[m]))
        return True

    def poll(self, store) -> int:
        """Fold every not-yet-folded finished cell; returns the count of
        cells folded by this call (O(new), not O(total))."""
        fresh = 0
        for key in sorted(store.done_keys() - self._folded):
            if key not in self._by_key:
                continue
            res = store.load_cell(key)
            if res is None:
                continue  # torn write: the next poll retries
            if self.fold(key, res):
                fresh += 1
        return fresh

    def axes(self) -> dict[str, dict]:
        """Per-axis stats in the batch aggregator's exact shape."""
        from ..campaign.aggregate import _stats
        out: dict[str, dict] = {}
        for field in self._axis_fields:
            groups = self._axis_pools.get(field, {})
            out[field] = {value: {m: _stats(vs)
                                  for m, vs in groups[value].items()}
                          for value in sorted(groups)}
        return out

    def snapshot(self) -> dict:
        from ..obs.report import failures_by_kind
        return {
            "total": self.total, "done": self.done, "failed": self.failed,
            "failures": failures_by_kind(self.failed_kinds),
            "metrics": list(self.metrics), "axes": self.axes(),
        }


def _manifest_cells(store, manifest) -> list[tuple]:
    """Cell triples for a campaign directory: assignments come from the
    re-expanded spec when the manifest stores one, else empty (labels
    still render; there is just no axis structure to aggregate over)."""
    spec = manifest.get("spec")
    if spec is not None:
        from ..campaign.spec import Campaign
        return [(c.key, c.label, c.assignment)
                for c in Campaign.from_mapping(spec).cells()]
    return [(c["key"], c["label"], {}) for c in manifest["cells"]]


# ---------------------------------------------------------------------------
# watch snapshots


def watch_snapshot(directory: "str | os.PathLike", *,
                   agg: StreamingAggregator | None = None,
                   now: float | None = None,
                   expiry_s: float = DEFAULT_EXPIRY_S,
                   metrics: Iterable[str] | None = None) -> dict:
    """One deterministic-given-inputs view of a running campaign.

    Pass a persistent ``agg`` to keep folding incrementally across
    refreshes (the watch loop does); a fresh one is built otherwise.
    ``now`` defaults to wall clock and is injectable so goldens can pin
    worker ages.  Returns a plain dict; render with :func:`render_watch`.
    """
    from ..campaign.store import CampaignStore
    store = CampaignStore(directory)
    manifest = store.read_manifest()
    if manifest is None:
        raise FileNotFoundError(
            f"no campaign manifest in {directory}; start one with "
            f"'repro campaign run SPEC --dir {directory}'")
    if now is None:
        now = time.time()
    if agg is None:
        agg = StreamingAggregator(_manifest_cells(store, manifest),
                                  metrics=metrics)
    agg.poll(store)

    workers = []
    for hb in read_heartbeats(store.heartbeat_dir):
        state = heartbeat_state(hb, now=now, expiry_s=expiry_s)
        workers.append({
            "worker": hb.get("worker", "?"),
            "state": state,
            "age_s": max(now - hb.get("updated_at", now), 0.0),
            "claimed": hb.get("claimed"),
            "done": hb.get("done", 0),
            "failed": hb.get("failed", 0),
            "rate_per_s": hb.get("rate_per_s", 0.0),
            "note": hb.get("note"),
        })

    running = stale_claims = 0
    claims = []
    for cell in manifest["cells"]:
        key = cell["key"]
        if key in agg.folded:
            continue
        claim = store.read_claim(key)
        if claim is None:
            continue
        expires = claim.get("expires_at")
        live = isinstance(expires, (int, float)) and now < expires
        running += live
        stale_claims += not live
        claims.append({
            "cell": cell["label"], "worker": claim.get("worker", "?"),
            "age_s": max(now - claim.get("claimed_at", now), 0.0),
            "expired": not live,
        })

    snap = agg.snapshot()
    snap.update({
        "name": manifest.get("name"),
        "pending": agg.total - agg.done - running,
        "running": running,
        "stale_claims": stale_claims,
        "workers": workers,
        "claims": claims,
        "now": now,
    })
    return snap


def render_watch(snap: Mapping[str, Any]) -> str:
    """Monospace watch table for one :func:`watch_snapshot`."""
    from ..analysis.tables import render_table
    lines = [f"campaign {snap['name']}: {snap['done']}/{snap['total']} done"
             f" ({snap['failed']} failed), {snap['running']} running, "
             f"{snap['pending']} pending"
             + (f", {snap['stale_claims']} stale claim(s)"
                if snap["stale_claims"] else "")]
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
    for field, groups in snap["axes"].items():
        rows = []
        for value, by_metric in groups.items():
            for metric, st in by_metric.items():
                rows.append([value, metric, st["n"], st["mean"], st["min"],
                             st["max"], st["std"]])
        if rows:
            lines.append("")
            lines.append(render_table(
                (field, "metric", "n", "mean", "min", "max", "std"), rows,
                title=f"axis: {field} (streaming, {snap['done']} cells in)"))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Prometheus serving

#: Prometheus text exposition content type (version 0.0.4).
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def build_metrics_text(directory: "str | os.PathLike", *,
                       agg: StreamingAggregator | None = None,
                       now: float | None = None,
                       expiry_s: float = DEFAULT_EXPIRY_S) -> str:
    """Prometheus text for a campaign directory's live state.

    The cell/failure/per-axis lines come from
    :meth:`CampaignReport.render_prometheus` -- the same pinned formatting
    the offline report uses, so scrape output is byte-stable for a given
    directory state.  Worker-liveness gauges are appended under
    ``repro_campaign_worker*``.
    """
    from ..campaign.aggregate import CampaignReport
    from ..obs.metrics import _prom_name, _prom_value
    snap = watch_snapshot(directory, agg=agg, now=now, expiry_s=expiry_s)
    report = CampaignReport(
        name=str(snap["name"]), total=snap["total"], done=snap["done"],
        failed=snap["failed"], failures=snap["failures"],
        metrics=tuple(snap["metrics"]), cells=[], axes=snap["axes"])
    lines = [report.render_prometheus().rstrip("\n")]
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

    The server keeps one :class:`StreamingAggregator` across scrapes (a
    lock serialises polls), so each request folds only newly landed
    cells.  ``port=0`` binds an ephemeral port (tests); read it back from
    ``server.server_address``.
    """
    import threading
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    from ..campaign.store import CampaignStore
    store = CampaignStore(directory)
    manifest = store.read_manifest()
    if manifest is None:
        raise FileNotFoundError(
            f"no campaign manifest in {directory}; start one with "
            f"'repro campaign run SPEC --dir {directory}'")
    agg = StreamingAggregator(_manifest_cells(store, manifest))
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
