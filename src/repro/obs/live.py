"""Live campaign observability: the one snapshot and its renderings.

A work-stealing campaign (:mod:`repro.campaign`) is thousands of cells
executed by N coordination-free workers over a shared directory.  This
module is the view into one while it runs:

* **The snapshot** -- :func:`watch_snapshot` is the only function that
  walks a directory's manifest, cells, claims and journals for display.
  The cells go through the campaign's one fold
  (:class:`~repro.campaign.aggregate.Aggregator`): a poll reads only the
  result files it has not folded yet, so a watcher over a 10k-cell
  campaign does O(new) file reads per refresh, and the per-axis numbers
  are the final report's, digit for digit.  ``claims/`` is listed once and
  only the claim files that exist are opened.  The snapshot is plain data
  and a pure function of the directory contents and the ``now`` argument,
  so ``--once`` output is deterministic and golden-testable.
* **Worker rows** -- a worker is what the claim protocol already writes
  about it.  Its journal of ``(key, "ok" | failure kind)`` frames gives
  its ``done`` and ``failed`` counts; an unexpired claim makes it
  ``running`` on that cell, an expired one ``stale`` (the cell is
  stealable: the observation and the recovery trigger are one lease), and
  a worker holding no claim is ``idle``.
* **Renderings** -- :func:`render_status` (``repro campaign status``:
  headline, workers, stale-claim warnings; ``--json`` prints the snapshot
  itself), :func:`render_watch` (``repro campaign watch``: the status
  text plus the per-axis tables) and :func:`build_metrics_text`
  (Prometheus text exposition 0.0.4: the report's own
  :meth:`~repro.campaign.aggregate.CampaignReport.render_prometheus` text
  followed by worker gauges), which :func:`make_live_server` wraps in a
  stdlib :class:`http.server.ThreadingHTTPServer` for ``repro serve``.
"""

from __future__ import annotations

import os
import time
from typing import Any, Mapping

from ..analysis.tables import render_table
from .metrics import render_prometheus

__all__ = ["watch_snapshot", "render_watch", "render_status",
           "build_metrics_text", "make_live_server"]


def _age_s(now: float, then: Any) -> float:
    """Seconds since ``then``; 0 when a foreign file holds no number."""
    return max(now - then, 0.0) if isinstance(then, (int, float)) else 0.0


def watch_snapshot(directory: "str | os.PathLike", *,
                   agg=None, now: float | None = None) -> dict:
    """One deterministic-given-inputs view of a campaign directory.

    Pass a persistent ``agg`` (``CampaignStore(directory).aggregator()``)
    to keep folding incrementally across refreshes (the watch loop and the
    server do); a fresh one is built otherwise.  ``now`` defaults to wall
    clock and is injectable so goldens can pin ages.  Returns plain data:
    the report's fields (``name``, ``total``, ``done``, ``failed``,
    ``failures`` by kind, ``metrics``, ``axes``), ``running`` / ``pending``
    / ``stale_claims`` with one ``claims`` row per leased unfinished cell,
    one ``workers`` row ``{worker, state, cell, age_s, done, failed}`` per
    worker with a journal or a claim, and ``executed`` -- cells per worker
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

    claimed = store.claimed_keys()
    claims = []
    for key, label, _seed, _assignment in agg.cells:
        if key not in claimed or key in agg:
            continue
        claim = store.read_claim(key)
        if claim is None:  # released since the listing
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

    journals = store.journals()
    held: dict[str, dict] = {}  # worker -> the claim it holds
    for c in claims:
        held.setdefault(str(c["worker"]), c)
    workers = []
    for name in sorted(set(journals) | set(held)):
        frames = journals.get(name, {})
        claim = held.get(name, {})
        workers.append({
            "worker": name,
            "state": ("idle" if not claim
                      else "stale" if claim["expired"] else "running"),
            "cell": claim.get("cell"),
            "age_s": claim.get("age_s"),
            "done": len(frames),
            "failed": sum(v != "ok" for v in frames.values()),
        })

    return {
        "name": report.name, "total": report.total, "done": report.done,
        "failed": report.failed, "failures": report.failures,
        "metrics": list(report.metrics), "axes": report.axes,
        "pending": report.total - report.done - running,
        "running": running,
        "stale_claims": stale_claims,
        "workers": workers,
        "claims": claims,
        "executed": {w: len(frames) for w, frames in journals.items()},
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


def render_status(snap: Mapping[str, Any]) -> str:
    """The short form of one :func:`watch_snapshot`: headline, failures by
    kind, one row per worker and a warning per stale claim."""
    lines = [_headline(snap)]
    if snap["failures"]:
        detail = ", ".join(f"{kind}: {n}"
                           for kind, n in snap["failures"].items())
        lines.append(f"failures by kind: {detail}")
    if snap["workers"]:
        rows = [[w["worker"], w["state"],
                 "-" if w["age_s"] is None else f"{w['age_s']:.0f}s",
                 w["cell"] or "-", w["done"], w["failed"]]
                for w in snap["workers"]]
        lines.append("")
        lines.append(render_table(
            ("worker", "state", "age", "cell", "done", "failed"), rows,
            title="workers"))
    stale = [c for c in snap["claims"] if c["expired"]]
    if stale:
        lines.append("")
        for c in stale:
            lines.append(f"warning: stale claim on {c['cell']!r} held by "
                         f"{c['worker']} for {c['age_s']:.0f}s (stealable)")
    return "\n".join(lines)


def render_watch(snap: Mapping[str, Any]) -> str:
    """The watch view of one :func:`watch_snapshot`: the status text plus
    the per-axis tables of the cells folded so far."""
    return "\n".join([render_status(snap), *_report_of(snap).render_axes(
        f" (streaming, {snap['done']} cells in)")])


# ---------------------------------------------------------------------------
# Prometheus serving

#: Prometheus text exposition content type (version 0.0.4).
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def build_metrics_text(directory: "str | os.PathLike", *,
                       agg=None, now: float | None = None) -> str:
    """Prometheus text for a campaign directory's live state: byte for byte
    what ``campaign report --prom`` prints, then the worker gauges under
    ``repro_campaign_worker*``."""
    snap = watch_snapshot(directory, agg=agg, now=now)
    workers = [("", {"state": state},
                sum(1 for w in snap["workers"] if w["state"] == state))
               for state in ("running", "stale", "idle")]
    cells = [("", {"worker": w["worker"], "state": state}, w[state])
             for w in snap["workers"] for state in ("done", "failed")]
    return _report_of(snap).render_prometheus() + render_prometheus(
        [("workers", "gauge", workers), ("worker_cells", "gauge", cells)],
        "repro_campaign_")


def make_live_server(directory: "str | os.PathLike", *, port: int = 0,
                     host: str = "127.0.0.1"):
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
                        body = build_metrics_text(directory, agg=agg)
                    self._send(body.encode(), PROM_CONTENT_TYPE)
                elif path == "/":
                    with lock:
                        snap = watch_snapshot(directory, agg=agg)
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
