"""Run reports: ``repro report PATH`` is the one view of any run artifact.

:func:`load_artifact` is the one reader (``compare`` and
``api.load_result`` use it too): a trace, a fuzz forensics file or a
pickled result.  For a result, :func:`render_artifact` shows the flight
timeline, the causal lineage and a failure's traceback, one frame's
story (``frame``) or its metrics as Prometheus text (``prom``); for a
fuzz file, each record's two flight dumps.  For a trace it renders, per run:

* a **timeline** of the control-loop events (callback firings, attribute
  exchanges, coordination actions, window changes, period rolls, ...) in
  emission order, and
* a **coordination audit**: every attribute exchange the coordinator saw
  (``ATTR_RECEIVED``) paired -- via the ``attr_seq`` back-reference each
  ``COORD_ACTION`` carries -- with the transport action(s) it produced,
  including the over-reaction base factor ``1/(1-rate_chg)`` and the Eq. 1
  drift correction ``(1-e_new)/(1-e_old)`` when ``ADAPT_COND`` was applied.

The audit is the report's point: it turns the paper's causal claim
("application adaptation X made the transport do Y") into a checkable
table for any given run.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Iterable, Sequence

from ..analysis.lineage import render_frame_lineage, render_lineage
from ..analysis.tables import fmt, render_table
from .events import (ADAPT_ACTION, ATTR_RECEIVED, ATTR_SENT, CALLBACK_FIRED,
                     COORD_ACTION, CWND_CHANGE, FAULT_PHASE, FEC_RECOVERED,
                     FRAME_ABANDONED, LINK_FAIL, LINK_RECOVER, PERIOD_ROLL)
from .flight import render_flight
from .metrics import scenario_prometheus
from .sinks import read_trace

__all__ = ["load_artifact", "render_artifact", "coordination_audit",
           "render_timeline", "render_report", "report_json",
           "failures_by_kind", "TIMELINE_EVENTS", "TRACE_LIMIT"]

#: Timeline rows a trace report shows per run unless ``limit`` says.
TRACE_LIMIT = 60


def load_artifact(path: str | os.PathLike) -> dict[str, Any]:
    """Decide what the run artifact at ``path`` is and load it:
    ``{"kind": "trace", "header", "runs"}`` for ``*.jsonl[.gz]``,
    ``{"kind": "fuzz", "payload"}`` for a ``*.json`` fuzz forensics file,
    else ``{"kind": "result", "result"}`` for a pickled ``ScenarioResult``
    or ``FailedResult`` (``--save``, a cache entry, a campaign cell); each
    with its ``"path"``.  Anything else raises ``ValueError`` naming the
    path and the expected kinds."""
    from ..experiments.common import ScenarioResult
    from ..runner.cache import read_pickle
    from ..runner.failures import FailedResult
    shown, name = os.fspath(path), pathlib.Path(path).name
    if not os.path.isfile(path):
        raise FileNotFoundError(f"no such artifact: {shown}")
    try:
        if name.endswith((".jsonl", ".jsonl.gz")):
            header, runs = read_trace(path)
            return {"kind": "trace", "path": shown, "header": header,
                    "runs": runs}
        if name.endswith(".json"):
            with open(path) as fh:
                payload = json.load(fh)
            if isinstance(payload, dict) and "forensics" in payload:
                return {"kind": "fuzz", "path": shown, "payload": payload}
            what = "JSON without fuzz forensics records"
        else:
            value = read_pickle(path)
            if isinstance(value, (ScenarioResult, FailedResult)):
                return {"kind": "result", "path": shown, "result": value}
            what = ("unreadable pickle" if value is None
                    else f"holds {type(value).__name__}")
    except (OSError, ValueError) as exc:
        what = str(exc)
    raise ValueError(f"{shown} is not a run artifact ({what}); expected a "
                     f"trace (*.jsonl[.gz]), a 'repro fuzz --forensics' "
                     f"file (*.json) or a pickled ScenarioResult/"
                     f"FailedResult")


def failures_by_kind(kinds: Iterable[str]) -> dict[str, int]:
    """Count failure kinds into a deterministically ordered dict.

    Shared by the trace report (failure kinds read from run-head metadata)
    and the campaign aggregator (kinds read from ``FailedResult.kind``
    rows), so both speak the same ``{"by_kind": {...}}`` dialect."""
    counts: dict[str, int] = {}
    for kind in kinds:
        counts[kind] = counts.get(kind, 0) + 1
    return dict(sorted(counts.items()))

#: Event types the timeline shows by default -- the two control loops and
#: their coupling, without the per-packet firehose.
TIMELINE_EVENTS = frozenset({
    CALLBACK_FIRED, ATTR_SENT, ATTR_RECEIVED, COORD_ACTION, ADAPT_ACTION,
    CWND_CHANGE, PERIOD_ROLL, FAULT_PHASE, LINK_FAIL, LINK_RECOVER,
    FEC_RECOVERED, FRAME_ABANDONED,
})

#: Keys already shown in dedicated timeline columns.
_RESERVED = ("seq", "t", "layer", "event")


def _details(ev: dict[str, Any]) -> str:
    """Compact ``k=v`` rendering of an event's type-specific fields."""
    parts = []
    for key in sorted(ev):
        if key in _RESERVED:
            continue
        value = ev[key]
        if isinstance(value, float):
            value = fmt(value, 4)
        parts.append(f"{key}={value}")
    return " ".join(parts)


def render_timeline(events: Sequence[dict[str, Any]], *,
                    types: Iterable[str] | None = None,
                    limit: int | None = None) -> str:
    """Emission-order table of ``events`` (flat dicts from ``read_trace``).

    ``types`` restricts to an event-type subset (default
    :data:`TIMELINE_EVENTS`); ``types=()`` or any falsy non-None iterable
    means "all types".  ``limit`` keeps the *last* N rows, where the
    adaptation endgame lives.
    """
    wanted = TIMELINE_EVENTS if types is None else (frozenset(types) or None)
    picked = [ev for ev in events
              if wanted is None or ev.get("event") in wanted]
    shown = picked if limit is None or len(picked) <= limit else picked[-limit:]
    rows = [[ev.get("seq", ""), f"{ev.get('t', 0.0):.6f}",
             ev.get("layer", "?"), ev.get("event", "?"), _details(ev)]
            for ev in shown]
    title = f"Timeline ({len(shown)}/{len(picked)} events shown)"
    if not rows:
        return f"{title}\n  (no matching events)"
    return render_table(["seq", "t", "layer", "event", "details"], rows,
                        title=title)


def coordination_audit(events: Sequence[dict[str, Any]]
                       ) -> dict[str, list[dict[str, Any]]]:
    """Pair every ``ATTR_RECEIVED`` with the ``COORD_ACTION`` events that
    reference it.

    Returns ``{"pairs": [...], "unmatched_attrs": [...], "spontaneous":
    [...], "unmatched_actions": [...]}`` where each pair is
    ``{"attr": event, "actions": [event, ...]}``.  ``unmatched_attrs`` are
    exchanges the coordinator consumed without acting on (legitimately --
    e.g. an attribute set with nothing the active schemes handle);
    ``spontaneous`` are transport-initiated actions that carry *no*
    ``attr_seq`` because no application attribute exchange caused them
    (the stall detector's graceful degradation / recovery); and
    ``unmatched_actions`` are actions whose ``attr_seq`` points at no
    recorded exchange (which would indicate a broken trace).
    """
    attrs_by_seq: dict[int, dict[str, Any]] = {}
    actions_by_attr: dict[int, list[dict[str, Any]]] = {}
    spontaneous: list[dict[str, Any]] = []
    unmatched_actions: list[dict[str, Any]] = []
    for ev in events:
        etype = ev.get("event")
        if etype == ATTR_RECEIVED:
            attrs_by_seq[ev["seq"]] = ev
        elif etype == COORD_ACTION:
            if "attr_seq" in ev:
                actions_by_attr.setdefault(ev["attr_seq"], []).append(ev)
            else:
                spontaneous.append(ev)
    pairs = []
    unmatched_attrs = []
    for seq, attr_ev in attrs_by_seq.items():
        actions = actions_by_attr.pop(seq, None)
        if actions:
            pairs.append({"attr": attr_ev, "actions": actions})
        else:
            unmatched_attrs.append(attr_ev)
    for leftover in actions_by_attr.values():
        unmatched_actions.extend(leftover)
    return {"pairs": pairs, "unmatched_attrs": unmatched_attrs,
            "spontaneous": spontaneous,
            "unmatched_actions": unmatched_actions}


def _audit_rows(audit: dict[str, list[dict[str, Any]]]
                ) -> list[list[Any]]:
    rows: list[list[Any]] = []
    for pair in audit["pairs"]:
        attr_ev = pair["attr"]
        attr_txt = _details({k: v for k, v in attr_ev.items()
                             if k not in _RESERVED and k != "via"})
        for i, act in enumerate(pair["actions"]):
            act_txt = _details({k: v for k, v in act.items()
                                if k not in _RESERVED and k != "attr_seq"})
            rows.append([attr_ev["seq"] if i == 0 else "",
                         f"{attr_ev.get('t', 0.0):.6f}" if i == 0 else "",
                         attr_txt if i == 0 else "",
                         act.get("action", "?"), act_txt])
    for attr_ev in audit["unmatched_attrs"]:
        rows.append([attr_ev["seq"], f"{attr_ev.get('t', 0.0):.6f}",
                     _details({k: v for k, v in attr_ev.items()
                               if k not in _RESERVED}), "(no action)", ""])
    for act in audit["spontaneous"]:
        rows.append(["-", f"{act.get('t', 0.0):.6f}",
                     "(transport-initiated)", act.get("action", "?"),
                     _details({k: v for k, v in act.items()
                               if k not in _RESERVED})])
    for act in audit["unmatched_actions"]:
        rows.append(["?", f"{act.get('t', 0.0):.6f}", "(missing exchange)",
                     act.get("action", "?"),
                     _details({k: v for k, v in act.items()
                               if k not in _RESERVED})])
    return rows


def render_audit(events: Sequence[dict[str, Any]]) -> str:
    audit = coordination_audit(events)
    n_pairs = len(audit["pairs"])
    n_unmatched = len(audit["unmatched_attrs"])
    title = (f"Coordination audit ({n_pairs} exchanges acted on, "
             f"{n_unmatched} consumed without action)")
    n_spont = len(audit["spontaneous"])
    if n_spont:
        title = title[:-1] + f", {n_spont} transport-initiated)"
    rows = _audit_rows(audit)
    if not rows:
        return f"{title}\n  (no attribute exchanges in trace)"
    return render_table(["attr_seq", "t", "attributes", "action", "detail"],
                        rows, title=title)


def _runs(trace: dict[str, Any], run: str | None) -> list[dict[str, Any]]:
    """The trace's runs, or only the one labelled ``run``."""
    runs = trace["runs"]
    if run is not None:
        runs = [r for r in runs if str(r["run"]) == str(run)]
        if not runs:
            raise ValueError(f"run {run!r} not found in {trace['path']}")
    return runs


def render_report(trace: dict[str, Any], *, run: str | None = None,
                  limit: int | None = TRACE_LIMIT,
                  types: Iterable[str] | None = None) -> str:
    """Full report for a :func:`load_artifact` trace: per-run timeline +
    coordination audit of every run, or only of the one labelled ``run``.
    """
    header, path = trace["header"], trace["path"]
    runs = _runs(trace, run)
    parts = [f"Trace report: {path} "
             f"(format {header.get('format')} v{header.get('version')}, "
             f"{len(runs)} run(s))"]
    n_cached = 0
    n_failed = 0
    for entry in runs:
        meta_dict = entry.get("meta") or {}
        failed = bool(meta_dict.get("failed"))
        meta = _details({k: v for k, v in meta_dict.items()
                         if k != "failed"})
        head = f"== run {entry['run']}"
        if failed:
            head += " ** FAILED **"
        if meta:
            head += f" [{meta}]"
        if entry.get("cached"):
            head += " (cached run -- no event stream)"
        parts.append("")
        parts.append(head)
        if entry.get("cached"):
            n_cached += 1
            continue
        if failed:
            # A failed run ships no event stream: the classified failure
            # (failed_kind / error_type / error / attempts) is in the head
            # line above, and the full traceback lives in the batch's
            # raised/captured FailedResult, not the trace file.
            n_failed += 1
            parts.append("   (no event stream -- scenario failed before "
                         "producing a result; see failed_kind/error above)")
            continue
        events = entry["events"]
        parts.append("")
        parts.append(render_timeline(events, types=types, limit=limit))
        parts.append("")
        parts.append(render_audit(events))
    if n_cached:
        # The results cache stores metrics, not event streams, so a cache
        # hit has nothing to report on.  Say how to get the events back
        # instead of presenting an empty report as a recorded one.
        what = ("All" if n_cached == len(runs) else
                f"{n_cached} of {len(runs)}") + \
            (" runs were" if len(runs) > 1 else " runs was")
        if n_cached == len(runs) == 1:
            what = "This run was"
        parts.append("")
        parts.append(
            f"note: {what} served from the results cache, which stores "
            f"metrics but no event streams.\n"
            f"      Re-record with the cache disabled to capture events, "
            f"e.g.  REPRO_NO_CACHE=1 <command> --trace <path>")
    if n_failed:
        parts.append("")
        parts.append(
            f"note: {n_failed} of {len(runs)} run(s) FAILED; rows are "
            f"marked above with their failure kind.  Deterministic kinds "
            f"(error/invariant) reproduce by re-running the same config; "
            f"transient kinds (timeout/worker-lost) may pass on retry.")
    return "\n".join(parts)


def report_json(trace: dict[str, Any], *, run: str | None = None,
                limit: int | None = None,
                types: Iterable[str] | None = None) -> dict[str, Any]:
    """Machine-readable counterpart of :func:`render_report`
    (``repro report TRACE --json``).

    Same selection semantics (``run``/``types``/``limit``); returns a
    ``json.dump``-able dict: the trace header plus, per run, its metadata,
    the filtered timeline events and the coordination-audit pairing --
    attribute exchanges with their actions, plus the unmatched/spontaneous
    buckets -- as flat event dicts straight from the trace file.
    """
    header = trace["header"]
    runs = _runs(trace, run)
    wanted = TIMELINE_EVENTS if types is None else (frozenset(types) or None)
    out_runs = []
    failed_kinds: list[str] = []
    for entry in runs:
        # Cached and failed runs ship no event stream.
        events = entry["events"] or []
        meta_dict = entry.get("meta") or {}
        if meta_dict.get("failed"):
            failed_kinds.append(str(meta_dict.get("failed_kind", "error")))
        picked = [ev for ev in events
                  if wanted is None or ev.get("event") in wanted]
        if limit is not None and len(picked) > limit:
            picked = picked[-limit:]
        out_runs.append({
            "run": entry["run"],
            "cached": entry["cached"],
            "meta": meta_dict,
            "events_total": len(events),
            "timeline": picked,
            "audit": coordination_audit(events),
        })
    return {"path": trace["path"],
            "format": header.get("format"),
            "version": header.get("version"),
            "failures": {"total": len(failed_kinds),
                         "by_kind": failures_by_kind(failed_kinds)},
            "runs": out_runs}


def _render_fuzz(payload: dict[str, Any], *, limit: int | None) -> str:
    """Each fuzz forensics record: both runs' flight dumps, the first
    divergent event marked ``>>``."""
    records = payload.get("forensics", [])
    parts = [f"fuzz forensics: {len(records)} record(s)"]
    if payload.get("summary"):
        parts.append(payload["summary"])
    for rec in records:
        div = rec.get("first_divergence")
        parts += ["", f"== {rec.get('label', '?')}: {rec.get('case', '?')}"]
        parts += [f"   {m}" for m in rec.get("mismatches", ())]
        if div is not None:
            parts.append(f"   first divergence at event #{div} "
                         f"(marked >> below)")
        parts.append("-- reference run --")
        parts.append(render_flight(rec.get("ref_flight"), mark_id=div,
                                   limit=limit))
        if rec.get("other_flight") is not None:
            parts.append("-- re-run --")
            parts.append(render_flight(rec["other_flight"], mark_id=div,
                                       limit=limit))
    return "\n".join(parts)


def _render_result(res, path: str, *, limit: int | None) -> str:
    """A result's last moments: head line, flight timeline, the causal
    lineage when spans were armed, and a failure's worker traceback."""
    if res.failed:
        kind = res.kind + (f"/{res.error_type}" if res.error_type else "")
        parts = [f"forensics: FAILED scenario [{kind}] {res.scenario}"]
        if res.message:
            parts.append(f"  {res.message.strip().splitlines()[0]}")
    else:
        parts = [f"forensics: completed={res.completed} scenario result "
                 f"{path}"]
    parts += ["", render_flight(res.flight, limit=limit)]
    if getattr(res, "spans", None) is not None:
        parts += ["", render_lineage(res.spans, limit=limit)]
    if getattr(res, "traceback", ""):
        parts += ["", "--- worker traceback ---", res.traceback.rstrip()]
    return "\n".join(parts)


def _result_json(res) -> dict[str, Any]:
    """The plain data :func:`_render_result` renders."""
    failure = None
    if res.failed:
        failure = {"kind": res.kind, "error_type": res.error_type,
                   "error": res.message, "traceback": res.traceback,
                   "scenario": res.scenario}
    return {"completed": res.completed, "flight": res.flight,
            "summary": None if res.failed else res.summary,
            "lineage": getattr(res, "spans", None), "failure": failure}


def render_artifact(art: dict[str, Any], *, run: str | None = None,
                    limit: int | None = None,
                    types: Iterable[str] | None = None,
                    frame: int | None = None, prom: bool = False,
                    as_json: bool = False) -> str:
    """``repro report PATH``: the text (``as_json``: JSON) view of what
    :func:`load_artifact` returned.  ``limit`` keeps the newest N rows:
    :data:`TRACE_LIMIT` timeline rows of a trace by default, every flight
    event and lineage frame otherwise.  A selector the artifact has no
    use for (``run``/``types`` beyond a trace, ``frame``/``prom`` beyond a
    result) raises ``ValueError``."""
    kind, path, res = art["kind"], art["path"], art.get("result")
    fits = {"trace": ("--run", "--events"),
            "result": ("--frame", "--prom")}.get(kind, ())
    misfit = [flag for flag, on in (("--run", run is not None),
                                    ("--events", types is not None),
                                    ("--frame", frame is not None),
                                    ("--prom", prom))
              if on and flag not in fits]
    if misfit:
        raise ValueError(f"{misfit[0]} does not apply to {path} "
                         f"(a {kind} artifact)")
    if kind == "trace":
        limit = TRACE_LIMIT if limit is None else limit
        if not as_json:
            return render_report(art, run=run, limit=limit, types=types)
        data = report_json(art, run=run, limit=limit, types=types)
    elif kind == "fuzz":
        if not as_json:
            return _render_fuzz(art["payload"], limit=limit)
        data = art["payload"]
    elif prom:
        if getattr(res, "conn", None) is None:
            raise ValueError(f"{path} carries no run state for --prom")
        # The exposition ends with its own newline; the caller adds one.
        return scenario_prometheus(res).rstrip("\n")
    elif frame is not None:
        if getattr(res, "spans", None) is None:
            raise ValueError(
                f"{path} carries no lineage spans; save it from a run with "
                f"spans armed (repro scenario --set spans=True --save PATH)")
        return render_frame_lineage(res.spans, frame)
    elif as_json:
        data = _result_json(res)
    else:
        return _render_result(res, path, limit=limit)
    return json.dumps(data, indent=2, sort_keys=True)
