"""Run-diff tooling: ``repro compare A B``.

Answers "did this change alter behaviour, and where?" by diffing two run
artifacts -- pickled :class:`~repro.experiments.common.ScenarioResult`
files (``repro scenario --save`` / the results cache) or JSONL(.gz) trace
files (``--trace``), both read by :func:`~repro.obs.report.load_artifact`
-- along three axes:

* **summary metrics**: per-key deltas against configurable relative/
  absolute tolerances (the determinism contract is *exact*, so the default
  tolerance is zero);
* **telemetry series**: for each sampled series present on both sides, the
  first bucket whose means disagree beyond ``eps`` -- the "where did the
  trajectories split" answer that summary deltas cannot give;
* **trace events**: per ``layer.event`` count deltas.

The comparison only diffs axes both artifacts carry (two traces have no
summaries; an untelemetered result has no series) and says so in
``notes`` rather than silently passing; a pair that shares no axis at all
(a trace against a result saved without one) is a ``ValueError``.
``compare_artifacts`` returns a :class:`ComparisonReport` whose
``exit_code`` follows diff(1) convention: 0 identical-within-tolerance, 1
diverged.
"""

from __future__ import annotations

import pathlib
from typing import Any

from ..analysis.tables import fmt, render_table
from ..analysis.timeseries import first_divergence
from .report import load_artifact
from .sinks import event_obj

__all__ = ["ComparisonReport", "compare_summaries",
           "compare_telemetry", "compare_traces", "compare_artifacts",
           "render_comparison_report"]


class ComparisonReport:
    """Structured diff of two run artifacts; see module docstring."""

    def __init__(self, a: str, b: str) -> None:
        self.a = a
        self.b = b
        #: Per-metric rows {metric, a, b, delta, within}.
        self.summary: list[dict[str, Any]] = []
        #: Per-series rows {series, status, first_divergence?}.
        self.series: list[dict[str, Any]] = []
        #: Per-event-type rows {event, a, b, delta}.
        self.trace: list[dict[str, Any]] = []
        #: Axes that could not be compared and why.
        self.notes: list[str] = []

    @property
    def differences(self) -> int:
        """Count of rows that diverged (summary beyond tolerance, series
        with a located divergence, trace types with unequal counts)."""
        return (sum(1 for row in self.summary if not row["within"])
                + sum(1 for row in self.series
                      if row["status"] != "identical")
                + sum(1 for row in self.trace if row["delta"] != 0))

    @property
    def identical(self) -> bool:
        return self.differences == 0

    @property
    def exit_code(self) -> int:
        return 0 if self.identical else 1

    def as_dict(self) -> dict[str, Any]:
        return {"a": self.a, "b": self.b, "identical": self.identical,
                "differences": self.differences, "summary": self.summary,
                "series": self.series, "trace": self.trace,
                "notes": self.notes}


def compare_summaries(a: dict[str, float], b: dict[str, float], *,
                      rtol: float = 0.0, atol: float = 0.0
                      ) -> list[dict[str, Any]]:
    """Per-metric delta rows over the union of keys (missing keys are
    never ``within``)."""
    rows: list[dict[str, Any]] = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va is None or vb is None:
            rows.append({"metric": key, "a": va, "b": vb,
                         "delta": None, "within": False})
            continue
        delta = vb - va
        within = abs(delta) <= atol + rtol * abs(va)
        rows.append({"metric": key, "a": va, "b": vb,
                     "delta": delta, "within": within})
    return rows


def compare_telemetry(ta, tb, *, eps: float = 0.0) -> list[dict[str, Any]]:
    """Per-series divergence rows over the union of series names.

    A series present on both sides gets its first divergent bucket (see
    :func:`~repro.analysis.timeseries.first_divergence`); one-sided series
    are reported as ``only_in_a`` / ``only_in_b``.
    """
    rows: list[dict[str, Any]] = []
    for name in sorted(set(ta.series) | set(tb.series)):
        sa, sb = ta.series.get(name), tb.series.get(name)
        if sa is None or sb is None:
            rows.append({"series": name,
                         "status": "only_in_b" if sa is None else "only_in_a"})
            continue
        div = first_divergence(sa, sb, eps=eps)
        if div is None:
            rows.append({"series": name, "status": "identical"})
        else:
            rows.append({"series": name, "status": "diverged",
                         "first_divergence": div})
    return rows


def _event_counts(events) -> dict[str, int]:
    counts: dict[str, int] = {}
    for ev in map(event_obj, events):
        key = f"{ev.get('layer')}.{ev.get('event')}"
        counts[key] = counts.get(key, 0) + 1
    return counts


def compare_traces(events_a, events_b) -> list[dict[str, Any]]:
    """Per-``layer.event`` count-delta rows over the union of types."""
    ca, cb = _event_counts(events_a), _event_counts(events_b)
    return [{"event": key, "a": ca.get(key, 0), "b": cb.get(key, 0),
             "delta": cb.get(key, 0) - ca.get(key, 0)}
            for key in sorted(set(ca) | set(cb))]


def _trace_events(artifact) -> "list | None":
    if artifact["kind"] == "trace":
        return [ev for run in artifact["runs"] for ev in run["events"]]
    return getattr(artifact["result"], "trace", None)


def compare_artifacts(path_a: str | pathlib.Path,
                      path_b: str | pathlib.Path, *,
                      rtol: float = 0.0, atol: float = 0.0,
                      eps: float = 0.0) -> ComparisonReport:
    """Load two artifacts and diff every axis both sides carry."""
    a, b = load_artifact(path_a), load_artifact(path_b)
    for art in (a, b):
        if art["kind"] == "fuzz" or getattr(art.get("result"), "failed",
                                            False):
            raise ValueError(f"{art['path']} holds no run to diff; compare "
                             f"takes traces and completed results")
    report = ComparisonReport(str(pathlib.Path(path_a)),
                              str(pathlib.Path(path_b)))

    if a["kind"] == "result" and b["kind"] == "result":
        report.summary = compare_summaries(a["result"].summary,
                                           b["result"].summary,
                                           rtol=rtol, atol=atol)
        ta = getattr(a["result"], "telemetry", None)
        tb = getattr(b["result"], "telemetry", None)
        if ta is not None and tb is not None:
            report.series = compare_telemetry(ta, tb, eps=eps)
        else:
            report.notes.append("telemetry: not sampled on "
                                + ("either side" if ta is None and tb is None
                                   else ("side A" if ta is None else "side B"))
                                + "; series not compared")
    else:
        report.notes.append("summaries: at least one side is a trace file; "
                            "summary metrics not compared")

    ea, eb = _trace_events(a), _trace_events(b)
    if ea is not None and eb is not None:
        report.trace = compare_traces(ea, eb)
    elif a["kind"] != "result" or b["kind"] != "result":
        raise ValueError(f"{a['path']} and {b['path']} share nothing to "
                         f"compare: not two results, not two event streams")
    else:
        report.notes.append("trace: no event stream on "
                            + ("either side" if ea is None and eb is None
                               else ("side A" if ea is None else "side B"))
                            + "; event counts not compared")
    return report


def render_comparison_report(report: ComparisonReport, *,
                             all_rows: bool = False) -> str:
    """Human-readable diff; by default only divergent rows are shown
    (``all_rows`` includes the matching ones too)."""
    parts = [f"compare: A={report.a}", f"         B={report.b}"]
    sum_rows = [r for r in report.summary
                if all_rows or not r["within"]]
    if sum_rows:
        parts.append("")
        parts.append(render_table(
            ["metric", "A", "B", "delta", "ok"],
            [[r["metric"], r["a"], r["b"],
              "-" if r["delta"] is None else fmt(r["delta"]),
              "yes" if r["within"] else "NO"] for r in sum_rows],
            title=f"Summary metrics ({len(report.summary)} compared)"))
    ser_rows = [r for r in report.series
                if all_rows or r["status"] != "identical"]
    if ser_rows:
        rows = []
        for r in ser_rows:
            div = r.get("first_divergence")
            where = (f"bucket {div['bucket']} (t={div['time_s']:.3f}s: "
                     f"{div['a']} vs {div['b']})" if div else "-")
            rows.append([r["series"], r["status"], where])
        parts.append("")
        parts.append(render_table(
            ["series", "status", "first divergence"], rows,
            title=f"Telemetry series ({len(report.series)} compared)"))
    tr_rows = [r for r in report.trace if all_rows or r["delta"] != 0]
    if tr_rows:
        parts.append("")
        parts.append(render_table(
            ["event", "A", "B", "delta"],
            [[r["event"], r["a"], r["b"], r["delta"]] for r in tr_rows],
            title=f"Trace events ({len(report.trace)} types compared)"))
    for note in report.notes:
        parts.append(f"note: {note}")
    parts.append("")
    parts.append("IDENTICAL (within tolerance)" if report.identical
                 else f"DIVERGED: {report.differences} difference(s)")
    return "\n".join(parts)
