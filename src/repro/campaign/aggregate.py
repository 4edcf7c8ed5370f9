"""Campaign-level aggregation: the one fold over a campaign's cells.

A finished (or interrupted, or still running) campaign is thousands of
:class:`ScenarioResult`/:class:`FailedResult` rows; an :class:`Aggregator`
reduces them to one :class:`CampaignReport`:

* **cells** -- per-cell metric rows (label, seed, state, chosen metrics);
* **axes** -- for every axis field, summary stats (n/mean/min/max/std) of
  each metric grouped by that field's value, pooled over all other axes
  and seeds -- the "what did varying X do" view;
* **failures** -- count by classified kind
  (:func:`repro.obs.report.failures_by_kind`).

The fold and its order rule: :meth:`Aggregator.fold` takes each finished
cell once, in whatever order cells land (a dict handed to
:func:`aggregate`, result files appearing under a running campaign and
picked up by :meth:`Aggregator.poll`), and keeps only that cell's small
report row.  :meth:`Aggregator.report` then walks the cells **in expansion
order** to build pools, stats and rows, so landing order cannot reach a
float sum: ``campaign report``, ``campaign watch``, ``serve /metrics`` and
``CampaignRun.report()`` print the same digits for the same cells.

Determinism contract: ``as_dict()`` carries *no wall-clock timestamps or
host identity* -- it is a pure function of the campaign spec and the
result set, so an interrupted-then-resumed campaign reports byte-identical
JSON to an uninterrupted one (CI asserts exactly this).  Prometheus output
goes through :func:`repro.obs.metrics.render_prometheus`, whose number
formatting is pinned for the same reason.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Mapping

from ..analysis.tables import render_table
from ..experiments.common import ScenarioResult
from ..obs.metrics import render_prometheus
from ..obs.report import failures_by_kind
from ..runner.failures import FailedResult
from ..runner.hashing import field_text
from .spec import Campaign

__all__ = ["Aggregator", "CampaignReport", "aggregate", "DEFAULT_METRICS"]

#: Metrics summarised when the spec names none.
DEFAULT_METRICS = ("duration_s", "throughput_kBps", "msg_interarrival_s",
                   "msg_jitter_s")


def _stats(values: "list[float]") -> dict[str, float]:
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return {"n": n, "mean": mean, "min": min(values), "max": max(values),
            "std": math.sqrt(var)}


class CampaignReport:
    """Aggregated view of one campaign's results (see module docstring)."""

    def __init__(self, *, name: str, total: int, done: int, failed: int,
                 failures: dict[str, int], metrics: tuple[str, ...],
                 cells: "list[dict]", axes: "dict[str, dict]"):
        self.name = name
        self.total = total
        self.done = done
        self.failed = failed
        self.failures = failures
        self.metrics = metrics
        self.cells = cells
        self.axes = axes

    @property
    def complete(self) -> bool:
        return self.done >= self.total

    # -- serialisation -----------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-able report payload; deterministic by construction (no
        timestamps, no hostnames, stable ordering everywhere)."""
        return {
            "campaign": self.name,
            "cells": {"total": self.total, "done": self.done,
                      "ok": self.done - self.failed,
                      "failed": self.failed,
                      "pending": self.total - self.done},
            "failures": {"total": self.failed,
                         "by_kind": dict(self.failures)},
            "metrics": list(self.metrics),
            "per_cell": self.cells,
            "per_axis": self.axes,
        }

    def to_json(self, **kw) -> str:
        kw.setdefault("indent", 1)
        kw.setdefault("sort_keys", True)
        return json.dumps(self.as_dict(), **kw)

    # -- text --------------------------------------------------------------
    def render(self) -> str:
        """Monospace report for the terminal."""
        lines = [f"campaign {self.name}: {self.done}/{self.total} cells "
                 f"done, {self.failed} failed, "
                 f"{self.total - self.done} pending"]
        if self.failures:
            detail = ", ".join(f"{kind}: {n}"
                               for kind, n in self.failures.items())
            lines.append(f"failures by kind: {detail}")
        return "\n".join(lines + self.render_axes())

    def render_axes(self, note: str = "") -> "list[str]":
        """One table per axis field with landed cells, a blank line before
        each; ``note`` is appended to every title."""
        lines = []
        for field, groups in self.axes.items():
            rows = [[value, metric, st["n"], st["mean"], st["min"],
                     st["max"], st["std"]]
                    for value, metrics in groups.items()
                    for metric, st in metrics.items()]
            if rows:
                lines += ["", render_table(
                    [field, "metric", "n", "mean", "min", "max", "std"],
                    rows, title=f"axis: {field}{note}")]
        return lines

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the campaign state -- scrapeable
        from a cron wrapper, byte-stable for goldens."""
        cells = [("", {"state": state}, n) for state, n in (
            ("total", self.total), ("done", self.done),
            ("ok", self.done - self.failed), ("failed", self.failed),
            ("pending", self.total - self.done))]
        failures = [("", {"kind": kind}, n)
                    for kind, n in self.failures.items()]
        metric = [("", {"axis": field, "value": value, "metric": name,
                        "stat": stat}, st[stat])
                  for field, groups in self.axes.items()
                  for value, metrics in groups.items()
                  for name, st in metrics.items()
                  for stat in ("n", "mean", "min", "max", "std")]
        return render_prometheus([("cells", "gauge", cells),
                                  ("failures", "gauge", failures),
                                  ("metric", "gauge", metric)],
                                 "repro_campaign_")


class Aggregator:
    """The fold over one campaign's cells (see module docstring).

    ``cells`` is the expansion as ``(key, label, seed, assignment)`` in
    expansion order -- a :class:`Campaign`'s cells, or a directory's
    manifest labels with no seed and no axes
    (:meth:`CampaignStore.aggregator`).
    """

    def __init__(self, name: str, cells: Iterable[tuple], *,
                 metrics: Iterable[str] | None = None) -> None:
        self.name = name
        self.cells = [(key, label, seed, dict(assignment))
                      for key, label, seed, assignment in cells]
        self.metrics = tuple(metrics) if metrics else DEFAULT_METRICS
        self._keys = {cell[0] for cell in self.cells}
        # key -> what the cell's result adds to its report row
        self._folded: dict[str, dict] = {}

    @classmethod
    def of(cls, campaign: Campaign, *,
           metrics: Iterable[str] | None = None) -> "Aggregator":
        return cls(campaign.name,
                   [(c.key, c.label, c.seed, c.assignment)
                    for c in campaign.cells()],
                   metrics=metrics or campaign.metrics)

    @property
    def done(self) -> int:
        return len(self._folded)

    def __contains__(self, key: str) -> bool:
        """Whether ``key``'s result has been folded."""
        return key in self._folded

    def fold(self, key: str, result: "ScenarioResult | FailedResult"
             ) -> bool:
        """Take one finished cell, in any order; False (and no change) for
        a key outside the campaign or one already folded."""
        if key in self._folded or key not in self._keys:
            return False
        if isinstance(result, FailedResult):
            self._folded[key] = {"state": "failed", "kind": result.kind,
                                 "detail": result.describe()}
        else:
            summary = result.summary
            self._folded[key] = {"state": "ok", "metrics": {
                m: summary[m] for m in self.metrics if m in summary}}
        return True

    def poll(self, store) -> int:
        """Fold the cells ``store`` has finished since the last poll,
        reading only their files; returns how many.  A torn file is left
        for the poll after it heals."""
        fresh = 0
        for key in (store.cells.keys() & self._keys) - self._folded.keys():
            result = store.cells.get(key, (ScenarioResult, FailedResult))
            if result is not None:
                fresh += self.fold(key, result)
        return fresh

    def report(self) -> CampaignReport:
        """The report of what has been folded so far.  Metrics absent from
        a result's summary are skipped silently (population results, say,
        have different keys)."""
        cell_rows: list[dict] = []
        failed_kinds: list[str] = []
        # axis field -> rendered value -> metric -> [values]
        pools: dict[str, dict[str, dict[str, list[float]]]] = {}
        for key, label, seed, assignment in self.cells:
            row = {"cell": label, "key": key, "seed": seed,
                   **self._folded.get(key, {"state": "pending"})}
            cell_rows.append(row)
            if row["state"] == "failed":
                failed_kinds.append(row["kind"])
            for field, raw in assignment.items():
                groups = pools.setdefault(field, {})
                if row["state"] != "ok":
                    continue
                pool = groups.setdefault(field_text(raw), {})
                for m, v in row["metrics"].items():
                    pool.setdefault(m, []).append(float(v))
        axes = {field: {value: {m: _stats(vs)
                                for m, vs in groups[value].items()}
                        for value in sorted(groups)}
                for field, groups in pools.items()}
        return CampaignReport(
            name=self.name, total=len(self.cells), done=self.done,
            failed=len(failed_kinds),
            failures=failures_by_kind(failed_kinds),
            metrics=self.metrics, cells=cell_rows, axes=axes)


def aggregate(campaign: Campaign,
              results_by_key: Mapping[str, "ScenarioResult | FailedResult"],
              *, metrics: Iterable[str] | None = None) -> CampaignReport:
    """Reduce a campaign's result set to a :class:`CampaignReport`: fold
    all, report.  ``metrics`` defaults to the spec's ``metrics`` list, else
    :data:`DEFAULT_METRICS`."""
    agg = Aggregator.of(campaign, metrics=metrics)
    for key, result in results_by_key.items():
        agg.fold(key, result)
    return agg.report()
