"""Campaign-level aggregation: per-cell, per-axis and failure rollups.

A finished (or interrupted) campaign is thousands of
:class:`ScenarioResult`/:class:`FailedResult` rows; :func:`aggregate`
reduces them to one :class:`CampaignReport`:

* **cells** -- per-cell metric rows (label, seed, state, chosen metrics);
* **axes** -- for every axis field, summary stats (n/mean/min/max/std) of
  each metric grouped by that field's value, pooled over all other axes
  and seeds -- the "what did varying X do" view;
* **failures** -- count by classified kind
  (:func:`repro.obs.report.failures_by_kind`).

Determinism contract: ``as_dict()`` carries *no wall-clock timestamps or
host identity* -- it is a pure function of the campaign spec and the
result set, so an interrupted-then-resumed campaign reports byte-identical
JSON to an uninterrupted one (CI asserts exactly this).  Prometheus output
reuses :mod:`repro.obs.metrics`' pinned number formatting for the same
reason.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Mapping

from ..analysis.tables import render_table
from ..experiments.common import ScenarioResult
from ..obs.metrics import _prom_name, _prom_value
from ..obs.report import failures_by_kind
from ..runner.failures import FailedResult
from ..runner.hashing import field_text
from .spec import Campaign

__all__ = ["CampaignReport", "aggregate", "DEFAULT_METRICS"]

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
        for field, groups in self.axes.items():
            rows = []
            for value, metrics in groups.items():
                for metric, st in metrics.items():
                    rows.append([value, metric, st["n"], st["mean"],
                                 st["min"], st["max"], st["std"]])
            if rows:
                lines.append("")
                lines.append(render_table(
                    [field, "metric", "n", "mean", "min", "max", "std"],
                    rows, title=f"axis: {field}"))
        return "\n".join(lines)

    def render_prometheus(self, prefix: str = "repro_campaign_") -> str:
        """Prometheus text exposition of the campaign state -- scrapeable
        from a cron wrapper, byte-stable for goldens."""
        esc = lambda s: str(s).replace("\\", r"\\").replace('"', r'\"')
        lines: list[str] = []
        cname = _prom_name(prefix, "cells")
        lines.append(f"# TYPE {cname} gauge")
        for state, count in (("total", self.total), ("done", self.done),
                             ("ok", self.done - self.failed),
                             ("failed", self.failed),
                             ("pending", self.total - self.done)):
            lines.append(f'{cname}{{state="{state}"}} {_prom_value(count)}')
        if self.failures:
            fname = _prom_name(prefix, "failures")
            lines.append(f"# TYPE {fname} gauge")
            for kind, n in self.failures.items():
                lines.append(f'{fname}{{kind="{esc(kind)}"}} '
                             f'{_prom_value(n)}')
        mname = _prom_name(prefix, "metric")
        header_done = False
        for field, groups in self.axes.items():
            for value, metrics in groups.items():
                for metric, st in metrics.items():
                    for stat in ("n", "mean", "min", "max", "std"):
                        if not header_done:
                            lines.append(f"# TYPE {mname} gauge")
                            header_done = True
                        lines.append(
                            f'{mname}{{axis="{esc(field)}",'
                            f'value="{esc(value)}",metric="{esc(metric)}",'
                            f'stat="{stat}"}} {_prom_value(st[stat])}')
        return "\n".join(lines) + "\n"


def aggregate(campaign: Campaign,
              results_by_key: Mapping[str, "ScenarioResult | FailedResult"],
              *, metrics: Iterable[str] | None = None) -> CampaignReport:
    """Reduce a campaign's result set to a :class:`CampaignReport`.

    ``metrics`` defaults to the spec's ``metrics`` list, else
    :data:`DEFAULT_METRICS`; metrics absent from a result's summary are
    skipped silently (population results, say, have different keys).
    """
    if metrics is None:
        metrics = campaign.metrics or DEFAULT_METRICS
    metrics = tuple(metrics)
    cells = campaign.cells()

    cell_rows: list[dict] = []
    failed_kinds: list[str] = []
    done = 0
    # axis field -> rendered value -> metric -> [values]
    axis_pools: dict[str, dict[str, dict[str, list[float]]]] = {}
    axis_fields: list[str] = []
    for cell in cells:
        for field in cell.assignment:
            if field not in axis_fields:
                axis_fields.append(field)

    for cell in cells:
        res = results_by_key.get(cell.key)
        row: dict = {"cell": cell.label, "key": cell.key, "seed": cell.seed}
        if res is None:
            row["state"] = "pending"
        elif isinstance(res, FailedResult):
            done += 1
            failed_kinds.append(res.kind)
            row["state"] = "failed"
            row["kind"] = res.kind
            row["detail"] = res.describe()
        else:
            done += 1
            row["state"] = "ok"
            summary = res.summary
            row["metrics"] = {m: summary[m] for m in metrics
                              if m in summary}
            for field in axis_fields:
                if field not in cell.assignment:
                    continue
                value = field_text(cell.assignment[field])
                pool = axis_pools.setdefault(field, {}).setdefault(value, {})
                for m, v in row["metrics"].items():
                    pool.setdefault(m, []).append(float(v))
        cell_rows.append(row)

    axes: dict[str, dict] = {}
    for field in axis_fields:
        groups = axis_pools.get(field, {})
        axes[field] = {value: {m: _stats(vs)
                               for m, vs in groups[value].items()}
                       for value in sorted(groups)}

    return CampaignReport(
        name=campaign.name, total=len(cells), done=done,
        failed=len(failed_kinds), failures=failures_by_kind(failed_kinds),
        metrics=metrics, cells=cell_rows, axes=axes)
