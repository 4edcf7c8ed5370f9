"""What an experiment is, declared once.

Every artifact of the evaluation has one shape: a workload, the *arms*
under comparison run on it under identical conditions (the paper's
coordination schemes; a sweep's transports or FEC profiles), optionally
repeated over named *groups* of conditions (Table 6's cross-traffic
rates; a sweep's fault schedules with their calibration), and a fixed
set of columns.  An :class:`Experiment` holds that as data and is the
only code that expands it into scenarios (:meth:`~Experiment.configs`),
runs them (:meth:`~Experiment.run`) and renders the result
(:meth:`~Experiment.render`); the table and sweep modules declare
``TABLE1`` ... ``TABLE8``, ``DYNAMICS`` and ``RELIABILITY`` and
:data:`repro.cli.EXPERIMENTS` maps the command names to them.

A cell's configuration is built in one order, most specific last::

    base(n_frames, seed) -> group -> caller's overrides -> arm

so ``--set`` retunes a group's calibration but can never turn one arm
into another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping

from ..analysis.stats import improvement
from ..analysis.tables import render_comparison, render_grouped
from ..campaign import run_rows
from .common import ScenarioConfig, ScenarioResult

__all__ = ["Experiment"]


@dataclass(frozen=True)
class Experiment:
    """One table or sweep; see the module docstring."""

    #: Command, campaign and trace name (``"table3"``, ``"dynamics"``).
    name: str
    title: str
    #: ``base(n_frames, seed)`` -> the workload every cell derives from.
    base: Callable[[int, int], ScenarioConfig]
    #: Arm label -> ``replace`` overrides; a sweep lists the arm whose
    #: goodput gain it reports first.
    arms: Mapping[str, Mapping[str, Any]]
    #: Header row: the label column(s) -- group first when there are
    #: groups -- then one header per value of ``metrics``.
    columns: tuple[str, ...]
    #: ``metrics(result)`` -> the row's values, in column order.
    metrics: Callable[[ScenarioResult], tuple[float, ...]]
    n_frames: int
    seed: int = 1
    #: Group label -> ``replace`` overrides, or None for a single block.
    groups: Mapping[Any, Mapping[str, Any]] | None = None
    #: The published numbers, ``{arm: values}`` (``{group: {arm: values}}``
    #: with groups); None marks a sweep, which has no paper counterpart.
    paper: Mapping | None = None
    #: Rounding of rendered values.
    digits: int = 2

    def _pick(self, kind: str, declared: Mapping,
              chosen: Iterable | None) -> tuple:
        names = tuple(chosen) if chosen else tuple(declared)
        for name in names:
            if name not in declared:
                raise ValueError(
                    f"unknown {self.name} {kind} {name!r}; available: "
                    f"{', '.join(map(str, declared))}")
        return names

    def _cells(self, *, n_frames: int | None = None, seed: int | None = None,
               overrides: Mapping[str, Any] | None = None,
               groups: Iterable | None = None,
               arms: Iterable[str] | None = None
               ) -> Iterator[tuple[Any, str, str, ScenarioConfig]]:
        """``(group, arm, flat label, config)`` per cell, group-major."""
        arms = self._pick("arm", self.arms, arms)
        groups = (self._pick("scenario", self.groups, groups)
                  if self.groups is not None else (None,))
        base = self.base(self.n_frames if n_frames is None else n_frames,
                         self.seed if seed is None else seed)
        for group in groups:
            cell = base if group is None else base.replace(
                **self.groups[group])
            if overrides:
                cell = cell.replace(**overrides)
            for arm in arms:
                yield (group, arm, arm if group is None else f"{group}/{arm}",
                       cell.replace(**self.arms[arm]))

    def configs(self, **select) -> dict[str, ScenarioConfig]:
        """The experiment as data: ``{flat label: config}``, the label
        being ``arm`` or ``f"{group}/{arm}"``.  Keywords: ``n_frames``,
        ``seed`` (default to the declaration's), ``overrides`` (applied
        to every cell), ``groups`` / ``arms`` (subsets, by label)."""
        return {label: cfg for _, _, label, cfg in self._cells(**select)}

    def run(self, *, jobs: int = 1, cache=None, trace: str | None = None,
            campaign_dir: str | None = None, **select) -> dict:
        """Run every cell as one flat batch; returns ``{arm: result}``, or
        ``{group: {arm: result}}`` with groups.

        ``select`` is :meth:`configs`'s keywords; ``campaign_dir`` routes
        the rows through a shared campaign directory for claim/resume
        semantics (see :mod:`repro.campaign`).
        """
        cells = list(self._cells(**select))
        flat = run_rows({label: cfg for _, _, label, cfg in cells},
                        name=self.name, dir=campaign_dir, jobs=jobs,
                        cache=cache, trace=trace)
        if self.groups is None:
            return flat
        out: dict = {}
        for group, arm, label, _ in cells:
            out.setdefault(group, {})[arm] = flat[label]
        return out

    def render(self, results: Mapping) -> str:
        """The text block for :meth:`run`'s return value: paper-vs-measured
        for a table; for a sweep, one block per group closing with the
        first arm's goodput improvement over each other arm."""
        def rows(by_arm: Mapping[str, ScenarioResult]) -> list[tuple]:
            return [(arm, *(round(x, self.digits) for x in self.metrics(res)))
                    for arm, res in by_arm.items()]

        if self.paper is None:
            blocks = {}
            for group, by_arm in results.items():
                blocks[group] = rows(by_arm)
                first, *rest = by_arm
                for other in rest:
                    gain = improvement(by_arm[first].summary["goodput_fps"],
                                       by_arm[other].summary["goodput_fps"])
                    blocks[group].append(
                        (f"goodput vs {other}", f"{gain:+.1f}%",
                         *[""] * (len(self.columns) - 3)))
            return render_grouped(self.title, self.columns[1:], blocks,
                                  group_header=self.columns[0])
        if self.groups is None:
            paper = [(arm, *values) for arm, values in self.paper.items()]
            measured = rows(results)
        else:
            paper = [(group, arm, *self.paper[group][arm])
                     for group, by_arm in results.items() for arm in by_arm]
            measured = [(group, *row) for group, by_arm in results.items()
                        for row in rows(by_arm)]
        return render_comparison(self.title, self.columns, paper, measured)
