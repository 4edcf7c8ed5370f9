"""Stable public API facade.

Everything a library user needs for "configure a scenario, run it, look at
the result" lives here, decoupled from the internal module layout (which
this package is free to keep refactoring):

    from repro.api import Scenario, run, sweep, load_result

    res = run(Scenario(transport="iq", workload="greedy", cbr_bps=16e6))
    print(res.summary["duration_s"])

Campaigns scale the same facade up: :func:`load_campaign` turns a spec
(TOML/YAML/JSON/dict: template x axes x seeds) into a
:class:`~repro.campaign.Campaign`, and :func:`run_campaign` executes it --
in-memory, or across worker processes/hosts splitting a shared campaign
directory via claim/lease work stealing::

    run = run_campaign("spec.toml", dir="camp/", workers=4)
    print(run.report().render())

:class:`Scenario` *is* :class:`~repro.experiments.common.ScenarioConfig`:
keyword-only, validated at construction, frozen afterwards; unknown fields
fail with a close-match suggestion instead of silently configuring
nothing.  :func:`run` and :func:`sweep` go through the batch runner, so
they share its persistent results cache, process-pool fan-out and JSONL
tracing.  :func:`load_result` reads a pickled result back (the cache's
``.pkl`` format, or anything ``pickle.dump``-ed from a ``ScenarioResult``).
"""

from __future__ import annotations

import os
import pickle
from typing import Iterable, Mapping

from .campaign import (  # noqa: F401  (re-export: campaigns)
    Campaign, CampaignCell, CampaignReport, CampaignRun, load_campaign,
    run_campaign)
from .experiments.common import ScenarioConfig, ScenarioResult
from .faults import FaultSchedule  # noqa: F401  (re-export: schedules are config)
from .invariants import InvariantViolation  # noqa: F401  (re-export)
from .obs.telemetry import TelemetryConfig  # noqa: F401  (re-export: config)
from .runner import run_batch, run_one
from .runner.failures import (  # noqa: F401  (re-export: resilient sweeps)
    BatchExecutionError, FailedResult)

__all__ = ["Scenario", "ScenarioResult", "FaultSchedule", "TelemetryConfig",
           "FailedResult", "BatchExecutionError", "InvariantViolation",
           "run", "sweep", "load_result",
           "Campaign", "run_campaign", "load_campaign"]

Scenario = ScenarioConfig


def _as_config(scenario: Scenario) -> Scenario:
    if not isinstance(scenario, Scenario):
        raise TypeError(f"expected a Scenario, "
                        f"got {type(scenario).__name__}")
    return scenario


def run(scenario: Scenario, *, cache=None,
        trace: str | None = None) -> ScenarioResult:
    """Execute one scenario and return its :class:`ScenarioResult`.

    Goes through the batch runner: results are served from the persistent
    cache when the identical configuration has run before (disable with
    ``cache=False`` or ``REPRO_NO_CACHE=1``), and ``trace`` names a
    JSONL(.gz) file to record the run's full event stream into.
    """
    return run_one(_as_config(scenario), cache=cache, trace=trace)


def sweep(scenarios, /, *, jobs: int = 1, cache=None,
          trace: str | None = None, **resilience):
    """Run a batch of scenarios, optionally across ``jobs`` worker
    processes.

    ``scenarios`` is any collection of scenarios: a mapping returns
    ``{label: ScenarioResult}``, any other iterable (list, tuple,
    generator, ...) returns a list -- both in input (insertion) order.
    Common shapes::

        results = sweep({tp: base.replace(transport=tp)
                         for tp in ("iq", "rudp", "tcp")}, jobs=4)
        results = sweep(base.replace(seed=s) for s in range(20))

    Results are deterministic for any ``jobs`` value: every scenario
    derives all randomness from its own ``seed``.

    Resilience keywords (``on_error="capture"``, ``timeout``, ``retries``,
    ``retry_backoff_s``) pass through to :func:`repro.runner.run_batch`;
    with ``on_error="capture"`` failed slots hold :class:`FailedResult`
    rows instead of raising.
    """
    if isinstance(scenarios, Scenario):
        raise TypeError("sweep() takes a collection of scenarios; for a "
                        "single scenario use run()")
    if isinstance(scenarios, Mapping):
        configs = {label: _as_config(sc) for label, sc in scenarios.items()}
    else:
        if not isinstance(scenarios, Iterable):
            raise TypeError(f"sweep() needs a mapping or iterable of "
                            f"scenarios, got {type(scenarios).__name__}")
        configs = [_as_config(sc) for sc in scenarios]
    return run_batch(configs, jobs=jobs, cache=cache, trace=trace,
                     **resilience)


def load_result(path: str | os.PathLike) -> ScenarioResult:
    """Load a pickled :class:`ScenarioResult` (e.g. a results-cache
    ``.pkl`` entry) and type-check it.

    Raises ``FileNotFoundError`` for a missing file and ``TypeError`` when
    the pickle holds something other than a scenario result -- loading an
    arbitrary experiment artifact through this accessor is a bug, not a
    result.
    """
    with open(path, "rb") as fh:
        value = pickle.load(fh)
    if not isinstance(value, ScenarioResult):
        raise TypeError(
            f"{os.fspath(path)!r} holds {type(value).__name__}, not a "
            f"ScenarioResult; was it written by the results cache?")
    return value
