"""Batch execution of independent scenarios: process-pool fan-out plus a
persistent on-disk results cache.

Every artifact in the paper's evaluation is a batch of *independent*
``run_scenario`` calls (a table's rows, a sweep's points), so the first-order
performance lever for reproducing the paper is fanning those runs out across
cores and never re-running a configuration whose parameters have not
changed.  This package supplies both:

* :func:`run_batch` / :func:`run_one` -- execute scenario configs on
  :mod:`.supervisor`'s pool of ``jobs`` reusable worker processes with
  deterministic per-scenario seeding: results are bit-identical whatever
  the worker count, as each scenario seeds itself from ``cfg.seed``.
* :class:`ResultsCache` / :func:`memo` -- pickle results under a key that
  hashes the full :class:`~repro.experiments.common.ScenarioConfig` plus a
  salt over the package's source code, so editing any ``repro`` module
  invalidates every cached result while a parameter-identical rerun is a
  pure cache hit.

Environment knobs:

``REPRO_CACHE_DIR``
    Cache directory (default ``~/.cache/repro-iq-rudp``).
``REPRO_NO_CACHE=1``
    Disable the persistent cache entirely (compute everything fresh,
    write nothing).
``REPRO_PROGRESS=1`` / ``=0``
    Force the sweep progress line (stderr) on or off; default is on only
    when stderr is a terminal.  A one-scenario batch (``run_one``, a
    campaign cell) draws none.  See :mod:`.progress`.

Resilient execution (PR 4) rides on :func:`run_batch`'s keywords:
``on_error="capture"`` isolates per-scenario crashes as
:class:`FailedResult` rows, ``timeout=S`` kills hung scenarios,
and ``retries=N`` re-runs transient losses with exponential backoff.  See
:mod:`.failures` and :mod:`.supervisor`; a batch that must survive a kill
runs through a campaign directory (:func:`repro.campaign.run_rows`), whose
per-worker outcome log is :mod:`.checkpoint`'s :class:`SweepJournal`.
"""

from .cache import ResultsCache, cache_enabled, default_cache, memo
from .checkpoint import SweepJournal
from .failures import BatchExecutionError, FailedResult
from .hashing import code_salt, config_fingerprint, config_key
from .pool import run_batch, run_one
from .progress import SweepProgress

__all__ = [
    "ResultsCache", "cache_enabled", "default_cache", "memo",
    "code_salt", "config_fingerprint", "config_key",
    "run_batch", "run_one", "SweepProgress",
    "FailedResult", "BatchExecutionError", "SweepJournal",
]
