"""Process-pool execution of independent scenario batches.

Scenarios are embarrassingly parallel: each ``run_scenario`` builds its own
simulator, topology and RNG streams from the config alone, and every random
stream derives from ``cfg.seed`` (see :mod:`repro.sim.rand`).  Worker count
therefore cannot change results -- ``jobs=1`` and ``jobs=N`` are
bit-identical -- and the pool is free to schedule runs in any order.

Results returned by :func:`run_batch` are *detached* (their simulator heap
is drained, see ``ScenarioResult.detach``): they carry every metric, log
and counter the benches read, but can no longer be resumed.

Tracing (``trace=PATH``) rides on the same machinery: every cache *miss*
runs with a per-scenario :class:`~repro.obs.TraceBus` collecting into an
in-memory sink, the events ship back to the parent with the result, and the
parent writes one deterministic JSONL file with the runs in batch order --
so the trace file, like the results, is identical for any worker count.
Cache *hits* are recorded in the trace header as ``"cached": true`` with no
event stream (the cache stores metrics, not events).

One way to run a miss, one landing
----------------------------------
Every cache miss goes through :func:`.supervisor.run_supervised`: in this
process when there is no worker to lose or kill (``jobs=1``, no
timeout), else on its pool of reusable supervised workers, where hangs
are killed at the wall-clock budget and transient losses retry with
exponential backoff.  What the caller asked to survive decides what a
failure becomes, never a switch: nothing asked, and a scenario exception
leaves ``run_batch`` unchanged from the worker, here or out of the pool;
``on_error="capture"``, a ``timeout`` or ``retries`` make crashes
:class:`FailedResult` rows.  With ``on_error="raise"`` (the default) a
surviving failure row is re-raised as :class:`BatchExecutionError`
carrying the worker traceback; ``"capture"`` returns the failures in-place
so sweeps can triage.

Each result is handed, as it arrives, to one landing -- keep it, cache
it, count it -- so whatever finished before a later scenario raised, or
before Ctrl-C (which always propagates as ``KeyboardInterrupt``), is a
cache hit on the next call.  A batch that must outlive its process runs
through a campaign directory (:func:`repro.campaign.run_rows`,
``--campaign-dir``): claimed, resumable, shared between processes.
"""

from __future__ import annotations

import pickle
import warnings
from typing import Any, Mapping, Sequence

from ..experiments.common import ScenarioConfig, ScenarioResult, run_scenario
from ..obs.sinks import RingBufferSink, write_trace
from .cache import ResultsCache, cache_enabled, default_cache
from .failures import BatchExecutionError, FailedResult
from .hashing import config_key
from .progress import SweepProgress
from .supervisor import run_supervised

__all__ = ["run_batch", "run_one"]


def _run_detached(cfg: ScenarioConfig) -> ScenarioResult:
    """Worker entry point: execute one scenario and strip the event heap
    so the result pickles back to the parent."""
    return run_scenario(cfg).detach()


def _run_traced(cfg: ScenarioConfig) -> ScenarioResult:
    """Worker entry point for traced batches: collect the run's full event
    stream and attach it to the (detached, picklable) result."""
    sink = RingBufferSink()
    res = run_scenario(cfg, trace_sink=sink).detach()
    res.trace = sink.events
    return res


def _trace_meta(cfg: ScenarioConfig,
                res: ScenarioResult | FailedResult | None) -> dict[str, Any]:
    """Per-run header fields for the trace file.

    Failure metadata is flattened in (``write_trace`` merges the dict into
    the run head line), so ``repro report`` can render failed runs from
    the head line alone.
    """
    meta = {"transport": cfg.transport, "workload": cfg.workload,
            "seed": cfg.seed}
    if cfg.faults is not None:
        meta["faults"] = cfg.faults.describe()
    if isinstance(res, FailedResult):
        meta["failed"] = True
        meta["failed_kind"] = res.kind
        if res.error_type:
            meta["error_type"] = res.error_type
        if res.message:
            meta["error"] = res.message.splitlines()[0][:200]
        if res.attempts > 1:
            meta["attempts"] = res.attempts
    return meta


def _resolve_cache(cache: ResultsCache | bool | None) -> ResultsCache | None:
    """Map the ``cache`` argument to an active cache or None.

    ``None``/``True`` -> the default environment-configured cache;
    ``False`` -> no caching; a :class:`ResultsCache` -> that cache.
    ``REPRO_NO_CACHE`` wins over everything.
    """
    if not cache_enabled() or cache is False:
        return None
    if isinstance(cache, ResultsCache):
        return cache
    return default_cache()


def _validate_jobs(jobs: int | None) -> int:
    """Normalise ``jobs`` to a positive int; reject nonsense loudly.

    ``jobs=0`` or a negative count used to fall through to the serial
    path silently -- a typo'd ``--jobs 0`` ran a thousand-scenario sweep
    on one core without a word.  Booleans are rejected too (``True`` is
    an ``int`` that would "work").
    """
    if jobs is None:
        return 1
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ValueError(f"jobs must be a positive integer or None, "
                         f"got {jobs!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1 (got {jobs}); use jobs=1 or "
                         f"None for in-process execution")
    return jobs


def _cache_put(cache: ResultsCache | None, key: str | None, res,
               payload: bytes | None = None) -> ResultsCache | None:
    """Memoise one fresh result, best effort (``payload``: its pickle, when
    the caller has one); returns the cache to keep writing to.  An
    unpicklable result is skipped; an unwritable cache warns and returns
    None, so a batch warns once and stops writing.  Failed rows and event
    streams stay out (per-run evidence, not results)."""
    if cache is None or key is None or not isinstance(res, ScenarioResult):
        return cache
    events, res.trace = res.trace, None
    try:
        cache.put(key, res, payload)
    except (pickle.PicklingError, TypeError, AttributeError):
        pass
    except OSError as exc:
        warnings.warn(f"results cache at {cache.root} is not writable "
                      f"({exc}); continuing without caching",
                      RuntimeWarning, stacklevel=3)
        return None
    finally:
        res.trace = events
    return cache


def run_one(cfg: ScenarioConfig, *,
            cache: ResultsCache | bool | None = None,
            trace: str | None = None, **kw) -> ScenarioResult:
    """Cached single-scenario run (always detached).  Resilience keywords
    (``on_error``/``timeout``/``retries``) pass through to
    :func:`run_batch`."""
    return run_batch([cfg], cache=cache, trace=trace, **kw)[0]


def run_batch(configs: Mapping[Any, ScenarioConfig] |
              Sequence[ScenarioConfig], *,
              jobs: int | None = 1,
              cache: ResultsCache | bool | None = None,
              trace: str | None = None,
              on_error: str = "raise",
              timeout: float | None = None,
              retries: int = 0,
              retry_backoff_s: float = 0.05):
    """Execute a batch of independent scenarios, in parallel when asked.

    ``configs`` is either a mapping (returns ``{key: result}``, insertion
    order preserved) or a sequence (returns a list).  ``jobs`` is the
    worker-process count; ``None`` or ``1`` runs in-process unless a
    ``timeout`` needs a worker to kill, and only cache *misses* are
    fanned out.  Configs whose fields cannot be stably
    hashed (lambda adaptation factories) always run fresh.

    ``trace`` names a JSONL(.gz) file to write the batch's event streams
    to; see the module docstring for determinism and cache semantics.

    Resilience (see module docstring):

    on_error : ``"raise"`` (default) propagates the first failure --
        unchanged from the worker when no resilience was asked for,
        :class:`BatchExecutionError` otherwise.
        ``"capture"`` returns :class:`FailedResult` rows in-place.
    timeout : per-scenario wall-clock budget in seconds; expiry kills the
        worker and classifies the run ``"timeout"``.
    retries : extra attempts for *transient* failures (timeout /
        worker-lost) with ``retry_backoff_s * 2**attempt`` backoff.
        Deterministic Python exceptions never retry.
    """
    jobs = _validate_jobs(jobs)
    if on_error not in ("raise", "capture"):
        raise ValueError(f"on_error must be 'raise' or 'capture', "
                         f"got {on_error!r}")

    keyed = isinstance(configs, Mapping)
    names = list(configs.keys()) if keyed else None
    cfgs = list(configs.values()) if keyed else list(configs)
    store = _resolve_cache(cache)
    worker = _run_traced if trace is not None else _run_detached
    resilient = on_error == "capture" or timeout is not None or retries > 0

    results: list[Any] = [None] * len(cfgs)
    misses: list[int] = []
    keys: list[str | None] = []
    for i, cfg in enumerate(cfgs):
        key = config_key(cfg) if store is not None else None
        keys.append(key)
        hit = (store.get(key, expect=ScenarioResult)
               if key is not None else None)
        if hit is not None:
            results[i] = hit
        else:
            misses.append(i)

    # One scenario is not a sweep: a single-config call must not draw a
    # line of its own.
    progress = SweepProgress(len(cfgs), cached=len(cfgs) - len(misses),
                             enabled=None if len(cfgs) > 1 else False)

    def _land(i: int, res: Any) -> None:
        """Keep, cache and count one result as it arrives."""
        nonlocal store
        results[i] = res
        store = _cache_put(store, keys[i], res)
        progress.update(failed=isinstance(res, FailedResult))

    try:
        run_supervised(((i, cfgs[i]) for i in misses), worker, jobs=jobs,
                       timeout=timeout, retries=retries,
                       retry_backoff_s=retry_backoff_s, capture=resilient,
                       on_result=_land)
    finally:
        progress.finish()

    if trace is not None:
        run_entries = []
        for i, (cfg, res) in enumerate(zip(cfgs, results)):
            label = str(names[i]) if keyed else str(i)
            cached = i not in misses
            failed = isinstance(res, FailedResult)
            run_entries.append({
                "run": label, "cached": cached,
                "events": (None if cached or failed
                           else getattr(res, "trace", None)),
                "meta": _trace_meta(cfg, res),
            })
        write_trace(trace, run_entries)

    if on_error == "raise":
        for res in results:
            if isinstance(res, FailedResult):
                raise BatchExecutionError(res)

    if keyed:
        return dict(zip(names, results))
    return results
