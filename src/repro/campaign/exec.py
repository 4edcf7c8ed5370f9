"""Campaign execution: in-memory fan-out or work-stealing over a directory.

Two modes, one entry point (:func:`run_campaign`):

* **In-memory** (``dir=None``): the whole expansion goes through
  :func:`~repro.runner.run_batch` with failure capture -- fine for small
  grids inside one process.
* **Work-stealing** (``dir=PATH``): the campaign directory
  (:class:`~repro.campaign.store.CampaignStore`) is the only coordination
  channel.  One claimer (:func:`worker_loop`) walks the
  (identically-ordered) cell list, skips finished cells, claims one with
  ``O_CREAT|O_EXCL`` whenever the runner's pool has a free slot, and runs
  it there under failure capture (timeout / retries); as a cell lands it
  is pickled once and those bytes stored atomically (and memoised in the
  results cache, when one is on), its outcome journaled and its claim
  released.  ``workers=N`` is N cells in flight, each in a
  worker process of that one pool; running the same command on other
  hosts sharing the filesystem adds claimers the same way.  A killed
  campaign process leaves expiring leases; once they expire any claimer
  (another still passing over the cells, or a later ``resume``) steals
  the cells and the campaign finishes anyway.  Interrupt with SIGINT and
  ``resume`` later: the cells that were running store nothing and are
  released, finished cells are never re-executed, so the completed report
  is byte-identical to an uninterrupted run.

Determinism: every cell derives all randomness from its own seed, so the
result set is bit-identical for any worker count, any interleaving, and
any interrupt/resume history.
"""

from __future__ import annotations

import os
import pickle
import time
from collections.abc import Mapping

from ..experiments.common import ScenarioConfig, ScenarioResult
from ..runner.failures import BatchExecutionError, FailedResult
from ..runner.pool import _cache_put, _resolve_cache, _run_detached, run_batch
from ..runner.progress import SweepProgress
from ..runner.supervisor import run_supervised
from .aggregate import CampaignReport, aggregate
from .spec import Campaign, CampaignCell
from .store import DEFAULT_LEASE_S, RESULT_TYPES, CampaignStore

__all__ = ["run_campaign", "run_rows", "CampaignRun", "worker_loop"]


class CampaignRun:
    """Outcome of one :func:`run_campaign` call.

    ``results_by_key`` maps cell key to :class:`ScenarioResult` /
    :class:`FailedResult` (missing keys = interrupted before completion;
    detached in memory for cells this call ran, unpickled for the rest);
    ``results`` re-keys by cell label in expansion order; ``report()``
    aggregates (see :mod:`.aggregate`).
    """

    def __init__(self, campaign: Campaign,
                 results_by_key: dict[str, ScenarioResult | FailedResult]):
        self.campaign = campaign
        self.cells = campaign.cells()
        self.results_by_key = results_by_key

    @property
    def results(self) -> dict[str, ScenarioResult | FailedResult]:
        return {c.label: self.results_by_key[c.key]
                for c in self.cells if c.key in self.results_by_key}

    @property
    def incomplete(self) -> tuple[CampaignCell, ...]:
        """Cells without a stored result (only after an interrupt)."""
        return tuple(c for c in self.cells
                     if c.key not in self.results_by_key)

    @property
    def complete(self) -> bool:
        return not self.incomplete

    def report(self, *, metrics=None) -> CampaignReport:
        return aggregate(self.campaign, self.results_by_key,
                         metrics=metrics)


def worker_loop(store: CampaignStore,
                cells: "list[tuple[str, str, ScenarioConfig]]", *,
                jobs: int = 1, cache=None, timeout: float | None = None,
                retries: int = 0, on_cell=None) -> int:
    """This process's pass over the campaign: claim, run, store, release.

    ``cells`` is the shared ordered list of ``(key, label, config)``.  One
    claimer feeds :func:`~repro.runner.supervisor.run_supervised`, up to
    ``jobs`` cells in flight: a cell is claimed only when a slot is free,
    a ``cache`` hit lands without being dispatched, and each cell that
    lands is pickled once, stored (a fresh one memoised in ``cache`` from
    the same bytes), journaled and released.  Returns the number of cells
    this call settled.  ``KeyboardInterrupt`` propagates once every claim
    still held is released: the running cells store nothing.

    The claim is the worker's liveness and its journal its counts: what
    :func:`repro.obs.live.watch_snapshot` shows of a worker comes from
    those two files, so the loop writes nothing else.
    """
    cache = memo = _resolve_cache(cache)  # memo: None once unwritable
    held: set[str] = set()  # cell keys this call has claimed
    executed = 0

    def land(i: int, res, fresh: bool = True) -> None:
        nonlocal executed, memo
        key, label, _ = cells[i]
        payload = pickle.dumps(res, protocol=pickle.HIGHEST_PROTOCOL)
        store.cells.put(key, res, payload)
        if fresh:
            memo = _cache_put(memo, key, res, payload)
        try:
            store.record(key, res.kind if isinstance(
                res, FailedResult) else "ok")
        except OSError:
            pass
        store.release_claim(key)
        held.discard(key)
        executed += 1
        if on_cell is not None:
            on_cell(key, label, res)

    def claimed():
        # Pass until every cell is done, held here or leased to another
        # live claimer (try_claim steals expired leases); that holder, or
        # a later resume if it dies, finishes the cell.
        while True:
            progressed = False
            retry = False  # a claim vanished or expired: claimable next pass
            done = store.cells.keys()
            for i, (key, _, cfg) in enumerate(cells):
                if key in done or key in held:
                    continue
                if not store.try_claim(key):
                    expires = (store.read_claim(key) or {}).get("expires_at")
                    retry |= (not (isinstance(expires, (int, float))
                                   and time.time() < expires)
                              and store.cells.get(key, RESULT_TYPES) is None)
                    continue
                held.add(key)
                if store.cells.get(key, RESULT_TYPES) is not None:
                    store.release_claim(key)
                    held.discard(key)
                    continue
                progressed = True
                hit = (cache.get(key, expect=ScenarioResult)
                       if cache is not None else None)
                if hit is not None:
                    land(i, hit, fresh=False)
                else:
                    yield i, cfg
            if not (progressed or retry):
                return

    try:
        run_supervised(claimed(), _run_detached, jobs=jobs, timeout=timeout,
                       retries=retries, on_result=land)
    finally:
        for key in held:
            store.release_claim(key)
        store.close()
    return executed


def _load_results(store: CampaignStore, cells, results: dict) -> list:
    """Load into ``results`` every stored cell it does not hold yet;
    returns the results this call loaded.  Only cells with a result file
    are opened, so a poll over a mostly unfinished campaign stays cheap."""
    done = store.cells.keys()
    loaded = []
    for cell in cells:
        if cell.key in done and cell.key not in results:
            res = store.cells.get(cell.key, RESULT_TYPES)
            if res is not None:
                results[cell.key] = res
                loaded.append(res)
    return loaded


def _collect_and_heal(store: CampaignStore, campaign: Campaign, cells,
                      results: dict, *, cache, timeout: float | None,
                      retries: int) -> CampaignRun:
    """Complete the final result set, re-running any torn cell files.

    ``results`` is what this call already holds -- the preload and the
    cells its claimer settled -- so only the rest (cells other claimers
    stored) is read from disk: no cell is unpickled twice, none this
    process wrote.

    Workers skip cells on file *existence* (``cells.keys()`` -- cheap enough
    to poll every pass), so a cell whose result file exists but does not
    unpickle (torn write, disk hiccup) would otherwise stay pending
    forever.  Rare by construction (results are written atomically), so
    healing is a separate inline pass rather than a per-pass unpickle of
    every finished cell.
    """
    _load_results(store, cells, results)
    torn = [c for c in cells if c.key not in results
            and store.cells.path_for(c.key).exists()]
    if torn:
        for c in torn:
            try:
                os.unlink(store.cells.path_for(c.key))
            except OSError:
                pass
        worker_loop(store, [(c.key, c.label, c.config) for c in torn],
                    cache=cache, timeout=timeout, retries=retries)
        _load_results(store, torn, results)
    return CampaignRun(campaign, results)


def run_campaign(campaign, *, dir: "str | os.PathLike | None" = None,
                 workers: int = 1, cache=None,
                 timeout: float | None = None, retries: int = 0,
                 lease_s: float = DEFAULT_LEASE_S,
                 progress: bool | None = None) -> CampaignRun:
    """Execute a campaign; returns a :class:`CampaignRun`.

    ``campaign`` is a :class:`~repro.campaign.Campaign`, a spec mapping or
    a spec-file path (anything :func:`~repro.campaign.load_campaign`
    takes).  With ``dir=None`` the expansion runs in-memory through
    ``run_batch`` (``workers`` = its ``jobs``).  With a directory, state
    lives on disk: one claimer keeps up to ``workers`` cells in flight,
    each in a worker process (in this one for ``workers=1`` without a
    ``timeout``), the run survives SIGINT (re-invoke with the same
    directory to resume) and other hosts pointing at the same directory
    join the same campaign.  Failures are always captured as
    :class:`FailedResult` cells -- inspect ``run.report()``.
    """
    from .spec import load_campaign
    campaign = load_campaign(campaign)
    cells = campaign.cells()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")

    if dir is None:
        batch = run_batch({c.key: c.config for c in cells}, jobs=workers,
                          cache=cache, on_error="capture", timeout=timeout,
                          retries=retries)
        return CampaignRun(campaign, dict(batch))

    store = CampaignStore(dir, lease_s=lease_s)
    store.init(campaign)
    results: dict = {}
    already = len(_load_results(store, cells, results))  # count *and* collect
    bar = SweepProgress(len(cells), cached=already, enabled=progress)

    def on_cell(key, label, res):
        results[key] = res  # own cells are kept, never read back
        bar.update(failed=isinstance(res, FailedResult))
    try:
        worker_loop(store, [(c.key, c.label, c.config) for c in cells],
                    jobs=workers, cache=cache, timeout=timeout,
                    retries=retries, on_cell=on_cell)
    finally:
        bar.finish()
    return _collect_and_heal(store, campaign, cells, results, cache=cache,
                             timeout=timeout, retries=retries)


def run_rows(rows, *, name: str, dir: "str | os.PathLike | None" = None,
             jobs: int = 1, cache=None, trace: str | None = None):
    """Run an experiment's keyed scenario rows through the campaign layer.

    This is the bridge the table/dynamics benches call: with ``dir=None``
    it is exactly the historical ``run_batch(rows, ...)`` (legacy error
    propagation, tracing, bit-identical output); with a campaign directory
    the same rows inherit claim/resume semantics -- interrupt the bench,
    re-run the same command, and only missing rows execute.

    Returns results keyed like ``rows``: a dict for a mapping, a list in
    row order for any other iterable.  An incomplete campaign-backed
    run (interrupt before every row finished) raises ``KeyboardInterrupt``
    after persisting what completed; a failed row raises
    :class:`BatchExecutionError` exactly like ``on_error="raise"``.
    """
    if dir is None:
        return run_batch(rows, jobs=jobs, cache=cache, trace=trace)
    if trace is not None:
        raise ValueError(
            "trace capture is per-process and cannot compose with a shared "
            "campaign directory; drop --campaign-dir or --trace")
    campaign = Campaign.from_scenarios(rows, name=name)
    run = run_campaign(campaign, dir=dir, workers=jobs, cache=cache)
    if run.incomplete:
        raise KeyboardInterrupt
    results = []
    for cell in campaign.cells():
        res = run.results_by_key[cell.key]
        if isinstance(res, FailedResult):
            raise BatchExecutionError(res)
        results.append(res)
    return dict(zip(rows, results)) if isinstance(rows, Mapping) else results
