"""Campaign execution: in-memory fan-out or work-stealing over a directory.

Two modes, one entry point (:func:`run_campaign`):

* **In-memory** (``dir=None``): the whole expansion goes through
  :func:`~repro.runner.run_batch` with failure capture -- fine for small
  grids inside one process.
* **Work-stealing** (``dir=PATH``): the campaign directory
  (:class:`~repro.campaign.store.CampaignStore`) is the only coordination
  channel.  Each worker loops over the (identically-ordered) cell list,
  skips finished cells, claims one with ``O_CREAT|O_EXCL``, executes it
  under the resilient runner (capture / timeout / retries), stores the
  result atomically (one pickle, one write), journals the outcome and
  releases the claim.  The caller keeps what its own worker produced and
  loads every other finished cell once.  ``workers=N`` forks N child
  processes over the same directory; running the same command on other
  hosts sharing the filesystem adds workers the same way.  A killed worker
  leaves an expiring lease; once it expires any worker (a survivor still
  passing over the cells, or a later ``resume``) steals the cell and the
  campaign finishes anyway.  Interrupt with SIGINT and ``resume`` later:
  finished cells are
  never re-executed, so the completed report is byte-identical to an
  uninterrupted run.

Determinism: every cell derives all randomness from its own seed, so the
result set is bit-identical for any worker count, any interleaving, and
any interrupt/resume history.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time

from ..experiments.common import ScenarioConfig, ScenarioResult
from ..obs.live import HeartbeatWriter, heartbeat_enabled, read_heartbeats
from ..runner.failures import BatchExecutionError, FailedResult
from ..runner.pool import run_batch, run_one
from ..runner.progress import SweepProgress
from .aggregate import CampaignReport, aggregate
from .spec import Campaign, CampaignCell
from .store import DEFAULT_LEASE_S, CampaignStore

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


def _flight_note(res) -> "str | None":
    """The last flight-recorder event of a result, as ``layer:event`` --
    the one-line forensic breadcrumb a heartbeat carries."""
    dump = getattr(res, "flight", None)
    if isinstance(dump, dict):
        events = dump.get("events") or []
        tail = events[-1] if events else None
        if isinstance(tail, dict) and tail.get("event"):
            layer = tail.get("layer")
            return (f"{layer}:{tail['event']}" if layer
                    else str(tail["event"]))
    return None


def worker_loop(store: CampaignStore,
                cells: "list[tuple[str, str, ScenarioConfig]]", *,
                cache=None, timeout: float | None = None,
                retries: int = 0, on_cell=None,
                heartbeat: bool = True) -> int:
    """One worker's pass over the campaign: claim, run, store, release.

    ``cells`` is the shared ordered list of ``(key, label, config)``.
    Returns the number of cells this worker executed.  Raises
    ``KeyboardInterrupt`` through (after releasing the in-flight claim) so
    the caller can report resume instructions.

    With ``heartbeat=True`` (and ``REPRO_HEARTBEAT`` not ``0``) the worker
    maintains an atomic liveness file under the store's ``heartbeats/``
    directory -- claimed cell before each run, counters + the result's
    last flight-recorder note after (see :mod:`repro.obs.live`).
    """
    executed = 0
    journal = store.journal()
    hb = (HeartbeatWriter(store.heartbeat_dir, store.worker)
          if heartbeat and heartbeat_enabled() else None)
    try:
        # Loop until every cell is either done or leased to another live
        # worker.  An expired lease is stolen inside try_claim, so "live
        # lease elsewhere" is the only blocked state -- and that holder
        # (or a later resume, if it died) finishes the cell; waiting here
        # could outlive the holder's whole campaign, so we exit instead.
        while True:
            progressed = False
            retry = False    # claim vanished mid-pass: claimable next pass
            blocked = False  # live lease held by another worker
            done = store.done_keys()
            for key, label, cfg in cells:
                if key in done:
                    continue
                if not store.try_claim(key):
                    if store.load_cell(key) is not None:
                        continue
                    claim = store.read_claim(key)
                    expires = (claim or {}).get("expires_at")
                    if (isinstance(expires, (int, float))
                            and time.time() < expires):
                        blocked = True
                    else:
                        retry = True
                    continue
                if store.load_cell(key) is not None:
                    store.release_claim(key)
                    continue
                try:
                    if hb is not None:
                        hb.claim(label, key)
                    res = run_one(cfg, cache=cache, on_error="capture",
                                  timeout=timeout, retries=retries)
                    store.store_cell(key, res)
                    failed = isinstance(res, FailedResult)
                    try:
                        journal.append(key, res.kind if failed else "ok")
                    except OSError:
                        pass
                    executed += 1
                    progressed = True
                    if hb is not None:
                        hb.complete(failed=failed, note=_flight_note(res))
                    if on_cell is not None:
                        on_cell(key, label, res)
                finally:
                    store.release_claim(key)
            if hb is not None:
                hb.beat()  # stay live while blocked on others' leases
            if progressed or retry:
                continue
            break  # done, or the rest is in other workers' hands
    finally:
        if hb is not None:
            hb.close()
        store.close()
    return executed


def _raise_interrupt(signum, frame):
    raise KeyboardInterrupt


def _worker_main(root: str, worker: str, lease_s: float,
                 cells: "list[tuple[str, str, ScenarioConfig]]",
                 cache, timeout: float | None, retries: int) -> None:
    """Child-process entry point for ``workers=N`` fan-out."""
    os.environ["REPRO_PROGRESS"] = "0"  # parent owns the progress line
    # The parent's SIGINT handler terminate()s us with SIGTERM; default
    # SIGTERM disposition would kill the process without unwinding, leaking
    # the in-flight claim as a live lease that blocks the next resume.
    # Translating it into KeyboardInterrupt runs worker_loop's finally
    # (claim released, journal flushed) before exiting.
    signal.signal(signal.SIGTERM, _raise_interrupt)
    store = CampaignStore(root, worker=worker, lease_s=lease_s)
    try:
        worker_loop(store, cells, cache=cache, timeout=timeout,
                    retries=retries)
    except KeyboardInterrupt:
        pass


def _load_results(store: CampaignStore, cells, results: dict) -> dict:
    """Load into ``results`` every stored cell it does not hold yet."""
    for cell in cells:
        if cell.key not in results:
            res = store.load_cell(cell.key)
            if res is not None:
                results[cell.key] = res
    return results


def _collect_and_heal(store: CampaignStore, campaign: Campaign, cells,
                      results: dict, *, cache, timeout: float | None,
                      retries: int) -> CampaignRun:
    """Complete the final result set, re-running any torn cell files.

    ``results`` is what this call already holds -- the preload and, with
    one in-process worker, the cells it executed -- so only the rest is
    read from disk: no cell is unpickled twice, none this process wrote.

    Workers skip cells on file *existence* (``done_keys`` -- cheap enough
    to poll every pass), so a cell whose result file exists but does not
    unpickle (torn write, disk hiccup) would otherwise stay pending
    forever.  Rare by construction (results are written atomically), so
    healing is a separate inline pass rather than a per-pass unpickle of
    every finished cell.
    """
    _load_results(store, cells, results)
    torn = [c for c in cells if c.key not in results
            and os.path.exists(store.cell_path(c.key))]
    if torn:
        for c in torn:
            try:
                os.unlink(store.cell_path(c.key))
            except OSError:
                pass
        worker_loop(store, [(c.key, c.label, c.config) for c in torn],
                    cache=cache, timeout=timeout, retries=retries,
                    heartbeat=False)
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
    lives on disk: ``workers`` child processes split the cells via the
    claim/lease protocol, the run survives SIGINT (re-invoke with the same
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
    triples = [(c.key, c.label, c.config) for c in cells]
    results = _load_results(store, cells, {})  # the count *and* the collect
    already = len(results)

    if workers == 1:
        bar = SweepProgress(len(cells), cached=already, enabled=progress)

        def on_cell(key, label, res):
            results[key] = res  # own cells are kept, never read back
            bar.update(failed=isinstance(res, FailedResult))
        try:
            worker_loop(store, triples, cache=cache, timeout=timeout,
                        retries=retries, on_cell=on_cell)
        finally:
            bar.finish()
        return _collect_and_heal(store, campaign, cells, results,
                                 cache=cache, timeout=timeout,
                                 retries=retries)

    # Multi-process fan-out: children coordinate purely through the store;
    # the parent only paints progress and handles SIGINT.
    ctx = mp.get_context("spawn" if os.name == "nt" else "fork")
    procs = []
    for w in range(workers):
        p = ctx.Process(
            target=_worker_main,
            args=(os.fspath(dir), f"{store.worker}-w{w}", lease_s, triples,
                  cache, timeout, retries),
            daemon=False)
        p.start()
        procs.append(p)

    bar = SweepProgress(len(cells), cached=already, enabled=progress)
    seen = already
    try:
        while any(p.is_alive() for p in procs):
            done = len(store.done_keys() & {c.key for c in cells})
            while seen < done:
                bar.update()
                seen += 1
            # Failures live in the workers; their heartbeats are the only
            # live channel back, so the parent's line folds them in.
            bar.failed = _heartbeat_failed(store)
            time.sleep(0.05)
        for p in procs:
            p.join()
    except KeyboardInterrupt:
        for p in procs:
            p.terminate()
        for p in procs:
            p.join()
        raise
    finally:
        bar.finish()
    return _collect_and_heal(store, campaign, cells, results, cache=cache,
                             timeout=timeout, retries=retries)


def _heartbeat_failed(store: CampaignStore) -> int:
    return sum(hb.get("failed", 0) for hb in read_heartbeats(
        store.heartbeat_dir) if isinstance(hb.get("failed"), int))


def run_rows(rows, *, name: str, dir: "str | os.PathLike | None" = None,
             jobs: int = 1, cache=None, trace: str | None = None):
    """Run an experiment's keyed scenario rows through the campaign layer.

    This is the bridge the table/dynamics benches call: with ``dir=None``
    it is exactly the historical ``run_batch(rows, ...)`` (legacy error
    propagation, tracing, bit-identical output); with a campaign directory
    the same rows inherit claim/resume semantics -- interrupt the bench,
    re-run the same command, and only missing rows execute.

    Returns results keyed like ``rows``.  An incomplete campaign-backed
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
    cells = campaign.cells()
    run = run_campaign(campaign, dir=dir, workers=jobs, cache=cache)
    keys = list(rows.keys())
    missing = [c.label for c in run.incomplete]
    if missing:
        raise KeyboardInterrupt
    results = {}
    for orig_key, cell in zip(keys, cells):
        res = run.results_by_key[cell.key]
        if isinstance(res, FailedResult):
            raise BatchExecutionError(res)
        results[orig_key] = res
    return results
