"""Shared campaign directory: manifest, cell results, claims, journals.

The store is the only coordination channel between campaign workers --
N processes (or N hosts on a shared filesystem) operate on one directory
with no sockets, no broker and no leader::

    <dir>/manifest.json          campaign identity: spec + ordered cell list
    <dir>/cells/<key>.pkl        one finished result per cell
    <dir>/claims/<key>.json      lease held by the worker running the cell
    <dir>/journal/<worker>.pkl   per-worker completion journal (SweepJournal)

``<key>`` is the cell config's :func:`~repro.runner.hashing.config_key`,
the name a results cache stores the same result under, so a cell file and
a cache entry for one configuration are interchangeable.

Every file replaced here goes through
:func:`~repro.runner.cache.atomic_write` (a failure raises: a cell that
cannot be stored must not look finished) and a cell is read through
:func:`~repro.runner.cache.read_pickle` (missing, torn or foreign reads as
"not done").  The store holds the protocol, not
the views: :meth:`CampaignStore.aggregator` builds the campaign's one fold
for a directory, and :func:`repro.obs.live.watch_snapshot` alone reads
claims and journals for display: a worker's liveness is its lease, its
counts are its journal.

A journal frame is ``(key, "ok" | FailedResult.kind)``, ~50 bytes per cell
this worker *executed*, flushed as it lands: the zero-duplicate witness
(:meth:`CampaignStore.journal_counts`), not a second copy of the results --
those live in ``cells/`` only, and healing re-runs a torn cell, it never
reads a journal.  Older directories' journals carry whole results; they
still load and count.

Claim protocol (work stealing)
------------------------------
A worker claims a cell by hard-linking a fully-written lease into
``claims/<key>.json`` -- the filesystem arbitrates, exactly one creator
wins, and the claim file is born complete (never observable half-written).
The claim carries a lease deadline; a worker that dies mid-cell leaves it
to run out, and once the lease expires any other worker *steals* the
cell by atomically replacing the claim file (``os.replace`` of a fresh
lease).  Two live workers can therefore never run the same cell; a steal
race against a not-quite-dead worker is possible in theory but harmless in
practice because every cell is deterministic and results are written
atomically -- the two writers produce identical bytes.

Results are idempotent: a finished cell is never re-executed (workers
check ``done`` before claiming), and corrupt/torn files read as "not done"
and re-run.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import pickle
import socket
import tempfile
import time

from ..experiments.common import ScenarioResult
from ..runner.cache import atomic_write, read_pickle
from ..runner.checkpoint import SweepJournal
from ..runner.failures import FailedResult
from .aggregate import Aggregator
from .spec import Campaign

__all__ = ["CampaignStore", "DEFAULT_LEASE_S"]

#: Default claim lease in seconds; generous because a lease only has to
#: outlive one *cell*, and expiry merely delays stealing, never loses work.
DEFAULT_LEASE_S = 300.0

_RESULT_TYPES = (ScenarioResult, FailedResult)
_JOURNAL_TYPES = (str, *_RESULT_TYPES)  # outcome, or an older dir's result


class CampaignStore:
    """Filesystem-backed state of one campaign run (see module docstring).

    ``worker`` names this process in claims and its journal file; it only
    needs to be unique among *concurrently live* workers.
    """

    def __init__(self, root: str | os.PathLike, *, worker: str | None = None,
                 lease_s: float = DEFAULT_LEASE_S):
        self.root = pathlib.Path(root)
        self._host = socket.gethostname()
        self.worker = worker or f"{self._host}-{os.getpid()}"
        if not 0 < lease_s < math.inf:     # also refuses NaN
            raise ValueError(
                f"lease_s must be positive and finite, got {lease_s!r}")
        self.lease_s = float(lease_s)
        self.cells_dir = self.root / "cells"
        self.claims_dir = self.root / "claims"
        self.journal_dir = self.root / "journal"
        self.manifest_path = self.root / "manifest.json"
        self._journal: SweepJournal | None = None

    # -- manifest ----------------------------------------------------------
    def init(self, campaign: Campaign) -> None:
        """Create (or verify) the campaign manifest.

        First caller writes it atomically; later callers -- resumes, extra
        workers -- must present a campaign expanding to the *identical*
        ordered cell list, otherwise the directory belongs to a different
        campaign and mixing them would corrupt both.
        """
        cells = [{"key": c.key, "label": c.label} for c in campaign.cells()]
        existing = self.read_manifest()
        if existing is not None:
            if existing.get("cells") != cells:
                raise ValueError(
                    f"campaign directory {self.root} already holds campaign "
                    f"{existing.get('name')!r} with a different cell set; "
                    f"use a fresh directory")
            return
        manifest = {
            "version": 1,
            "name": campaign.name,
            "spec": campaign.to_mapping(),
            "cells": cells,
        }
        atomic_write(self.manifest_path,
                     json.dumps(manifest, indent=1).encode())
        for d in (self.cells_dir, self.claims_dir, self.journal_dir):
            d.mkdir(parents=True, exist_ok=True)

    def read_manifest(self) -> dict | None:
        try:
            with open(self.manifest_path) as fh:
                return json.load(fh)
        except OSError:
            return None
        except ValueError as exc:
            raise ValueError(f"corrupt campaign manifest "
                             f"{self.manifest_path}: {exc}") from exc

    def manifest(self) -> dict:
        """The manifest of a directory that must hold a campaign."""
        manifest = self.read_manifest()
        if manifest is None:
            raise FileNotFoundError(
                f"no campaign manifest in {self.root}; start one with "
                f"'repro campaign run SPEC --dir {self.root}'")
        return manifest

    def aggregator(self, *, metrics=None) -> Aggregator:
        """An empty fold over this directory's cells (``poll`` it with
        this store): the stored spec re-expanded, else -- a campaign built
        from rows -- the manifest's labels with no seeds and no axes."""
        manifest = self.manifest()
        spec = manifest.get("spec")
        if spec is not None:
            return Aggregator.of(Campaign.from_mapping(spec), metrics=metrics)
        return Aggregator(manifest.get("name"),
                          [(c["key"], c["label"], None, {})
                           for c in manifest["cells"]], metrics=metrics)

    # -- results -----------------------------------------------------------
    def cell_path(self, key: str) -> pathlib.Path:
        return self.cells_dir / f"{key}.pkl"

    def store_cell(self, key: str, result: ScenarioResult | FailedResult
                   ) -> None:
        """Persist one finished cell (atomic; idempotent by construction)."""
        atomic_write(self.cell_path(key),
                     pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))

    def load_cell(self, key: str) -> ScenarioResult | FailedResult | None:
        """The stored result for ``key``, or None when missing/torn."""
        return read_pickle(self.cell_path(key), _RESULT_TYPES)

    def done_keys(self) -> set[str]:
        """Keys with a stored result file (existence check only -- cheap
        enough to poll; torn files are caught at load time)."""
        try:
            names = os.listdir(self.cells_dir)
        except OSError:
            return set()
        return {n[:-4] for n in names if n.endswith(".pkl")}

    # -- claims (work stealing) -------------------------------------------
    def claim_path(self, key: str) -> pathlib.Path:
        return self.claims_dir / f"{key}.json"

    def _lease_payload(self, generation: int) -> bytes:
        now = time.time()
        return json.dumps({
            "worker": self.worker, "pid": os.getpid(),
            "host": self._host,
            "claimed_at": now, "expires_at": now + self.lease_s,
            "generation": generation,
        }).encode()

    def claimed_keys(self) -> set[str]:
        """Keys with a claim file (one ``listdir``; a lease's tmp file is
        not a claim)."""
        try:
            names = os.listdir(self.claims_dir)
        except OSError:
            return set()
        return {n[:-5] for n in names if n.endswith(".json")}

    def read_claim(self, key: str) -> dict | None:
        """The current claim for ``key``; a corrupt/torn claim file reads
        as an *expired* claim (stealable), never as a crash."""
        try:
            with open(self.claim_path(key)) as fh:
                claim = json.load(fh)
        except OSError:
            return None
        except ValueError:
            return {"worker": "?", "expires_at": 0.0, "generation": 0}
        if not isinstance(claim, dict):
            return {"worker": "?", "expires_at": 0.0, "generation": 0}
        return claim

    def try_claim(self, key: str) -> bool:
        """Attempt to claim ``key``; True when this worker now holds the
        lease.

        The lease payload is written to a private tmp file first and then
        hard-linked into place -- ``os.link`` fails with ``FileExistsError``
        when another worker won, and a winner's claim file is *born
        complete* (create-then-write would expose a momentarily-empty
        claim that a concurrent reader misreads as corrupt/expired and
        steals).  An expired lease is stolen with an atomic replace, so at
        most one stealer's lease survives.
        """
        path = self.claim_path(key)
        self.claims_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.claims_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(self._lease_payload(generation=1))
            try:
                os.link(tmp, path)
                return True
            except FileExistsError:
                pass
            claim = self.read_claim(key)
            if claim is None:
                # Claim vanished between the link attempt and the read
                # (holder finished and released); the cell is either done
                # or claimable on the next pass.
                return False
            if claim.get("worker") == self.worker:
                return True
            expires = claim.get("expires_at")
            if isinstance(expires, (int, float)) and time.time() < expires:
                return False  # live lease held elsewhere
            generation = claim.get("generation")
            generation = generation + 1 if isinstance(generation, int) else 1
            with open(tmp, "wb") as fh:
                fh.write(self._lease_payload(generation))
            os.replace(tmp, path)
            tmp = None
            return True
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def release_claim(self, key: str) -> None:
        """Drop the claim (after the result is stored, or on interrupt so
        another worker can take over immediately)."""
        try:
            os.unlink(self.claim_path(key))
        except OSError:
            pass

    # -- per-worker journal ------------------------------------------------
    def journal(self) -> SweepJournal:
        """This worker's completion journal (successes *and* deterministic
        failures -- a campaign needs both to know a cell is settled)."""
        if self._journal is None:
            self._journal = SweepJournal(
                self.journal_dir / f"{self.worker}.pkl",
                expect=_JOURNAL_TYPES)
        return self._journal

    def journals(self) -> dict[str, dict[str, str]]:
        """Every worker journal, read once: ``{worker: {key: outcome}}``
        with outcome ``"ok"`` or the failure kind (an older directory's
        whole result reads as the outcome it records)."""
        out: dict[str, dict[str, str]] = {}
        try:
            names = sorted(os.listdir(self.journal_dir))
        except OSError:
            return out
        for name in names:
            if not name.endswith(".pkl"):
                continue
            frames = SweepJournal(self.journal_dir / name,
                                  expect=_JOURNAL_TYPES).load()
            out[name[:-4]] = {
                key: (v if isinstance(v, str)
                      else getattr(v, "kind", "ok"))
                for key, v in frames.items()}
        return out

    def journal_counts(self) -> dict[str, int]:
        """Completion count per worker journal -- the zero-duplicate
        witness: across all journals, every key appears exactly once."""
        return {w: len(frames) for w, frames in self.journals().items()}

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None
