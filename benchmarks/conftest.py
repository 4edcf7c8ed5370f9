"""Shared infrastructure for the table/figure benches.

Each bench regenerates one artifact from the paper's evaluation section,
prints a paper-vs-measured block, writes it under ``benchmarks/results/``
and asserts the robust parts of the expected *shape* (who wins; large
factors).  Absolute numbers are not compared -- our substrate is a
simulator, not the authors' 2002 Emulab testbed (see EXPERIMENTS.md).

Expensive experiment runs are memoised twice over: a per-session dict (so
e.g. the Figure 4 bench reuses the Table 6 sweep within one pytest run)
backed by the persistent on-disk cache in :mod:`repro.runner` (so a rerun
with unchanged code and parameters is a cache hit across sessions).  Set
``REPRO_NO_CACHE=1`` to force fresh runs, ``REPRO_CACHE_DIR`` to relocate
the cache (default ``~/.cache/repro-iq-rudp``).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.runner import memo

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_cache: dict[str, object] = {}


def cached(key: str, fn):
    """Memoise an experiment run for the session *and* across sessions.

    The persistent layer keys on ``key`` plus a digest of the ``repro``
    sources, so editing any simulator code invalidates stored results.
    """
    if key not in _cache:
        _cache[key] = memo(key, fn)
    return _cache[key]


@pytest.fixture()
def report():
    """Returns a writer: report(name, text) prints and persists a block."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)

    def _write(name: str, text: str) -> None:
        print("\n" + text)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _write

