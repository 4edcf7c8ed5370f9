"""Shared infrastructure for the table/figure benches.

Each bench regenerates one artifact from the paper's evaluation section,
prints a paper-vs-measured block, writes it under ``benchmarks/results/``
and asserts the robust parts of the expected *shape* (who wins; large
factors).  Absolute numbers are not compared -- our substrate is a
simulator, not the authors' 2002 Emulab testbed (see EXPERIMENTS.md).

Every scenario a bench runs goes through :mod:`repro.runner`, which stores
each result once, under its configuration's key, in the persistent cache
(so a rerun with unchanged code and parameters is a cache hit across
sessions).  On top of that sits only a per-session dict, :func:`cached`,
so e.g. the Figure 4 bench reuses the Table 6 sweep within one pytest run.
Set ``REPRO_NO_CACHE=1`` to force fresh runs, ``REPRO_CACHE_DIR`` to
relocate the cache (default ``~/.cache/repro-iq-rudp``).
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_cache: dict[str, object] = {}


def cached(key: str, fn):
    """Memoise an experiment run for the session (across sessions each
    scenario is a results-cache hit)."""
    if key not in _cache:
        _cache[key] = fn()
    return _cache[key]


@pytest.fixture()
def report():
    """Returns a writer: report(name, text) prints and persists a block."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)

    def _write(name: str, text: str) -> None:
        print("\n" + text)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _write

