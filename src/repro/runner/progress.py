"""Sweep-level live progress reporting.

A table-regenerating sweep can be hundreds of scenario runs; with the
cache cold that is minutes of silence.  :class:`SweepProgress` maintains a
single carriage-return-overwritten status line on stderr::

    sweep: 37/120 done (3 cached, 1 failed)  elapsed 12.4s  eta 27.8s

Design constraints:

* **stdout stays clean** -- benches pipe their tables; progress goes to
  stderr only.
* **off when not a terminal** -- drawn when stderr is a TTY, unless the
  caller passes ``enabled=`` (``run_campaign`` passes its ``progress``);
  a disabled instance is a near-free no-op so
  :func:`~repro.runner.run_batch` always threads one through.
* **throttled** -- redraws at most every ``min_interval_s`` of wall time
  (plus always the first and last), so thousand-run cache-hot sweeps do
  not spend their time painting.
* ETA is computed over *fresh* completions only; cache hits land in one
  burst before execution starts and would poison the rate estimate.
"""

from __future__ import annotations

import sys
import time

__all__ = ["SweepProgress", "progress_enabled"]


def progress_enabled(stream) -> bool:
    """Whether to draw on ``stream`` by default: it is a terminal."""
    try:
        return bool(stream.isatty())
    except (AttributeError, ValueError):
        return False


class SweepProgress:
    """One live status line for a batch of ``total`` scenarios."""

    def __init__(self, total: int, *, cached: int = 0, stream=None,
                 enabled: bool | None = None,
                 min_interval_s: float = 0.1) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.enabled = (progress_enabled(self.stream) if enabled is None
                        else enabled)
        self.total = total
        self.cached = cached
        self.fresh_done = 0
        self.failed = 0
        self.min_interval_s = min_interval_s
        self._t0 = time.monotonic()
        self._last_draw = 0.0
        self._width = 0
        if self.enabled and total:
            self._draw(force=True)

    # ------------------------------------------------------------------
    @property
    def done(self) -> int:
        return self.cached + self.fresh_done

    def update(self, *, failed: bool = False) -> None:
        """Record one fresh completion (thread-safe enough: called only
        from the coordinating process, never from workers)."""
        self.fresh_done += 1
        if failed:
            self.failed += 1
        if self.enabled:
            self._draw(force=self.done >= self.total)

    def finish(self) -> None:
        """Final redraw plus newline so later output starts clean."""
        if self.enabled and self.total:
            self._draw(force=True)
            self.stream.write("\n")
            self.stream.flush()

    # ------------------------------------------------------------------
    def _eta_s(self) -> float | None:
        remaining = self.total - self.done
        if remaining <= 0 or self.fresh_done == 0:
            return None
        rate = self.fresh_done / max(time.monotonic() - self._t0, 1e-9)
        return remaining / rate

    def _draw(self, *, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_draw < self.min_interval_s:
            return
        self._last_draw = now
        parts = [f"sweep: {self.done}/{self.total} done"]
        detail = []
        if self.cached:
            detail.append(f"{self.cached} cached")
        if self.failed:
            detail.append(f"{self.failed} failed")
        if detail:
            parts.append(f"({', '.join(detail)})")
        parts.append(f"elapsed {now - self._t0:.1f}s")
        eta = self._eta_s()
        if eta is not None:
            parts.append(f"eta {eta:.1f}s")
        line = "  ".join(parts)
        pad = max(self._width - len(line), 0)
        self._width = len(line)
        try:
            self.stream.write("\r" + line + " " * pad)
            self.stream.flush()
        except (OSError, ValueError):
            self.enabled = False  # closed/broken stream: go quiet
