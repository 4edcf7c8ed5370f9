"""Sweep checkpoint journal: resume an interrupted batch where it stopped.

``run_batch(..., checkpoint=PATH)`` appends each successfully completed
scenario -- keyed by its :func:`~repro.runner.hashing.config_key`, which
already mixes in the code salt -- to an append-only journal of pickle
frames.  A re-run of the same batch replays the journal first and only
executes the configs that are missing, so a sweep killed at scenario 700
of 1000 restarts at 701, byte-identical to an uninterrupted run.

Design
------
* **Append-only pickle frames** ``("v1", key, result)``: one frame per
  completed scenario, flushed per write.  A crash mid-write leaves a torn
  tail, which :meth:`SweepJournal.load` detects and truncates away -- every
  frame before the tear is still good.
* **Code-salted keys**: editing any ``repro`` source changes every key, so
  a stale journal silently contributes nothing (same invalidation rule as
  the results cache it composes with).
* **Failures are not journaled.** Only real :class:`ScenarioResult` values
  enter the journal; a failed/interrupted scenario re-runs on resume.
"""

from __future__ import annotations

import os
import pathlib
import pickle

from ..experiments.common import ScenarioResult

__all__ = ["SweepJournal"]

_MAGIC = "v1"


class SweepJournal:
    """Append-only journal of ``(config key, result)`` completions.

    ``expect`` names the type(s) a frame's payload may have; the default
    (:class:`ScenarioResult` only) preserves the sweep-checkpoint contract
    that failures are never journaled.  The campaign layer journals a
    cell's *outcome*, not its result -- ``"ok"`` or the failure kind -- and
    passes ``expect=(str, ScenarioResult, FailedResult)``: the result types
    only so that journals written with whole results still replay.
    """

    def __init__(self, path: str | os.PathLike, *,
                 expect: type | tuple[type, ...] = ScenarioResult):
        self.path = pathlib.Path(path)
        self.expect = expect
        self._fh = None

    # ------------------------------------------------------------------
    def load(self) -> dict[str, ScenarioResult]:
        """Replay the journal; returns ``{key: result}`` for every intact
        frame.  Detects a torn tail (crash mid-append) and truncates the
        file back to the last whole frame so subsequent appends are clean.
        Malformed or wrong-typed frames end the replay at that point."""
        done: dict[str, ScenarioResult] = {}
        try:
            fh = open(self.path, "rb")
        except OSError:
            return done
        with fh:
            good_end = 0
            while True:
                try:
                    frame = pickle.load(fh)
                except EOFError:
                    break
                except Exception:
                    break  # torn/corrupt tail: keep what replayed
                if (not isinstance(frame, tuple) or len(frame) != 3
                        or frame[0] != _MAGIC
                        or not isinstance(frame[1], str)
                        or not isinstance(frame[2], self.expect)):
                    break
                done[frame[1]] = frame[2]
                good_end = fh.tell()
            tail = os.fstat(fh.fileno()).st_size - good_end
        if tail > 0:
            with open(self.path, "ab") as out:
                out.truncate(good_end)
        return done

    # ------------------------------------------------------------------
    def append(self, key: str, result) -> None:
        """Record one completion (flushed immediately so a later kill
        cannot lose it)."""
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "ab")
        pickle.dump((_MAGIC, key, result), self._fh,
                    protocol=pickle.HIGHEST_PROTOCOL)
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
