"""The campaign outcome journal: an append-only log of pickle frames.

Each campaign worker keeps one under ``<campaign dir>/journal/`` and
appends ``(cell key, "ok" | failure kind)`` as a cell finishes
(:mod:`repro.campaign.store`); the results themselves live in the
directory's ``cells/``.  ``status`` counts the frames per worker, and the
zero-duplicate-execution tests read the same numbers.

Design
------
* **Append-only pickle frames** ``("v1", key, payload)``: one frame per
  completion, flushed per write.  A crash mid-write leaves a torn tail,
  which :meth:`SweepJournal.load` detects and truncates away -- every
  frame before the tear is still good.
* **Typed payloads**: a frame whose payload is not one of the ``expect``
  types ends the replay like a tear does, so a foreign or damaged file
  contributes nothing past that point.
"""

from __future__ import annotations

import os
import pathlib
import pickle

from ..experiments.common import ScenarioResult

__all__ = ["SweepJournal"]

_MAGIC = "v1"


class SweepJournal:
    """Append-only journal of ``(key, payload)`` completions.

    ``expect`` names the type(s) a frame's payload may have.  The campaign
    layer journals a cell's *outcome*, not its result -- ``"ok"`` or the
    failure kind -- and passes ``expect=(str, ScenarioResult,
    FailedResult)``: the result types only so that journals written with
    whole results (before PR 15) still replay.
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
