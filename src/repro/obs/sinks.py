"""Trace sinks and the on-disk JSONL trace format.

File format (one JSON object per line, ``sort_keys`` so files are
byte-stable):

* line 1 -- ``{"type": "header", "format": "repro-trace", "version": 2,
  "runs": N}``; :func:`read_trace` refuses any other version by name
  (version 1 named an attribute exchange by its trace ``seq``, version 2
  by its ``episode``)
* per run, in batch order -- ``{"type": "run", "run": <label>,
  "cached": <bool>, "events": <count>, ...meta}`` followed by that run's
  event lines ``{"type": "event", "run": <label>, "seq": ..., "t": ...,
  "layer": ..., "event": ..., ...fields}``.

Cache-served runs carry ``"cached": true`` and zero event lines: the
persistent results cache stores metrics, not event streams, so a hit is
honest about what it can and cannot replay.

Determinism: events are written in per-run emission (``seq``) order and
runs in batch order, both independent of worker count; gzip output pins
``mtime=0`` so even the compressed bytes are reproducible.
"""

from __future__ import annotations

import gzip
import io
import json
import pathlib
from collections import deque
from typing import Any, Iterable

from .events import TraceEvent

__all__ = ["RingBufferSink", "write_trace", "read_trace", "event_obj"]

_FORMAT = "repro-trace"
_VERSION = 2


def _dumps(obj: dict[str, Any]) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def event_obj(ev: "TraceEvent | dict[str, Any]") -> dict[str, Any]:
    """Normalise an event (record or already-parsed dict) to a flat dict."""
    return ev.as_obj() if isinstance(ev, TraceEvent) else dict(ev)


class RingBufferSink:
    """In-memory sink; bounded when ``capacity`` is given (keeps the most
    recent events), unbounded otherwise.  The workers' collection sink and
    the tests' observation point."""

    def __init__(self, capacity: int | None = None):
        self.capacity = capacity
        self._buf: deque[TraceEvent] = deque(maxlen=capacity)
        self.appended = 0

    def append(self, ev: TraceEvent) -> None:
        self._buf.append(ev)
        self.appended += 1

    @property
    def events(self) -> list[TraceEvent]:
        return list(self._buf)

    def __len__(self) -> int:
        return len(self._buf)

    def __iter__(self):
        return iter(self._buf)

    def clear(self) -> None:
        self._buf.clear()


def _open_text(path: pathlib.Path, mode: str):
    """Text handle; transparent deterministic gzip for ``*.gz`` paths."""
    if str(path).endswith(".gz"):
        if "w" in mode:
            raw = open(path, "wb")
            gz = gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0)
            return io.TextIOWrapper(gz, encoding="utf-8", newline="\n")
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return open(path, mode, encoding="utf-8", newline="\n" if "w" in mode
                else None)


def write_trace(path: str | pathlib.Path,
                runs: Iterable[dict[str, Any]]) -> int:
    """Write a complete batch trace file; returns total events written.

    ``runs`` is an iterable of ``{"run": label, "cached": bool,
    "events": [TraceEvent|dict, ...], "meta": {...}}`` in batch order.
    """
    runs = list(runs)
    total = 0
    with _open_text(pathlib.Path(path), "wt") as fh:
        fh.write(_dumps({"type": "header", "format": _FORMAT,
                         "version": _VERSION, "runs": len(runs)}) + "\n")
        for entry in runs:
            label = str(entry["run"])
            events = [] if entry.get("cached") else list(
                entry.get("events") or ())
            head = {"type": "run", "run": label,
                    "cached": bool(entry.get("cached")),
                    "events": len(events)}
            head.update(entry.get("meta") or {})
            fh.write(_dumps(head) + "\n")
            for ev in events:
                obj = {"type": "event", "run": label}
                obj.update(event_obj(ev))
                fh.write(_dumps(obj) + "\n")
                total += 1
    return total


def read_trace(path: str | pathlib.Path
               ) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Parse a trace file into ``(header, runs)``.

    Each run is ``{"run": label, "cached": bool, "meta": {...},
    "events": [flat event dict, ...]}``.  Raises ``ValueError`` on files
    that are not repro traces, and its ``FormatError`` on a trace of
    another version.
    """
    runs: list[dict[str, Any]] = []
    with _open_text(pathlib.Path(path), "rt") as fh:
        header = json.loads(fh.readline() or "{}")
        if header.get("type") != "header" or header.get("format") != _FORMAT:
            raise ValueError(f"not a {_FORMAT} file: {path}")
        if header.get("version") != _VERSION:
            from ..runner.cache import FormatError
            raise FormatError(f"{path} is a {_FORMAT} file of version "
                              f"{header.get('version')}; this repro reads "
                              f"version {_VERSION} only (re-record it)")
        for line in fh:
            obj = json.loads(line)
            if obj.get("type") == "run":
                meta = {k: v for k, v in obj.items()
                        if k not in ("type", "run", "cached", "events")}
                runs.append({"run": obj["run"],
                             "cached": bool(obj.get("cached")),
                             "meta": meta, "events": []})
            elif runs and obj.get("run") == runs[-1]["run"]:
                runs[-1]["events"].append(
                    {k: v for k, v in obj.items() if k not in ("type", "run")})
            else:
                raise ValueError(f"event line outside its run in {path}")
    return header, runs
