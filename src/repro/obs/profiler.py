"""Deterministic self-profiler for the simulation engine.

Answers the ROADMAP question "where does engine time actually go?" without
ever touching the stock hot loop: like
:class:`~repro.invariants.engine.CheckedSimulator`, profiling swaps in a
:class:`Simulator` subclass whose ``run()`` attributes every dispatched
event to its callback (per-event-type counts plus wall-clock time), so
the unprofiled engine stays byte-identical and disarmed overhead is zero
by construction.

Two kinds of numbers come out, with very different contracts:

* **event counts** are a pure function of the scenario config (the event
  sequence is deterministic), so tests may assert on them exactly;
* **wall-clock attributions** (per-callback and the coarse setup/run/
  collect phase timers) are *advisory* -- they vary with host load and are
  deliberately excluded from cache keys, summaries and every determinism
  oracle.

``repro profile <scenario-args>`` renders both.
"""

from __future__ import annotations

from heapq import heappop
from time import perf_counter
from typing import Any

from ..analysis.tables import render_table
from ..sim.engine import SimulationError, Simulator, callback_label

__all__ = ["EngineProfile", "ProfiledSimulator", "profile_scenario",
           "render_profile"]


class EngineProfile:
    """Per-callback event counts and wall-time attribution for one run.

    ``event_counts``/``events_fired`` are config-deterministic;
    ``event_wall_s``/``phase_s`` are advisory wall-clock measurements.
    """

    def __init__(self) -> None:
        self.event_counts: dict[str, int] = {}
        self.event_wall_s: dict[str, float] = {}
        self.events_fired = 0
        self.phase_s: dict[str, float] = {}

    # ------------------------------------------------------------------
    def phase(self, name: str, seconds: float) -> None:
        """Record (accumulate) one coarse phase timer."""
        self.phase_s[name] = self.phase_s.get(name, 0.0) + seconds

    def counts(self) -> dict[str, int]:
        """Event counts keyed by callback label, sorted by key (the
        deterministic half -- safe to assert on)."""
        return {k: self.event_counts[k] for k in sorted(self.event_counts)}

    def total_wall_s(self) -> float:
        return sum(self.event_wall_s.values())

    def as_dict(self) -> dict[str, Any]:
        return {"events_fired": self.events_fired,
                "event_counts": self.counts(),
                "event_wall_s": {k: self.event_wall_s[k]
                                 for k in sorted(self.event_wall_s)},
                "phase_s": dict(self.phase_s)}


class ProfiledSimulator(Simulator):
    """Drop-in :class:`Simulator` whose run loop attributes every event.

    Scheduling, cancellation and compaction are inherited unchanged, so a
    profiled run fires the exact same event sequence as a stock one; the
    override only counts and times.
    """

    def __init__(self, profile: EngineProfile | None = None) -> None:
        super().__init__()
        self.profile = profile if profile is not None else EngineProfile()

    def run(self, until: float | None = None) -> int:
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        heap = self._heap
        pop = heappop
        fired = 0
        prof = self.profile
        counts = prof.event_counts
        walls = prof.event_wall_s
        clock = perf_counter
        try:
            while heap:
                entry = heap[0]
                ev = entry[3]
                if not ev._alive:
                    pop(heap)
                    self._dead -= 1
                    continue
                time = entry[0]
                if until is not None and time > until:
                    break
                pop(heap)
                self._now = time
                ev._alive = False
                label = callback_label(ev.fn)
                t0 = clock()
                ev.fn(*ev.args)
                walls[label] = walls.get(label, 0.0) + (clock() - t0)
                counts[label] = counts.get(label, 0) + 1
                fired += 1
        finally:
            self._running = False
        prof.events_fired += fired
        if until is not None and self._now < until:
            self._now = until
        return fired


def profile_scenario(cfg) -> "tuple[Any, EngineProfile]":
    """Run one scenario on a :class:`ProfiledSimulator`; returns
    ``(ScenarioResult, EngineProfile)``.

    Always runs fresh and in-process (a cached result has no events left
    to profile).  Mutually exclusive with armed invariants -- both
    features claim the engine run loop by subclassing.
    """
    from ..experiments.common import run_scenario
    profile = EngineProfile()
    res = run_scenario(cfg, profile=profile)
    return res, profile


def render_profile(profile: EngineProfile, *, top: int | None = 20) -> str:
    """Table of per-callback counts/wall time plus the phase timers.

    Rows are ordered by event count (descending, then label) -- a
    deterministic order -- with wall-time columns explicitly advisory.
    """
    total_wall = profile.total_wall_s()
    items = sorted(profile.event_counts.items(),
                   key=lambda kv: (-kv[1], kv[0]))
    shown = items if top is None else items[:top]
    rows = []
    for label, count in shown:
        wall = profile.event_wall_s.get(label, 0.0)
        pct = 100.0 * wall / total_wall if total_wall > 0 else 0.0
        rows.append([label, count, f"{wall * 1e3:.2f}", f"{pct:.1f}"])
    parts = [render_table(
        ["callback", "events", "wall ms*", "wall %*"], rows,
        title=(f"Engine profile: {profile.events_fired} events, "
               f"{total_wall * 1e3:.1f} ms in callbacks "
               f"({len(items)} callback types"
               + (f", top {len(shown)} shown" if len(shown) < len(items)
                  else "") + ")"))]
    if profile.phase_s:
        phase_rows = [[name, f"{profile.phase_s[name] * 1e3:.2f}"]
                      for name in sorted(profile.phase_s)]
        parts.append("")
        parts.append(render_table(["phase", "wall ms*"], phase_rows,
                                  title="Phases"))
    parts.append("")
    parts.append("* wall-clock columns are advisory (host-load dependent); "
                 "event counts are config-deterministic.")
    return "\n".join(parts)
