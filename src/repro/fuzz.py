"""Seeded scenario fuzzer: the property-based safety net (``repro fuzz``).

Generates ``budget`` random-but-bounded :class:`ScenarioConfig`\\ s (random
transports, workloads, adaptation strategies, cross traffic and
:class:`FaultSchedule`\\ s) from one ``random.Random(seed)`` stream -- the
case list is a pure function of ``--seed`` -- and runs them through four
passes whose results must agree exactly:

A. **reference**: serial (``jobs=1``), invariants armed, fresh cache.
B. **parallel**: ``jobs=N``, uncached -- worker count must not change a
   single summary bit.
C. **cache-hit**: re-run against pass A's cache -- every case must hit,
   and a deserialised result must equal the fresh one.
D. **disarmed**: a sample of cases with ``invariants=False`` -- the
   checker must be purely observational.

B-D compare summaries, the coordinator's record and any telemetry.

Every pass runs under the resilient batch path (crash isolation +
per-case timeout), so one insane generated case is a reported failure
row, not a dead fuzz run.  An incomplete scenario (``completed == 0``
at the time cap) is a legitimate outcome, not a failure -- the oracle is
*agreement*, not success.
"""

from __future__ import annotations

import random
import tempfile
from typing import Callable

from .experiments.common import TRANSPORTS, ScenarioConfig, ScenarioResult
from .faults.schedule import (BandwidthRamp, Blackout, BurstyLoss, DelayRamp,
                              FaultSchedule, Jitter, LinkFlap)
from .middleware.adaptation import (FecAdaptation, FrequencyAdaptation,
                                    MarkingAdaptation, ResolutionAdaptation)
from .obs.compare import compare_summaries, compare_telemetry
from .obs.flight import first_divergence
from .obs.telemetry import TelemetryConfig
from .runner import FailedResult, ResultsCache, run_batch
from .transport.fec import FecConfig

__all__ = ["sample_config", "sample_faults", "run_fuzz", "FuzzReport"]

#: Adaptation factories must be module-level names: a lambda would make
#: the config unhashable (no cache key) and break pass C.
ADAPTATION_POOL = (ResolutionAdaptation, FrequencyAdaptation,
                   MarkingAdaptation, FecAdaptation)

#: Virtual-time ceiling per generated case; sized so even a stalled
#: scenario simulates in well under a wall-clock second.
CASE_TIME_CAP = 30.0

#: Where a ``DelayRamp`` ends, one way: from below the shortest base delay
#: (4.95 ms at ``rtt_s=0.010``), so a ramp can shorten the path and let a
#: later packet overtake an earlier one.  (0.02 before PR 22: ``repro fuzz
#: --seed N`` draws a different case stream since.)
DELAY_RAMP_TO_S = (0.002, 0.2)


def sample_faults(rng: random.Random) -> FaultSchedule:
    """One to three bounded impairment phases with gaps between them."""
    phases = []
    t = rng.uniform(0.2, 1.0)
    for _ in range(rng.randint(1, 3)):
        dur = rng.uniform(0.2, 1.2)
        start, stop = t, t + dur
        kind = rng.randrange(6)
        direction = rng.choice(("fwd", "bwd", "both"))
        if kind == 0:
            phases.append(Blackout(start, stop, direction=direction))
        elif kind == 1:
            phases.append(LinkFlap(start, stop,
                                   down_s=rng.uniform(0.05, 0.3),
                                   up_s=rng.uniform(0.1, 0.5),
                                   direction=direction))
        elif kind == 2:
            phases.append(BurstyLoss(start, stop,
                                     p_gb=rng.uniform(0.005, 0.05),
                                     p_bg=rng.uniform(0.2, 0.6)))
        elif kind == 3:
            phases.append(BandwidthRamp(start, stop,
                                        to_bps=rng.choice((2e6, 5e6, 10e6)),
                                        steps=rng.randint(2, 8)))
        elif kind == 4:
            phases.append(DelayRamp(start, stop,
                                    to_s=rng.uniform(*DELAY_RAMP_TO_S),
                                    steps=rng.randint(2, 8),
                                    direction=direction))
        else:
            phases.append(Jitter(start, stop,
                                 max_extra_s=rng.uniform(0.001, 0.01),
                                 p=rng.uniform(0.2, 1.0)))
        t = stop + rng.uniform(0.1, 0.6)
    return FaultSchedule(*phases)


def sample_config(rng: random.Random) -> ScenarioConfig:
    """One bounded random scenario (invariants armed)."""
    transport = rng.choice(TRANSPORTS)
    adaptation = None
    if transport != "tcp" and rng.random() < 0.5:
        # TCP has no adaptation callbacks (rejected by construction).
        adaptation = rng.choice(ADAPTATION_POOL)
    kw = dict(
        transport=transport,
        workload=rng.choice(("greedy", "fixed_clocked", "trace_clocked")),
        adaptation=adaptation,
        n_frames=rng.randint(30, 120),
        frame_rate=rng.choice((5.0, 10.0, 20.0)),
        frame_multiplier=rng.choice((1000, 3000)),
        base_frame_size=rng.choice((700, 1400, 4200)),
        bottleneck_bps=rng.choice((4e6, 8e6, 20e6)),
        rtt_s=rng.choice((0.010, 0.030, 0.120)),
        queue_pkts=rng.choice((16, 32, 64)),
        loss_tolerance=rng.choice((None, 0.05, 0.2)),
        cbr_bps=rng.choice((0.0, 0.0, 1e6, 3e6)),
        seed=rng.randint(1, 1_000_000),
        time_cap=CASE_TIME_CAP,
        invariants=True,
    )
    if transport == "tcp":
        # Drawn all the same, so every later draw is what it was: TCP is
        # fully reliable.
        kw["loss_tolerance"] = None
    if rng.random() < 0.4:
        kw["faults"] = sample_faults(rng)
    if rng.random() < 0.2:
        kw["tcp_cross_bytes"] = rng.choice((100_000, 400_000))
    if rng.random() < 0.15:
        kw["vbr_mean_bps"] = 1e6
    if rng.random() < 0.3:
        # Sampled telemetry rides the differential passes: series must be
        # identical across jobs=1/N and cache hit/miss like summaries are.
        kw["telemetry"] = TelemetryConfig(
            cadence_s=rng.choice((0.05, 0.1)))
    if transport != "tcp" and rng.random() < 0.3:
        # FEC repair tier (repro.transport.fec): armed cases exercise
        # generation flush, recovery injection and the redundancy
        # controller through the same differential passes -- recovery is
        # a deterministic function of which datagrams arrive, so armed
        # summaries must agree across jobs/cache too.
        k = rng.choice((4, 8))
        kw["fec"] = FecConfig(k=k, r=rng.randint(1, 2),
                              adaptive=rng.random() < 0.7)
        if rng.random() < 0.3:
            kw["frame_deadline_s"] = rng.choice((0.25, 0.5, 1.0))
    return ScenarioConfig(**kw)


class FuzzReport:
    """Outcome of one fuzz run: per-case failures and oracle mismatches."""

    def __init__(self, budget: int, seed: int):
        self.budget = budget
        self.seed = seed
        self.failures: list[str] = []    # cases that crashed/violated
        self.mismatches: list[str] = []  # differential-oracle breaches
        #: One forensics record per failure/mismatch: the flight-recorder
        #: dumps of both sides plus the first event id at which they
        #: diverge (``repro fuzz --forensics PATH`` serialises these).
        self.forensics: list[dict] = []
        self.cases_run = 0

    @property
    def ok(self) -> bool:
        return not self.failures and not self.mismatches

    def summary_line(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return (f"fuzz {verdict}: {self.cases_run} cases (seed={self.seed}), "
                f"{len(self.failures)} failures, "
                f"{len(self.mismatches)} differential mismatches")


def _case_label(i: int, cfg: ScenarioConfig) -> str:
    extras = []
    if cfg.adaptation is not None:
        extras.append(cfg.adaptation.__name__)
    if cfg.faults is not None:
        extras.append("faults")
    tail = f" [{'+'.join(extras)}]" if extras else ""
    return (f"case {i}: {cfg.transport}/{cfg.workload}/"
            f"seed={cfg.seed}{tail}")


def _compare(report: FuzzReport, label: str, i: int, cfg: ScenarioConfig,
             ref, other) -> None:
    """Exact-agreement oracle between a reference result and a re-run.

    Any disagreement additionally files a forensics record: both sides'
    flight-recorder dumps and the first event id at which they diverge,
    which localises *where* two supposedly identical runs parted ways."""
    before = len(report.mismatches)
    _compare_inner(report, label, i, cfg, ref, other)
    if len(report.mismatches) > before:
        ref_fl = getattr(ref, "flight", None)
        other_fl = getattr(other, "flight", None)
        report.forensics.append({
            "label": label,
            "case": _case_label(i, cfg),
            "mismatches": report.mismatches[before:],
            "first_divergence": first_divergence(ref_fl, other_fl),
            "ref_flight": ref_fl,
            "other_flight": other_fl,
        })


def _compare_inner(report: FuzzReport, label: str, i: int,
                   cfg: ScenarioConfig, ref, other) -> None:
    ref_failed = isinstance(ref, FailedResult)
    other_failed = isinstance(other, FailedResult)
    if ref_failed != other_failed:
        report.mismatches.append(
            f"{label}: {_case_label(i, cfg)}: one pass failed "
            f"({'ref' if ref_failed else 'other'}) and the other did not")
        return
    if ref_failed:
        if ref.kind != other.kind:
            report.mismatches.append(
                f"{label}: {_case_label(i, cfg)}: failure kinds differ "
                f"({ref.kind} vs {other.kind})")
        return
    # Same diff machinery as ``repro compare`` with zero tolerance: the
    # fuzz oracle and the user-facing tool cannot disagree about equality.
    bad = [row["metric"]
           for row in compare_summaries(ref.summary, other.summary)
           if not row["within"]]
    if bad:
        report.mismatches.append(
            f"{label}: {_case_label(i, cfg)}: summaries differ in "
            f"{bad[:6]}")
    coords = ref.conn.sender.coordinator, other.conn.sender.coordinator
    for part in ("exchanges", "actions"):
        if getattr(coords[0], part) != getattr(coords[1], part):
            report.mismatches.append(
                f"{label}: {_case_label(i, cfg)}: coordination {part} "
                f"differ")
    ref_tm = getattr(ref, "telemetry", None)
    other_tm = getattr(other, "telemetry", None)
    if (ref_tm is None) != (other_tm is None):
        report.mismatches.append(
            f"{label}: {_case_label(i, cfg)}: telemetry present on only "
            f"one side")
    elif ref_tm is not None:
        diverged = [row for row in compare_telemetry(ref_tm, other_tm)
                    if row["status"] != "identical"]
        if diverged:
            first = diverged[0]
            report.mismatches.append(
                f"{label}: {_case_label(i, cfg)}: telemetry series "
                f"{first['series']} {first['status']} "
                f"({first.get('first_divergence')})")


def run_fuzz(*, budget: int = 25, seed: int = 4, jobs: int = 2,
             timeout: float = 120.0,
             log: Callable[[str], None] = print) -> FuzzReport:
    """Run the four-pass differential fuzz; see module docstring."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = random.Random(seed)
    cfgs = [sample_config(rng) for _ in range(budget)]
    report = FuzzReport(budget, seed)
    report.cases_run = budget

    with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
        cache = ResultsCache(tmp)

        log(f"[fuzz] pass A: {budget} cases, serial, invariants armed")
        ref = run_batch(cfgs, jobs=1, cache=cache, on_error="capture",
                        timeout=timeout)
        for i, (cfg, res) in enumerate(zip(cfgs, ref)):
            if isinstance(res, FailedResult):
                report.failures.append(
                    f"{_case_label(i, cfg)}: {res.describe()}")
                report.forensics.append({
                    "label": "failure",
                    "case": _case_label(i, cfg),
                    "mismatches": [res.describe()],
                    "first_divergence": None,
                    "ref_flight": res.flight,
                    "other_flight": None,
                })

        log(f"[fuzz] pass B: jobs={jobs}, uncached (parallel determinism)")
        par = run_batch(cfgs, jobs=jobs, cache=False, on_error="capture",
                        timeout=timeout)
        for i, cfg in enumerate(cfgs):
            _compare(report, "jobs differential", i, cfg, ref[i], par[i])

        log("[fuzz] pass C: cache-hit vs fresh")
        hits_before = cache.hits
        again = run_batch(cfgs, jobs=1, cache=cache, on_error="capture",
                          timeout=timeout)
        for i, cfg in enumerate(cfgs):
            _compare(report, "cache differential", i, cfg, ref[i], again[i])
        expected_hits = sum(1 for r in ref
                            if isinstance(r, ScenarioResult))
        got_hits = cache.hits - hits_before
        if got_hits != expected_hits:
            report.mismatches.append(
                f"cache differential: expected {expected_hits} hits on "
                f"re-run, got {got_hits} (a failed case left an entry, or "
                f"a good one was not stored)")

        log("[fuzz] pass D: invariants disarmed sample (observer purity)")
        sample_idx = list(range(0, budget, max(budget // 8, 1)))
        disarmed = run_batch([cfgs[i].replace(invariants=False)
                              for i in sample_idx],
                             jobs=1, cache=False, on_error="capture",
                             timeout=timeout)
        for j, i in enumerate(sample_idx):
            _compare(report, "invariant differential", i, cfgs[i],
                     ref[i], disarmed[j])

    for line in report.failures + report.mismatches:
        log(f"[fuzz] FAIL {line}")
    log(f"[fuzz] {report.summary_line()}")
    return report
