"""The five workloads, and what one operation of each must get right.

A workload is built from ``--seed`` alone: it turns the seed into scenario
configurations, population arguments or a campaign spec, and the program
only ever sees those.  One *round* of a workload is a fixed list of
operations on those inputs, so every round of a run does the same simulated
work and rounds differ only in how long the host took.

Sizes are fixed here, once for measuring and once for ``--quick`` (a smoke
scale whose numbers are not comparable with anything).  They are chosen so
that a round takes a few seconds on a 2-core box: the driver allows a run 30
seconds in all, and a run needs several rounds for its median to be steady.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

# The traced pass replaces functions in the modules that define them, so the
# ones it wraps are called through their module, not imported by name.
from repro import campaign
from repro.experiments import common, population
from repro.experiments.conflict import run_table3, run_table4
from repro.experiments.dynamics import run_dynamics
from repro.experiments.granularity import run_table7, run_table8
from repro.experiments.overreaction import run_table5, run_table6
from repro.experiments.reliability import run_reliability

__all__ = ["WORKLOADS", "Op", "account", "digest", "iq_gain_pct",
           "probe_callbacks"]


class Op:
    """One operation: ``run()`` returns its cells as ``{label: result}``.

    ``phase`` is ``"main"`` for the work the end-to-end metrics are taken
    from and ``"reread"`` for the campaign's read-back, which is timed on its
    own.  ``check(cells)`` returns the failures only this operation can
    have, as a list of sentences.
    """

    def __init__(self, name, run, *, phase="main", check=None):
        self.name = name
        self.run = run
        self.phase = phase
        self.check = check or (lambda cells: [])


def _flatten(prefix: str, tree) -> dict:
    """``{12: {"RUDP": res}}`` -> ``{"prefix/12/RUDP": res}``."""
    if not isinstance(tree, dict):
        return {prefix: tree}
    out = {}
    for key, sub in tree.items():
        out.update(_flatten(f"{prefix}/{key}", sub))
    return out


# ---------------------------------------------------------------------------
# What every cell must get right, and what is counted from it
# ---------------------------------------------------------------------------

def account(label: str, res) -> dict:
    """Check one cell and count its simulated work.

    Returns ``failures`` (sentences; empty when the cell is correct),
    ``packets`` (packets offered to either direction of the bottleneck:
    flow data, acknowledgements, repairs and cross traffic -- the unit of
    simulated work the end-to-end costs are divided by), ``datagrams``
    (application datagrams delivered) and the cell's ``summary``.
    """
    failures = []
    if getattr(res, "failed", False):
        return {"failures": [f"{label}: {res.describe()}"], "packets": 0,
                "datagrams": 0, "summary": {"failed": 1.0}}
    summary = res.summary
    net = res.net
    packets = (net.forward.queue.stats.arrivals
               + net.backward.queue.stats.arrivals)
    log = getattr(res, "log", None)
    if log is not None:                     # a scenario cell
        if not res.completed:
            failures.append(f"{label}: did not complete")
        violation = log.consistency_violation()
        if violation is not None:
            failures.append(f"{label}: {violation}")
        datagrams = len(log)
    else:                                   # a population
        if summary["completion_ratio"] != 1.0:
            failures.append(f"{label}: {summary['completed']:.0f} of "
                            f"{summary['flows']:.0f} flows completed")
        # Every flow completed, so every datagram submitted was delivered.
        datagrams = int(summary["datagrams"])
    return {"failures": failures, "packets": packets,
            "datagrams": datagrams, "summary": summary}


def digest(summaries: dict) -> str:
    """sha256 of the canonical JSON of ``{label: summary}``.  Summaries hold
    simulated statistics only, so the digest repeats for a fixed seed."""
    text = json.dumps(summaries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def iq_gain_pct(summaries: dict, pairs) -> "tuple[float, int, int]":
    """The paper's claim in one number: over the cell pairs that differ only
    in transport, the mean of how much sooner IQ-RUDP finished than RUDP,
    ``100 * (rudp - iq) / rudp`` of simulated ``duration_s``.  Also returns
    the number of pairs and how many IQ-RUDP won."""
    gains = []
    for iq, rudp in pairs:
        if iq in summaries and rudp in summaries:
            base = summaries[rudp]["duration_s"]
            gains.append(100.0 * (base - summaries[iq]["duration_s"]) / base)
    if not gains:
        return 0.0, 0, 0
    return sum(gains) / len(gains), len(gains), sum(g > 0 for g in gains)


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

class Workload:
    """Base: ``ops()`` is one round, ``trace_ops()`` the part of it the
    traced pass runs (a traced operation costs about three untraced ones and
    has to fit the same run length), ``pairs`` the IQ-vs-RUDP cell pairs."""

    name = ""
    pairs: tuple = ()
    #: Records in the campaign journal after the last cold pass; only the
    #: campaign workload has one.
    journal_records = 0

    def ops(self) -> list:
        raise NotImplementedError

    def trace_ops(self) -> list:
        return self.ops()

    def configs(self) -> dict:
        """``{label: ScenarioConfig}`` where the workload builds its own."""
        return {}

    def disarmed(self):
        """The same inputs with invariants and spans off, where the workload
        arms them; None elsewhere."""
        return None


class PaperTables(Workload):
    name = "paper_tables"
    #: (function, n_frames, n_frames for --quick, the seed the paper bench
    #: uses).  Frames are cut from the defaults so that a round is seconds;
    #: the cross traffic that makes these tables sim-bound runs for as long
    #: as the flow does, so the packet mix is the defaults'.
    TABLES = (("table3", run_table3, 80, 10, 1),
              ("table4", run_table4, 600, 40, 1),
              ("table5", run_table5, 1500, 100, 2),
              ("table6", run_table6, 800, 40, 2),
              ("table7", run_table7, 1500, 100, 1),
              ("table8", run_table8, 1500, 60, 1))
    pairs = (("table3/IQ-RUDP", "table3/RUDP"),
             ("table4/IQ-RUDP", "table4/RUDP"),
             ("table5/IQ-RUDP", "table5/RUDP"),
             ("table6/12/IQ-RUDP", "table6/12/RUDP"),
             ("table6/16/IQ-RUDP", "table6/16/RUDP"),
             ("table6/18/IQ-RUDP", "table6/18/RUDP"),
             ("table8/IQ-RUDP w/ ADAPT_COND", "table8/RUDP"))

    def __init__(self, seed, quick, workdir):
        self.calls = [(name, fn, dict(n_frames=small if quick else frames,
                                      seed=base + seed - 1))
                      for name, fn, frames, small, base in self.TABLES]

    def ops(self):
        def op(name, fn, kw):
            return Op(name, lambda: _flatten(
                name, fn(cache=False, jobs=1, **kw)))
        return [op(*call) for call in self.calls]


class TransportBlast(Workload):
    name = "transport_blast"

    def __init__(self, seed, quick, workdir):
        n = 300 if quick else 10_000
        self.cfgs = {
            f"{transport}/{size}": common.ScenarioConfig(
                transport=transport, workload="greedy", n_frames=n,
                base_frame_size=size, seed=seed, burst=False)
            for transport in ("iq", "rudp", "tcp") for size in (1400, 200)}

    def configs(self):
        return self.cfgs

    def ops(self):
        def op(label, cfg):
            return Op(label, lambda: {label: common.run_scenario(cfg)})
        return [op(label, cfg) for label, cfg in self.cfgs.items()]


class Population1k(Workload):
    name = "population_1k"

    def __init__(self, seed, quick, workdir):
        self.kw = dict(seed=seed)
        if quick:
            self.kw.update(n_flows=60, frames_per_flow=10,
                           arrival_window_s=0.5)

    def ops(self):
        return [Op("population",
                   lambda: {"population":
                           population.run_population(**self.kw)})]


class CampaignSmallCells(Workload):
    name = "campaign_small_cells"

    def __init__(self, seed, quick, workdir):
        n_seeds = 8 if quick else 100
        self.spec = {
            "name": "small-cells",
            "template": {"workload": "greedy", "n_frames": 50},
            "axes": {"transport": ["iq", "rudp", "tcp"]},
            "seeds": {"list": list(range(seed, seed + n_seeds))}}
        self.n_cells = 3 * n_seeds
        self.workdir = workdir
        self.passes = 0
        self.dir = None
        self.cold_report = None

    def configs(self):
        cells = campaign.load_campaign(self.spec).cells()
        return {c.label: c.config for c in cells}

    def _run(self):
        # A fresh Campaign each time: its expansion is part of the pass.
        # One worker, which is this process: two worker processes and the
        # parent that polls them are three processes on two shared cores,
        # and their wall measured the host's scheduler (the driver's runs
        # of one commit spread by 25 %).
        return campaign.run_campaign(
            campaign.load_campaign(self.spec), dir=self.dir,
            workers=1, cache=False, progress=False)

    def _cold(self):
        self.passes += 1
        self.dir = os.path.join(self.workdir, f"campaign-{self.passes}")
        self.cold_run = self._run()
        return self.cold_run.results

    def _check_cold(self, cells):
        failures = []
        if len(cells) != self.n_cells:
            failures.append(f"{len(cells)} of {self.n_cells} cells stored")
        self.journal_records = sum(
            campaign.CampaignStore(self.dir).journal_counts().values())
        if self.journal_records != self.n_cells:
            failures.append(f"{self.journal_records} journal records for "
                            f"{self.n_cells} cells (lost or run twice)")
        self.cold_report = self.cold_run.report().render()
        return failures

    def _reread(self):
        run = self._run()
        self.reread_report = run.report().render()
        return run.results

    def _check_reread(self, cells):
        failures = []
        if self.reread_report != self.cold_report:
            failures.append("report read back differs from the cold report")
        shutil.rmtree(self.dir)
        return failures

    def ops(self):
        return [Op("cold_pass", self._cold, check=self._check_cold),
                Op("reread", self._reread, phase="reread",
                   check=self._check_reread)]


class FaultedArmed(Workload):
    name = "faulted_armed"
    #: The sweeps' handover and blackout schedules are left out: after their
    #: outage the flow sits in retransmission back-off for 100-300 simulated
    #: seconds, so their wall is cross traffic passing an idle flow -- which
    #: paper_tables measures -- and one such cell outlasts a whole run.
    DYNAMICS = ("flap", "burst", "cliff")
    RELIABILITY = ("burst",)
    pairs = tuple((f"dynamics/{s}/iq", f"dynamics/{s}/rudp")
                  for s in DYNAMICS)

    def __init__(self, seed, quick, workdir, armed=True):
        # 250 frames are the sweeps' own default: the fault windows are
        # absolute times placed against that transfer.
        self.args = (seed, quick, workdir)
        self.kw = dict(n_frames=15 if quick else 250, seed=seed,
                       cache=False, jobs=1,
                       overrides=({"invariants": True, "spans": True}
                                  if armed else {}))

    def disarmed(self):
        return FaultedArmed(*self.args, armed=False)

    def _op(self, kind, fn, schedule):
        return Op(f"{kind}/{schedule}", lambda: _flatten(
            kind, fn(schedules=(schedule,), **self.kw)))

    def ops(self):
        return ([self._op("dynamics", run_dynamics, s)
                 for s in self.DYNAMICS]
                + [self._op("reliability", run_reliability, s)
                   for s in self.RELIABILITY])

    def trace_ops(self):
        return [self._op("dynamics", run_dynamics, "flap"),
                self._op("reliability", run_reliability, "burst")]


WORKLOADS = {w.name: w for w in (PaperTables, TransportBlast, Population1k,
                                 CampaignSmallCells, FaultedArmed)}


def probe_callbacks(workdir: str) -> None:
    """A few small operations that between them schedule every kind of event
    the workloads do; the traced pass watches them to learn which private
    methods the engine fires (``spans.discover_callbacks``)."""
    wanted = {"table4", "table5", "iq/1400", "tcp/200", "population",
              "dynamics/flap", "reliability/burst"}
    for cls in (PaperTables, TransportBlast, Population1k, FaultedArmed):
        for op in cls(1, True, workdir).ops():
            if op.name in wanted:
                op.run()
