"""Reliability sweeps: FEC repair tier vs pure ARQ under loss dynamics.

ARQ recovers a lost datagram one RTT (often one RTO) after the hole is
noticed; under Gilbert-Elliott burst loss or a handover blackout that
round trip is exactly the resource in shortest supply, so the window
drains, the stall detector trips, and frames back up behind the repair.
The application-tailored alternative (:mod:`repro.transport.fec`) spends
a tunable slice of bandwidth *ahead* of the loss: every generation of
``k`` data datagrams carries ``r`` XOR repair datagrams, the receiver
rebuilds up to ``r`` in-generation losses with zero extra round trips,
and the IQ coordinator steers ``r`` from the same loss/stall telemetry
that drives the paper's application adaptations.

Each scenario here runs the changing-application conflict workload
(marking adaptation, 40% receiver loss tolerance) in the Table 3
overload regime -- the same base config as :mod:`.dynamics`,
:func:`.conflict._changing_app_config` -- and compares
**delivered-frame goodput** (``goodput_fps``) across arms of the *same*
coordinated transport: IQ-RUDP with the FEC tier armed against ARQ-only
IQ-RUDP.  The claim under test is narrow and falsifiable:
where retransmission stalls, proactive redundancy buys strictly more
delivered frames per second than it costs in repair overhead.

Calibration notes (empirical, same spirit as :mod:`.dynamics`):

* ``burst`` reuses the dynamics Gilbert-Elliott schedule (~3.8%
  stationary loss with reordering jitter): bursts of 3-4 consecutive
  wire drops are common, which is exactly the interleaved coder's case
  (stripe i covers every ``n_repair``-th member, so a contiguous burst
  ≤ r falls into distinct stripes).
* ``blackout`` models a handover: a 0.8 s outage, then residual burst
  loss while the new path settles.  FEC cannot save datagrams sent into
  the blackout (whole generations vanish), so the win comes from the
  stall-boosted redundancy covering the lossy settle phase -- the
  coordinator arms ``r = r_max`` on stall and relaxes it as periods
  come back clean.
* Cross traffic is pinned at 12 Mb/s as in the dynamics burst/handover
  scenarios: enough congestion to keep the marking adaptation live,
  enough leftover capacity that the ~repair overhead (r/k) does not
  starve the flow it is protecting.
"""

from __future__ import annotations

from ..faults import Blackout, BurstyLoss, FaultSchedule, Jitter
from ..transport.fec import FecConfig
from .common import ScenarioResult
from .conflict import _changing_app_config
from .grid import Experiment

__all__ = ["RELIABILITY", "SCENARIOS", "ARMS", "run_reliability",
           "reliability_metrics", "render_reliability"]

#: The repair profile the armed arm runs: 8 data + 1 repair per
#: generation at rest, adaptable up to 3 repairs (27% peak overhead)
#: by the coordinator's redundancy controller.
FEC_PROFILE = FecConfig(k=8, r=1, r_max=3, adaptive=True)

#: Comparison arms: config overrides on the same coordinated transport.
#: Ordered armed-first -- the renderer reports improvement of the first
#: arm over each of the rest.
ARMS: dict[str, dict] = {
    "iq+fec": {"transport": "iq", "fec": FEC_PROFILE},
    "iq": {"transport": "iq", "fec": None},
}

#: Named loss-dynamics scenarios (fault schedule + calibration overrides).
SCENARIOS: dict[str, dict] = {
    # Gilbert-Elliott bursty wire loss with mild reordering jitter --
    # identical to the dynamics "burst" schedule so the two sweeps are
    # directly comparable.
    "burst": {
        "faults": FaultSchedule(
            BurstyLoss(start=3.0, stop=20.0, p_gb=0.01, p_bg=0.25),
            Jitter(start=3.0, stop=20.0, max_extra_s=0.008, p=0.2)),
        "overrides": {"cbr_bps": 12e6},
    },
    # Handover blackout followed by a lossy settle phase on the new path.
    "blackout": {
        "faults": FaultSchedule(
            Blackout(start=6.0, stop=6.8, direction="both"),
            BurstyLoss(start=6.8, stop=16.0, p_gb=0.02, p_bg=0.25)),
        "overrides": {"cbr_bps": 12e6},
    },
}


def reliability_metrics(res: ScenarioResult) -> tuple[float, ...]:
    """(goodput fps, received %, duration s, recovered, repairs sent,
    final redundancy r, stalls).  The FEC columns read the armed-only
    summary keys and report 0 for ARQ arms."""
    s = res.summary
    return (s["goodput_fps"], s["pct_received"], s["duration_s"],
            s.get("obs_fec_recovered", 0.0),
            s.get("obs_fec_repairs_sent", 0.0),
            s.get("obs_fec_redundancy_final", 0.0),
            s["stalls"])


RELIABILITY = Experiment(
    "reliability",
    title="Reliability sweeps (FEC repair tier vs ARQ-only IQ-RUDP under "
          "loss dynamics)",
    base=_changing_app_config, n_frames=250,
    groups={name: {"faults": spec["faults"], **spec["overrides"]}
            for name, spec in SCENARIOS.items()},
    arms=ARMS,
    columns=("scenario", "arm", "Goodput fps", "Recv%", "Dur s",
             "Recovered", "Repairs", "r final", "Stalls"),
    metrics=reliability_metrics)


def run_reliability(*, schedules: tuple[str, ...] | None = None, **kw
                    ) -> dict[str, dict[str, ScenarioResult]]:
    """Run every (scenario, arm) cell -> ``{scenario: {arm:
    ScenarioResult}}``; ``schedules`` names a subset of :data:`SCENARIOS`
    (``arms`` one of :data:`ARMS`), the rest is :meth:`Experiment.run`'s."""
    return RELIABILITY.run(groups=schedules, **kw)


#: Grouped comparison table with a goodput-improvement line per scenario
#: (armed = first arm vs each remaining arm).
render_reliability = RELIABILITY.render
