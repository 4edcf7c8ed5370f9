"""Dynamics sweeps: coordination under mid-flow network changes.

The paper's Emulab testbed only changes conditions at experiment boundaries.
These sweeps put the same coordinated-vs-uncoordinated question under
conditions that change *while the flow runs* -- link flaps, handovers
(blackout + capacity/delay cliff), bursty wire loss, capacity ramps -- the
regime FlEC and the heterogeneous-handover literature evaluate (PAPERS.md).

Every scenario runs the changing-application conflict workload (marking
adaptation, 40% receiver loss tolerance) in the Table 3 overload regime --
Table 3's own base config, :func:`.conflict._changing_app_config` -- so
the marking adaptation is live when the dynamics hit, and compares
**delivered-frame goodput** (``goodput_fps``: distinct frames that reached
the receiver, per second).  That metric is deliberate: under per-datagram
marking a frame whose droppable segments were shed still arrives in usable,
degraded form, so counting raw datagrams would score the conflict scheme's
intended discards as lost goodput.

Why coordination wins here: the uncoordinated transport queues unmarked
(droppable) data behind every outage and spends the recovery shoving stale
backlog through; IQ-RUDP discards unmarked datagrams at the sender
(conflict scheme), degrades further while its stall detector believes the
path is dead, and its blackout-aware loss estimation keeps ADAPT_COND
corrections from acting on outage loss ratios.

Calibration notes (empirical, same spirit as the Table 3 notes in
:mod:`repro.experiments.conflict`):

* Fault windows start at t >= 3 s -- after the congestion-driven marking
  adaptation has engaged (first upper callback fires ~3.5 s into the
  Table 3 regime) -- so the schedules stress a *live* adaptation loop.
* Per-scenario cross-traffic overrides keep each scenario out of the
  starvation regime (cross traffic above the post-fault capacity would
  starve the flow below MIN_PERIOD_SAMPLES and freeze the callback loop,
  turning the comparison into a degenerate tie).
"""

from __future__ import annotations

from ..faults import (BandwidthRamp, Blackout, BurstyLoss, DelayRamp,
                      FaultSchedule, Jitter, LinkFlap)
from .common import ScenarioResult
from .conflict import _changing_app_config
from .grid import Experiment

__all__ = ["DYNAMICS", "SCENARIOS", "SCHEDULES", "run_dynamics",
           "dynamics_metrics", "render_dynamics", "DYNAMICS_TRANSPORTS"]

#: Transports each scenario is swept over (coordinated first).
DYNAMICS_TRANSPORTS = ("iq", "rudp")

#: The named network-dynamics scenarios: fault schedule plus the
#: per-scenario config overrides that calibrate its congestion regime.
#: Times are absolute simulation seconds; the workload offers 10 s of
#: frames and drains its backlog for the rest of the run, so every
#: schedule overlaps the active transfer.
SCENARIOS: dict[str, dict] = {
    # Flaky last mile: 0.7 s outages every 2 s across emission and drain.
    # Long enough for the stall detector (3 consecutive RTOs) to declare
    # the path dead and trigger the coordinator's graceful degradation.
    "flap": {
        "faults": FaultSchedule(
            LinkFlap(start=5.0, stop=16.0, down_s=0.7, up_s=1.3,
                     direction="both")),
        "overrides": {},
    },
    # Handover: 0.8 s blackout, then the new path has less capacity and a
    # longer RTT (cliff at the blackout's end).  Lighter cross traffic:
    # the congestion that drives the adaptation comes from the handover
    # itself, and the post-handover leftover must stay above the offered
    # rate or both transports starve identically.
    "handover": {
        "faults": FaultSchedule(
            Blackout(start=6.0, stop=6.8, direction="both"),
            BandwidthRamp(start=6.8, stop=7.0, to_bps=16e6, steps=1,
                          direction="fwd"),
            DelayRamp(start=6.8, stop=7.0, to_s=0.025, steps=1,
                      direction="both")),
        "overrides": {"cbr_bps": 12e6},
    },
    # Bursty wire loss (Gilbert-Elliott, ~3.8% stationary) with mild
    # reordering jitter, on a moderately loaded path.
    "burst": {
        "faults": FaultSchedule(
            BurstyLoss(start=3.0, stop=20.0, p_gb=0.01, p_bg=0.25),
            Jitter(start=3.0, stop=20.0, max_extra_s=0.008, p=0.2)),
        "overrides": {"cbr_bps": 12e6},
    },
    # Capacity cliff down and back: ramp to 65% of the bottleneck over
    # 6 s, hold, then snap back.
    "cliff": {
        "faults": FaultSchedule(
            BandwidthRamp(start=4.0, stop=10.0, to_bps=13e6, steps=12,
                          direction="fwd"),
            BandwidthRamp(start=16.0, stop=17.0, to_bps=20e6, steps=2,
                          direction="fwd")),
        "overrides": {"cbr_bps": 12e6},
    },
}

#: Backwards-convenient view: scenario name -> its fault schedule.
SCHEDULES: dict[str, FaultSchedule] = {
    name: spec["faults"] for name, spec in SCENARIOS.items()}


def dynamics_metrics(res: ScenarioResult) -> tuple[float, ...]:
    """(goodput fps, received %, duration s, tagged delay ms, stalls)."""
    s = res.summary
    return (s["goodput_fps"], s["pct_received"], s["duration_s"],
            s["tagged_delay_ms"], s["stalls"])


DYNAMICS = Experiment(
    "dynamics",
    title="Dynamics sweeps (coordinated vs uncoordinated under mid-flow "
          "network changes)",
    base=_changing_app_config, n_frames=250,
    groups={name: {"faults": spec["faults"], **spec["overrides"]}
            for name, spec in SCENARIOS.items()},
    arms={tp: {"transport": tp} for tp in DYNAMICS_TRANSPORTS},
    columns=("scenario", "transport", "Goodput fps", "Recv%", "Dur s",
             "TagDly ms", "Stalls"),
    metrics=dynamics_metrics)


def run_dynamics(*, schedules: tuple[str, ...] | None = None, **kw
                 ) -> dict[str, dict[str, ScenarioResult]]:
    """Run every (scenario, transport) cell -> ``{scenario: {transport:
    ScenarioResult}}``; ``schedules`` names a subset of
    :data:`SCENARIOS`, the rest is :meth:`Experiment.run`'s."""
    return DYNAMICS.run(groups=schedules, **kw)


#: Grouped comparison table with a goodput-improvement line per scenario
#: (coordinated = first transport vs each baseline).
render_dynamics = DYNAMICS.render
