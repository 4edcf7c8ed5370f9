"""Section 3.3: coordination against conflicting interests.

The application trades reliability for timeliness: above a 30% error ratio
it unmarks a fraction ``max(40, 1.25*eratio)%`` of its datagrams (every
fifth datagram stays tagged -- control information that must arrive); each
period below 5% it backs the unmark probability off by 20%.  Receiver loss
tolerance is 40%.

Coordinated (IQ-RUDP): the transport discards unmarked datagrams before
they touch the network, so tagged data flows promptly.  Uncoordinated
(RUDP): everything is sent within the congestion window; unmarked losses
are merely not retransmitted.  Expected shape (Tables 3/4): IQ-RUDP
finishes sooner with ~25% lower tagged delay/jitter while delivering fewer
messages -- still within the tolerance.

Figures 2/3 plot the per-packet delay jitter for the two schemes with the
cross traffic starting mid-run (the "sharp increase around the 500th
packet").

Calibration notes (documented deviations; see EXPERIMENTS.md):
* The paper's 30%/5% thresholds are driven by per-period loss spikes in its
  testbed; the changing-application variant scales them to 5%/1% on a
  250 ms measuring period, the changing-network variant keeps 30%/5% on a
  100 ms period (VBR bursts produce genuinely large spikes there).
* Cross-traffic rates are chosen to put the leftover bandwidth in the same
  overload regime as the paper's (its exact VBR trace scale is unknown).
"""

from __future__ import annotations

from ..middleware.adaptation import MarkingAdaptation
from ..runner import run_batch
from .common import ScenarioConfig, ScenarioResult
from .grid import Experiment

__all__ = ["TABLE3", "TABLE4", "PAPER_TABLE3", "PAPER_TABLE4", "run_table3",
           "run_table4", "run_figure23", "conflict_metrics"]

# (duration s, msgs recvd %, tagged delay ms, tagged jitter, delay ms, jitter)
PAPER_TABLE3 = {
    "IQ-RUDP": (60.0, 72.0, 58.4, 6.6, 56.4, 6.6),
    "RUDP": (80.9, 91.0, 66.8, 9.1, 62.2, 7.9),
}
PAPER_TABLE4 = {
    "IQ-RUDP": (23.9, 63.0, 30.2, 3.1, 29.6, 3.1),
    "RUDP": (32.5, 87.4, 38.1, 4.3, 29.4, 3.8),
}

LOSS_TOLERANCE = 0.40


def _app_strategy() -> MarkingAdaptation:
    """Changing-application marking thresholds.

    The paper's 30%/5% pair matches *its* per-period loss distribution; our
    congestion-controlled flow with EACK repair sees lower per-period loss
    ratios for the same congestion, so the thresholds scale down to 5%/1%
    to give the adaptation the same duty cycle (see EXPERIMENTS.md).
    """
    return MarkingAdaptation(upper=0.05, lower=0.01, backoff=0.10)


def _changing_app_config(n_frames: int, seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        workload="trace_clocked", n_frames=n_frames, frame_rate=25,
        frame_multiplier=3000, adaptation=_app_strategy,
        loss_tolerance=LOSS_TOLERANCE, cbr_bps=18.5e6, metric_period=0.25,
        seed=seed, time_cap=900.0)


def _changing_net_config(n_frames: int, seed: int) -> ScenarioConfig:
    """Greedy source against VBR bursts; the paper's 30%/5% thresholds are
    kept here because the VBR cross traffic produces genuinely large
    per-period loss spikes."""
    return ScenarioConfig(
        workload="greedy", n_frames=n_frames, base_frame_size=1400,
        adaptation=MarkingAdaptation, loss_tolerance=LOSS_TOLERANCE,
        cbr_bps=15e6, vbr_mean_bps=3.5e6, metric_period=0.1,
        seed=seed, time_cap=600.0)


def conflict_metrics(res: ScenarioResult) -> tuple[float, ...]:
    """Table 3/4 column set: duration, % received, tagged delay/jitter,
    all-packet delay/jitter (delays are datagram inter-arrivals, ms)."""
    s = res.summary
    return (s["duration_s"], s["pct_received"], s["tagged_delay_ms"],
            s["tagged_jitter_ms"], s["delay_ms"], s["jitter_ms"])


_ARMS = {"IQ-RUDP": {"transport": "iq"}, "RUDP": {"transport": "rudp"}}
_COLUMNS = ("", "Duration(s)", "Mesgs Recvd(%)", "Tagged Delay(ms)",
            "Tagged Jitter", "Delay(ms)", "Jitter")

TABLE3 = Experiment(
    "table3",
    title="Table 3: coordination against conflict -- changing application",
    base=_changing_app_config, n_frames=250, arms=_ARMS,
    paper=PAPER_TABLE3, columns=_COLUMNS, metrics=conflict_metrics)

TABLE4 = Experiment(
    "table4",
    title="Table 4: coordination against conflict -- changing network",
    base=_changing_net_config, n_frames=6000, arms=_ARMS,
    paper=PAPER_TABLE4, columns=_COLUMNS, metrics=conflict_metrics)

run_table3 = TABLE3.run
run_table4 = TABLE4.run


def run_figure23(*, n_frames: int = 6000, seed: int = 1, cbr_start: float = 2.0,
                 jobs: int = 1, cache=None,
                 trace: str | None = None) -> dict[str, ScenarioResult]:
    """Figures 2/3: Table 4's per-packet jitter series, cross traffic
    starting at ``cbr_start`` so the early packets see an idle network."""
    rows = TABLE4.configs(n_frames=n_frames, seed=seed,
                          overrides={"cbr_start": cbr_start})
    return run_batch(rows, jobs=jobs, cache=cache, trace=trace)
