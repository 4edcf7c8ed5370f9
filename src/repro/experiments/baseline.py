"""Section 3.2 baselines: Table 1 (basic comparison) and Table 2 (fairness).

Table 1 runs the changing-application workload against 18 Mb CBR cross
traffic under four schemes:

1. **TCP** -- Reno, no application adaptation.
2. **IQ-RUDP** -- LDA congestion control, no application adaptation.
3. **App adaptation only** -- congestion control *disabled* (fixed window;
   the paper "instrumented IQ-RUDP to disable its adaptive congestion window
   algorithm, but still provide performance metrics"), application adapts
   resolution on the exported loss ratio.
4. **IQ-RUDP w/ app adaptation** -- both control loops active, coordinated.

Table 2 swaps the cross traffic for a competing TCP bulk flow and runs the
application (without adaptation) over TCP and over IQ-RUDP; the paper's
point is that their throughputs are close, TCP slightly ahead.
"""

from __future__ import annotations

from ..middleware.adaptation import ResolutionAdaptation
from .common import ScenarioConfig, ScenarioResult
from .grid import Experiment

__all__ = ["TABLE1", "PAPER_TABLE1", "run_table1",
           "TABLE2", "PAPER_TABLE2", "run_table2", "table_metrics"]

# Paper Table 1 (time s, throughput KB/s, inter-arrival s, jitter s).
PAPER_TABLE1 = {
    "TCP(1)": (313, 94.2, 0.239, 0.110),
    "IQ-RUDP(2)": (298, 98.2, 0.201, 0.098),
    "App adaptation only(3)": (158, 90.0, 0.114, 0.008),
    "IQ-RUDP w/ app adaptation(4)": (144, 95.6, 0.113, 0.058),
}

# Paper Table 2 (time s, throughput KB/s, inter-arrival s, jitter s).
PAPER_TABLE2 = {
    "TCP": (51, 118.0, 0.022, 0.0001),
    "IQ-RUDP": (60, 99.0, 0.024, 0.0001),
}


def _adaptation() -> ResolutionAdaptation:
    """Resolution adaptation with thresholds scaled to this testbed's
    per-period loss distribution (see EXPERIMENTS.md calibration notes)."""
    return ResolutionAdaptation(upper=0.02, lower=0.002, cooldown_s=2.0)


def _table1_config(n_frames: int, seed: int) -> ScenarioConfig:
    """Shared changing-application setup: MBone-trace frames at a fixed
    frame rate, offered load ~2.4x the bandwidth left over by the 18 Mb
    cross traffic (the paper's overload regime)."""
    return ScenarioConfig(
        workload="trace_clocked", n_frames=n_frames, frame_rate=25,
        frame_multiplier=3000, cbr_bps=18e6, metric_period=0.2,
        trace_step_s=0.2, seed=seed, time_cap=900.0)


def _table2_config(n_frames: int, seed: int) -> ScenarioConfig:
    """Fairness: the greedy application against a TCP bulk competitor."""
    return ScenarioConfig(
        workload="greedy", n_frames=n_frames, base_frame_size=1400,
        tcp_cross_bytes=500_000_000, seed=seed, time_cap=300.0)


def table_metrics(res: ScenarioResult) -> tuple[float, float, float, float]:
    """(time, throughput KB/s, message inter-arrival s, jitter s) -- the
    Table 1/2 column set."""
    s = res.summary
    return (s["duration_s"], s["throughput_kBps"], s["msg_interarrival_s"],
            s["msg_jitter_s"])


_COLUMNS = ("Transport Tested", "Time", "Throughput KB/s", "Inter-arrival",
            "Jitter")

TABLE1 = Experiment(
    "table1", title="Table 1: basic performance comparison",
    base=_table1_config, n_frames=250, paper=PAPER_TABLE1,
    arms={
        "TCP(1)": {"transport": "tcp"},
        "IQ-RUDP(2)": {"transport": "iq"},
        "App adaptation only(3)": {
            "transport": "rudp_nocc", "adaptation": _adaptation,
            "fixed_window": 64.0},
        "IQ-RUDP w/ app adaptation(4)": {
            "transport": "iq", "adaptation": _adaptation},
    },
    columns=_COLUMNS, metrics=table_metrics, digits=3)

TABLE2 = Experiment(
    "table2", title="Table 2: fairness test",
    base=_table2_config, n_frames=8000, paper=PAPER_TABLE2,
    arms={"TCP": {"transport": "tcp"}, "IQ-RUDP": {"transport": "iq"}},
    columns=_COLUMNS, metrics=table_metrics, digits=4)

#: ``run_tableN(*, n_frames, seed, overrides, jobs, cache, trace,
#: campaign_dir)`` -> ``{row name: ScenarioResult}``; see
#: :meth:`Experiment.run` (same for every ``run_table*``).
run_table1 = TABLE1.run
run_table2 = TABLE2.run
