"""Extension bench: frequency adaptation (paper section 2.3.2, described
but never evaluated).

A frequency adaptation sends the same bytes per message but less often;
the paper's coordination rule is that IQ-RUDP performs *no* window change
for it ("the reduction of application frame frequency has the same
effect").  This bench evaluates that rule: frequency adaptation under
congestion, on IQ-RUDP vs plain RUDP, plus the invariant that the
coordinator logged the adaptation without rescaling the window.
"""

from conftest import cached

from repro.analysis.tables import render_table
from repro.experiments.common import ScenarioConfig
from repro.middleware.adaptation import frequency_default
from repro.runner import run_batch


def _cfg(transport: str) -> ScenarioConfig:
    return ScenarioConfig(
        transport=transport, workload="fixed_clocked", n_frames=4000,
        frame_rate=200, base_frame_size=1400, adaptation=frequency_default,
        cbr_bps=17e6, metric_period=0.5, seed=2, time_cap=600.0)


def bench_extension_frequency_adaptation(benchmark, report):
    def run():
        return run_batch({"IQ-RUDP": _cfg("iq"), "RUDP": _cfg("rudp")})

    results = benchmark.pedantic(lambda: cached("ext_freq", run),
                                 rounds=1, iterations=1)
    rows = []
    for name, r in results.items():
        s = r.summary
        rows.append((name, round(s["throughput_kBps"], 1),
                     round(s["duration_s"], 1), round(s["delay_ms"], 2),
                     round(s["jitter_ms"], 2),
                     round(r.strategy.freq_scale, 2)))
    report("extension_frequency", render_table(
        ("", "Thr KB/s", "Dur(s)", "Delay(ms)", "Jitter", "final freq x"),
        rows, title="Extension: frequency adaptation under 17 Mb cross "
                    "traffic (section 2.3.2, unevaluated in the paper)"))

    iq = results["IQ-RUDP"]
    # The adaptation ran...
    assert iq.strategy.upper_events > 0
    # ...the coordinator saw it as a frequency adaptation...
    assert iq.conn.coordinator.count("freq_no_window_change") > 0
    # ...and, per the paper's rule, performed no window rescale for it.
    assert iq.conn.coordinator.count("window_rescale") == 0
