"""Sensitivity bench: coordination value vs path RTT.

Paper section 2.3.1 argues the transport's instant re-adaptation matters
most when application adaptation is slow relative to the network -- "we
expect to see better performance in IQ-RUDP with its immediate change of
the sending window, especially when the round-trip time is relatively
large" (section 3.5).  This bench sweeps the path RTT under the
over-reaction scenario and reports the IQ-vs-RUDP duration gap per RTT.
"""

from conftest import cached

from repro.analysis.tables import render_table
from repro.experiments.overreaction import (_changing_net_config,
                                            overreaction_metrics)
from repro.runner import run_batch

RTTS = (0.030, 0.120, 0.250)


def bench_sensitivity_rtt(benchmark, report):
    def run():
        base = _changing_net_config(16e6, 8000, 2)
        flat = run_batch({(rtt, tp): base.replace(rtt_s=rtt, transport=tp)
                          for rtt in RTTS for tp in ("iq", "rudp")})
        return {rtt: {tp: flat[rtt, tp] for tp in ("iq", "rudp")}
                for rtt in RTTS}

    results = benchmark.pedantic(lambda: cached("sens_rtt", run),
                                 rounds=1, iterations=1)
    rows = []
    for rtt, pair in results.items():
        iq = overreaction_metrics(pair["iq"])
        ru = overreaction_metrics(pair["rudp"])
        gain = 100.0 * (1 - iq[1] / max(ru[1], 1e-9))
        rows.append((f"{rtt*1e3:.0f} ms", round(iq[1], 1), round(ru[1], 1),
                     f"{gain:+.0f}%"))
    report("sensitivity_rtt", render_table(
        ("path RTT", "IQ duration(s)", "RUDP duration(s)",
         "IQ gain"), rows,
        title="Sensitivity: over-reaction coordination win vs path RTT "
              "(16 Mb cross traffic)"))

    # Both schemes must complete everywhere; the coordinated transport
    # must not lose badly at any RTT.
    for rtt, pair in results.items():
        assert pair["iq"].completed and pair["rudp"].completed
        iq_d = overreaction_metrics(pair["iq"])[1]
        ru_d = overreaction_metrics(pair["rudp"])[1]
        assert iq_d < ru_d * 1.3, f"IQ regressed at RTT {rtt}"
