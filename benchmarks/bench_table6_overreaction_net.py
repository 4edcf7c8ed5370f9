"""Table 6: coordination against over-reaction, changing network -- the
iperf cross-traffic sweep (12/16/18 Mbps)."""

from conftest import cached

from repro.experiments.overreaction import (TABLE6, overreaction_metrics,
                                            run_table6)


def bench_table6_overreaction_changing_net(benchmark, report):
    results = benchmark.pedantic(
        lambda: cached("table6", run_table6), rounds=1, iterations=1)
    report("table6_overreaction_net", TABLE6.render(results))

    # Shape: throughput decays sharply as the cross traffic grows.
    for name in ("IQ-RUDP", "RUDP"):
        t12 = overreaction_metrics(results[12][name])[0]
        t18 = overreaction_metrics(results[18][name])[0]
        assert t18 < 0.5 * t12
    # Shape: under severe congestion (18 Mb) coordination wins on
    # duration and delay -- the paper's headline effect.
    iq18 = overreaction_metrics(results[18]["IQ-RUDP"])
    ru18 = overreaction_metrics(results[18]["RUDP"])
    assert iq18[1] < ru18[1]
    assert iq18[2] < ru18[2]
