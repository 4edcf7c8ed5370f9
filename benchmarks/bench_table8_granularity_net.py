"""Table 8: limited application adaptation granularity, changing network --
the long-RTT (125 ms one-way) path where ADAPT_COND's obsolete-information
correction is the paper's headline claim."""

from conftest import cached

from repro.experiments.granularity import (TABLE8, granularity_metrics,
                                           run_table8)


def bench_table8_granularity_changing_net(benchmark, report):
    results = benchmark.pedantic(
        lambda: cached("table8", run_table8), rounds=1, iterations=1)
    report("table8_granularity_net", TABLE8.render(results))

    cond = granularity_metrics(results["IQ-RUDP w/ ADAPT_COND"])
    nocond = granularity_metrics(results["IQ-RUDP w/o ADAPT_COND"])
    # Shape (the section's key claim): the ADAPT_COND drift correction
    # improves throughput and duration over plain pending-notification
    # coordination (paper: ~+18% throughput, large jitter win).
    assert cond[1] > nocond[1]
    assert cond[0] <= nocond[0] * 1.05
    # And the correction actually fired.
    assert results["IQ-RUDP w/ ADAPT_COND"].conn.coordinator \
        .count("window_rescale", cond=True) > 0
    assert results["IQ-RUDP w/o ADAPT_COND"].conn.coordinator \
        .count("window_rescale", cond=True) == 0
