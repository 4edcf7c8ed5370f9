"""Table 5: coordination against over-reaction, changing application
(sub-MSS trace frames; window re-inflation after resolution cuts)."""

from conftest import cached

from repro.experiments.overreaction import (TABLE5, overreaction_metrics,
                                            run_table5)


def bench_table5_overreaction_changing_app(benchmark, report):
    results = benchmark.pedantic(
        lambda: cached("table5", run_table5), rounds=1, iterations=1)
    report("table5_overreaction_app", TABLE5.render(results))

    iq = overreaction_metrics(results["IQ-RUDP"])
    ru = overreaction_metrics(results["RUDP"])
    # Shape: both schemes complete a clocked workload in comparable time;
    # the coordinated transport must not lose on duration.
    assert iq[1] <= ru[1] * 1.1
    # Coordination really engaged: the window was re-inflated.
    assert results["IQ-RUDP"].conn.coordinator.count("window_rescale") > 0
