"""Table 2: fairness test -- the application flow over TCP vs over IQ-RUDP,
competing against a greedy TCP cross flow on the shared bottleneck."""

from conftest import cached

from repro.experiments.baseline import TABLE2, run_table2, table_metrics


def bench_table2_fairness(benchmark, report):
    results = benchmark.pedantic(
        lambda: cached("table2", run_table2), rounds=1, iterations=1)
    # Also report the cross flow's share for context.
    extra = []
    for k, r in results.items():
        xlog = r.tcp_cross.cross_log
        xthr = xlog.total_bytes / 1e3 / max(xlog.duration, 1e-9)
        extra.append(f"{k}: competing TCP flow achieved {xthr:.0f} KB/s")
    report("table2_fairness",
           TABLE2.render(results) + "\n" + "\n".join(extra))

    tcp = table_metrics(results["TCP"])
    iq = table_metrics(results["IQ-RUDP"])
    # Shape: throughputs are close, TCP somewhat ahead (paper: 118 vs 99).
    assert abs(tcp[1] - iq[1]) / tcp[1] < 0.35
    assert iq[1] > 0.5 * tcp[1]
    # Shape: neither flow starves the TCP competitor.
    for k, r in results.items():
        xlog = r.tcp_cross.cross_log
        assert xlog.total_bytes > 0
