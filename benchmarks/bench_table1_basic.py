"""Table 1: basic performance comparison (TCP / IQ-RUDP / app-adaptation
only / IQ-RUDP with app adaptation) on the changing-application workload
against 18 Mb CBR cross traffic."""

from conftest import cached

from repro.experiments.baseline import TABLE1, run_table1, table_metrics


def bench_table1_basic_comparison(benchmark, report):
    results = benchmark.pedantic(
        lambda: cached("table1", run_table1), rounds=1, iterations=1)
    report("table1_basic", TABLE1.render(results))

    t = {k: table_metrics(r) for k, r in results.items()}
    tcp, iq = t["TCP(1)"], t["IQ-RUDP(2)"]
    app3 = t["App adaptation only(3)"]
    app4 = t["IQ-RUDP w/ app adaptation(4)"]
    # Shape: IQ-RUDP matches-or-beats TCP on throughput and jitter (the
    # paper's Table 1 rows 1-2), and finishes no later.
    assert iq[1] > 0.9 * tcp[1]
    assert iq[3] < 1.2 * tcp[3]
    assert iq[0] <= tcp[0] * 1.05
    # Shape: adaptation without congestion control (row 3) trails the
    # coordinated stack (row 4) badly on throughput -- the paper's 8%
    # deficit, amplified on our substrate (see EXPERIMENTS.md).
    assert app3[1] < app4[1] * 1.05
    # Shape: rows with a congestion-controlled transport do not lose to
    # the uncontrolled row on duration.
    assert app4[0] <= app3[0] * 1.1
