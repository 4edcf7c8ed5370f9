"""Table 3: coordination against conflicting interests, changing
application.  IQ-RUDP discards unmarked datagrams before the network;
RUDP keeps sending everything within its window."""

from conftest import cached

from repro.experiments.conflict import TABLE3, conflict_metrics, run_table3


def bench_table3_conflict_changing_app(benchmark, report):
    results = benchmark.pedantic(
        lambda: cached("table3", run_table3), rounds=1, iterations=1)
    report("table3_conflict_app", TABLE3.render(results))

    iq = conflict_metrics(results["IQ-RUDP"])
    ru = conflict_metrics(results["RUDP"])
    # Shape: IQ-RUDP finishes sooner with lower tagged delay...
    assert iq[0] < ru[0]
    assert iq[2] < ru[2]
    # ...delivering fewer messages (it discards droppable data)...
    assert iq[1] < ru[1]
    # ...but within the 40% receiver loss tolerance.
    assert iq[1] >= 60.0
    # IQ-RUDP's sender really discarded; RUDP's never does.
    assert results["IQ-RUDP"].conn.sender.stats.discarded_msgs > 0
    assert results["RUDP"].conn.sender.stats.discarded_msgs == 0
