"""Table 4: coordination against conflicting interests, changing network
(greedy source, CBR + MBone-VBR cross traffic)."""

from conftest import cached

from repro.experiments.conflict import TABLE4, conflict_metrics, run_table4


def bench_table4_conflict_changing_net(benchmark, report):
    results = benchmark.pedantic(
        lambda: cached("table4", run_table4), rounds=1, iterations=1)
    report("table4_conflict_net", TABLE4.render(results))

    iq = conflict_metrics(results["IQ-RUDP"])
    ru = conflict_metrics(results["RUDP"])
    assert iq[0] < ru[0]            # duration
    assert iq[2] < ru[2]            # tagged delay
    assert iq[3] <= ru[3] * 1.1     # tagged jitter
    assert iq[1] < ru[1]            # fewer messages delivered
    assert iq[1] >= 60.0            # still within the 40% tolerance
