"""Ablation benches for the design choices DESIGN.md calls out:

* LDA-style proportional decrease vs TCP-style halving inside RUDP,
* window re-inflation on/off (over-reaction scheme),
* sender-side discard of unmarked datagrams on/off (conflict scheme),
* receiver loss-tolerance sweep.
"""

from conftest import cached

from repro.analysis.tables import render_table
from repro.experiments.conflict import (_changing_net_config,
                                        conflict_metrics)
from repro.experiments.overreaction import (_changing_net_config as
                                            _over_net_config,
                                            overreaction_metrics)
from repro.runner import run_batch


def bench_ablation_cc_law(benchmark, report):
    """RUDP with LDA vs RUDP with Reno-style halving (same scenario)."""
    def run():
        base = _over_net_config(16e6, 6000, 2).replace(transport="rudp",
                                                       adaptation=None)
        return run_batch([base, base.replace(transport="rudp_reno")])

    lda, reno = benchmark.pedantic(lambda: cached("ablation_cc", run),
                                   rounds=1, iterations=1)
    rows = [("LDA (paper)", *(round(x, 2)
                              for x in overreaction_metrics(lda))),
            ("Reno halving", *(round(x, 2)
                               for x in overreaction_metrics(reno)))]
    report("ablation_cc", render_table(
        ("CC law", "Throughput(KB/s)", "Duration(s)", "Delay(ms)", "Jitter"),
        rows, title="Ablation: RUDP congestion law (16 Mb cross traffic)"))
    # Both laws must complete; LDA should not be grossly worse.
    assert lda.completed and reno.completed
    assert overreaction_metrics(lda)[0] > 0.5 * overreaction_metrics(reno)[0]


def bench_ablation_discard_unmarked(benchmark, report):
    """Conflict scheme with and without the sender-side discard."""
    def run():
        base = _changing_net_config(6000, 1)
        return run_batch({
            "IQ (discard on)": base.replace(transport="iq"),
            "IQ (discard off)": base.replace(transport="iq_nodiscard"),
            "RUDP": base.replace(transport="rudp"),
        })

    results = benchmark.pedantic(
        lambda: cached("ablation_discard", run), rounds=1, iterations=1)
    rows = [(k, *(round(x, 2) for x in conflict_metrics(r)))
            for k, r in results.items()]
    report("ablation_discard", render_table(
        ("", "Duration(s)", "Recvd(%)", "TagDelay(ms)", "TagJitter",
         "Delay(ms)", "Jitter"), rows,
        title="Ablation: sender-side discard of unmarked datagrams"))

    on = conflict_metrics(results["IQ (discard on)"])
    off = conflict_metrics(results["IQ (discard off)"])
    # Discarding is the mechanism that shortens the run & thins delivery.
    assert on[0] < off[0]
    assert on[1] < off[1]
    assert results["IQ (discard off)"].conn.sender.stats.discarded_msgs == 0


def bench_ablation_reinflation(benchmark, report):
    """Over-reaction scheme: window re-inflation on vs off."""
    def run():
        base = _over_net_config(18e6, 12000, 2)
        return run_batch({
            "IQ (reinflate on)": base.replace(transport="iq"),
            "IQ (reinflate off)": base.replace(transport="iq_noreinflate"),
        })

    results = benchmark.pedantic(
        lambda: cached("ablation_reinflate", run), rounds=1, iterations=1)
    rows = [(k, *(round(x, 2) for x in overreaction_metrics(r)))
            for k, r in results.items()]
    report("ablation_reinflation", render_table(
        ("", "Throughput(KB/s)", "Duration(s)", "Delay(ms)", "Jitter"), rows,
        title="Ablation: window re-inflation after resolution adaptation "
              "(18 Mb cross traffic)"))
    on = results["IQ (reinflate on)"]
    off = results["IQ (reinflate off)"]
    assert on.conn.coordinator.count("window_rescale") > 0
    assert off.conn.coordinator.count("window_rescale") == 0


def bench_ablation_loss_tolerance(benchmark, report):
    """Receiver loss-tolerance sweep on a genuinely lossy path.

    Unmarked datagrams over a 10%-loss wire: the tolerance caps how much
    the sender may skip instead of retransmit, trading delivery percentage
    for completion time.
    """
    def run():
        import random

        from repro.middleware.receiver import DeliveryLog
        from repro.sim.engine import Simulator
        from repro.sim.link import BernoulliLoss
        from repro.sim.topology import Dumbbell
        from repro.transport.rudp import RudpConnection

        out = {}
        for tol in (0.02, 0.10, 0.50):
            sim = Simulator()
            net = Dumbbell(sim)
            snd, rcv = net.add_flow_hosts("tol")
            net.forward.loss = BernoulliLoss(0.10, random.Random(5))
            log = DeliveryLog()
            conn = RudpConnection(sim, snd, rcv, loss_tolerance=tol,
                                  on_deliver=log.on_deliver)
            n = 3000
            for i in range(n):
                conn.submit(1400, marked=(i % 10 == 0), frame_id=i)
            conn.finish()
            sim.run(until=900.0)
            out[tol] = (log.duration, 100.0 * len(log) / n,
                        conn.sender.stats.skips_sent,
                        conn.sender.stats.retransmissions)
        return out

    results = benchmark.pedantic(
        lambda: cached("ablation_tolerance", run), rounds=1, iterations=1)
    rows = [(f"{tol:.0%}", round(d, 2), round(pct, 1), skips, rtx)
            for tol, (d, pct, skips, rtx) in results.items()]
    report("ablation_tolerance", render_table(
        ("Tolerance", "Duration(s)", "Recvd(%)", "Skips", "Retransmits"),
        rows, title="Ablation: receiver loss tolerance on a 10%-loss wire"))

    # Looser tolerance -> more skips, fewer datagrams delivered,
    # and never a slower transfer.
    d = results
    assert d[0.02][2] <= d[0.10][2] <= d[0.50][2]
    assert d[0.02][1] >= d[0.10][1] >= d[0.50][1]
    assert d[0.50][0] <= d[0.02][0] * 1.05
