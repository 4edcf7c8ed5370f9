#!/usr/bin/env python
"""Quickstart: run an IQ-RUDP scenario through the stable public API and
print the metrics the paper's tables report.

This is the smallest end-to-end tour of :mod:`repro.api`:

1. describe the experiment as a :class:`~repro.api.Scenario` (validated at
   construction -- misspell a field and you get a did-you-mean error),
2. :func:`~repro.api.run` it (results come from the persistent cache when
   the identical configuration has run before),
3. read the receiver-side metrics from ``result.summary``,
4. :func:`~repro.api.sweep` the same workload over plain RUDP for contrast.

Run:  python examples/quickstart.py
"""

from repro.api import Scenario, run, sweep
from repro.core.attributes import NET_CWND, NET_ERROR_RATIO
from repro.middleware.adaptation import ResolutionAdaptation


def main() -> None:
    base = Scenario(
        transport="iq",              # the paper's protocol; try "rudp"/"tcp"
        workload="greedy",           # send as fast as IQ-RUDP allows
        n_frames=4000,
        base_frame_size=1400,
        adaptation=lambda: ResolutionAdaptation(upper=0.05, lower=0.005),
        cbr_bps=16e6,                # iperf-style cross traffic
        vbr_mean_bps=1e6,            # MBone-driven VBR cross traffic
        seed=2,
    )
    res = run(base)

    print("=== IQ-RUDP quickstart ===")
    print(f"completed          : {res.completed}")
    s = res.summary
    print(f"duration           : {s['duration_s']:.2f} s")
    print(f"throughput         : {s['throughput_kBps']:.1f} KB/s")
    print(f"datagram delay     : {s['delay_ms']:.2f} ms "
          f"(jitter {s['jitter_ms']:.2f} ms)")
    print(f"delivered          : {s['pct_received']:.1f} % of datagrams")
    print(f"final resolution   : {res.strategy.scale:.2f} x")

    coord = res.conn.coordinator
    print(f"window re-scales   : {coord.count('window_rescale')} "
          f"(coordinated adaptations)")
    print(f"exported error rate: "
          f"{res.conn.query_metric(NET_ERROR_RATIO):.3f}")
    print(f"exported cwnd      : {res.conn.query_metric(NET_CWND):.1f} pkts")

    # The same workload over the uncoordinated transports, as one sweep
    # (TCP has no adaptation callbacks, so the strategy comes off).
    others = sweep({"rudp": base.replace(transport="rudp"),
                    "tcp": base.replace(transport="tcp", adaptation=None)})
    for tp, other in others.items():
        print(f"\n=== same workload over {tp} (no coordination) ===")
        print(f"duration           : {other.summary['duration_s']:.2f} s")
        print(f"throughput         : "
              f"{other.summary['throughput_kBps']:.1f} KB/s")


if __name__ == "__main__":
    main()
