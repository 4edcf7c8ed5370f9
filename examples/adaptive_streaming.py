#!/usr/bin/env python
"""Adaptive scientific-data streaming with down-sampling (paper section 3.4),
built directly on the IQ-ECho event-channel API.

A simulation code streams snapshots to a remote collaborator at a fixed
frame rate.  When the transport reports congestion, the application
down-samples (reduces snapshot resolution); IQ-RUDP re-inflates its packet
window so the flow keeps its fair share of bandwidth instead of
over-reacting.  This example wires the pieces by hand -- event channel,
callbacks, cmwritev_attr -- rather than going through the experiment
harness, to show the programming model a downstream user would adopt.

Run:  python examples/adaptive_streaming.py
"""

from repro.core.attributes import (ADAPT_COND, ADAPT_PKTSIZE, ADAPT_WHEN,
                                   NET_ERROR_RATIO, NET_RTT, AttributeSet)
from repro.middleware.echo import EventChannel
from repro.sim.engine import Simulator
from repro.sim.topology import Dumbbell
from repro.traffic.cbr import CbrSource
from repro.transport.rudp import RudpConnection
from repro.transport.udp import UdpSender

FRAME_RATE = 100.0        # snapshots per second
BASE_SNAPSHOT = 1200      # bytes at full resolution
N_FRAMES = 3000


class StreamingApp:
    """A self-clocked source that owns its resolution control loop."""

    def __init__(self, sim: Simulator, channel: EventChannel):
        self.sim = sim
        self.channel = channel
        self.scale = 1.0
        self.sent = 0
        self.pending_attrs: AttributeSet | None = None
        # Register the threshold callbacks (section 2.1 mechanism 2).
        channel.conn.register_callbacks(
            upper=0.02, lower=0.002,
            on_upper=self.on_congestion, on_lower=self.on_calm)

    # -- transport-triggered callbacks ------------------------------------
    def on_congestion(self, eratio: float, metrics: dict):
        new_scale = max(self.scale * (1.0 - eratio), 0.25)
        if new_scale == self.scale:
            return None
        rate_chg = 1.0 - new_scale / self.scale
        self.scale = new_scale
        # Describe the adaptation to the transport (cmwritev_attr piggyback
        # happens on the next snapshot).
        self.pending_attrs = AttributeSet({
            ADAPT_PKTSIZE: rate_chg,
            ADAPT_WHEN: "now",
            ADAPT_COND: {"error_ratio": eratio,
                         "rate": metrics.get("rate_bps", 0.0)},
        })
        return self.pending_attrs

    def on_calm(self, eratio: float, metrics: dict):
        if self.scale >= 1.0:
            return None
        old = self.scale
        self.scale = min(self.scale * 1.10, 1.0)
        return AttributeSet({ADAPT_PKTSIZE: 1.0 - self.scale / old,
                             ADAPT_WHEN: "now"})

    # -- delay-based adaptation via metric queries (mechanism 1) ----------
    # A smoothly ACK-clocked flow may never *lose* packets under moderate
    # congestion -- the signal shows up as RTT growth (self-queueing), so
    # the app also polls the exported NET_RTT attribute each second.
    def check_delay(self):
        if self.sent >= N_FRAMES:
            return
        rtt = self.channel.conn.query_metric(NET_RTT, 0.03)
        if rtt > 0.050 and self.scale > 0.25:
            self.on_congestion(min((rtt - 0.03) / rtt, 0.5),
                               {"rate_bps": 0.0})
        elif rtt < 0.040:
            self.on_calm(0.0, {})
        self.sim.schedule(1.0, self.check_delay)

    # -- the snapshot clock -------------------------------------------------
    def tick(self):
        if self.sent >= N_FRAMES:
            self.channel.close()
            return
        size = max(int(BASE_SNAPSHOT * self.scale), 64)
        attrs, self.pending_attrs = self.pending_attrs, None
        self.channel.cmwritev_attr(size, attrs)
        self.sent += 1
        self.sim.schedule(1.0 / FRAME_RATE, self.tick)


def main() -> None:
    sim = Simulator()
    net = Dumbbell(sim)
    snd, rcv = net.add_flow_hosts("viz")

    latencies = []
    channel_holder = {}

    def on_deliver(pkt, now):
        channel_holder["ch"].on_deliver(pkt, now)

    conn = RudpConnection(sim, snd, rcv, metric_period=0.25,
                          on_deliver=on_deliver, law="iq")
    channel = EventChannel(sim, conn, name="snapshots")
    channel_holder["ch"] = channel
    channel.subscribe(lambda ev: latencies.append(ev.latency))

    app = StreamingApp(sim, channel)

    # Background congestion: a 19.4 Mb blast for the middle of the run.
    cross = net.add_cross_port("cross")
    cbr_tx = UdpSender(sim, cross, port=9001, peer_addr=cross.peer_address,
                       peer_port=9001)
    CbrSource(sim, cbr_tx, rate_bps=19.4e6, start=5.0, stop=20.0)

    sim.schedule(0.0, app.tick)
    sim.schedule(1.0, app.check_delay)
    while sim.now < 120.0 and not conn.completed:
        sim.run(until=sim.now + 1.0)

    print("=== adaptive streaming over IQ-ECho / IQ-RUDP ===")
    print(f"snapshots sent/delivered : {channel.events_submitted} / "
          f"{channel.events_delivered}")
    print(f"final resolution scale   : {app.scale:.2f}")
    if latencies:
        latencies.sort()
        mid = latencies[len(latencies) // 2]
        p99 = latencies[int(len(latencies) * 0.99)]
        print(f"snapshot latency median  : {mid * 1e3:.1f} ms")
        print(f"snapshot latency p99     : {p99 * 1e3:.1f} ms")
    print(f"window re-scales         : "
          f"{conn.coordinator.count('window_rescale')}")


if __name__ == "__main__":
    main()
