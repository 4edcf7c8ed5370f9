#!/usr/bin/env python
"""IQ-FTP: selectively lossy file transfer (the paper's future-work sketch).

The conclusions describe IQ-FTP, a GridFTP-flavoured transfer "for
selectively lossy file transfers: end users can dynamically select (with
user-provided functions) the most critical file contents to be transferred
to their local sites."  This example implements that idea on IQ-RUDP:

* a file is a sequence of blocks; a user-provided ``criticality(block)``
  function scores each block;
* critical blocks are sent marked (reliable), the rest unmarked;
* under congestion the app lowers its criticality threshold (more blocks
  become droppable) and IQ-RUDP discards unmarked blocks at the sender.

The receiver reports which fraction of the file -- and which fraction of
the *critical* content -- arrived, and how long the transfer took,
coordinated vs uncoordinated.

Run:  python examples/iq_ftp.py
"""

import math
import random

from repro.core.attributes import ADAPT_MARK, ADAPT_WHEN, AttributeSet
from repro.middleware.receiver import DeliveryLog
from repro.sim.engine import Simulator
from repro.sim.topology import Dumbbell
from repro.traffic.cbr import CbrSource
from repro.transport.rudp import RudpConnection
from repro.transport.udp import UdpSender

BLOCK = 1400
N_BLOCKS = 6000


def criticality(block_index: int) -> float:
    """User-provided importance score in [0, 1].

    Here: a synthetic dataset whose header region and periodic index
    blocks matter most, with a smooth interest hump in the middle (say,
    the supernova core the paper's collaboration cares about).
    """
    if block_index < 50 or block_index % 100 == 0:
        return 1.0
    hump = math.exp(-((block_index - N_BLOCKS / 2) / (N_BLOCKS / 6)) ** 2)
    return 0.2 + 0.6 * hump


class IqFtpSender:
    """Transfers the block list, adapting its criticality threshold."""

    def __init__(self, sim, conn):
        self.sim = sim
        self.conn = conn
        self.threshold = 0.0          # blocks below it are droppable
        self.next_block = 0
        conn.register_callbacks(upper=0.05, lower=0.005,
                                on_upper=self.on_congestion,
                                on_lower=self.on_calm)
        conn.sender.on_space = self.pump
        self._pumping = False

    def on_congestion(self, eratio, metrics):
        self.threshold = min(self.threshold + 0.25, 0.75)
        # Tell the transport roughly what fraction just became droppable.
        return AttributeSet({ADAPT_MARK: self.threshold,
                             ADAPT_WHEN: "now"})

    def on_calm(self, eratio, metrics):
        if self.threshold == 0.0:
            return None
        self.threshold = max(self.threshold - 0.25, 0.0)
        return AttributeSet({ADAPT_MARK: self.threshold,
                             ADAPT_WHEN: "now"})

    def pump(self):
        if self._pumping:
            return
        self._pumping = True
        try:
            for _ in range(16):
                if self.next_block >= N_BLOCKS:
                    break
                i = self.next_block
                self.conn.submit(BLOCK,
                                 marked=criticality(i) >= self.threshold,
                                 tagged=criticality(i) >= 0.99,
                                 frame_id=i)
                self.next_block += 1
        finally:
            self._pumping = False
        if self.next_block >= N_BLOCKS and not self.conn.completed:
            try:
                self.conn.finish()
            except Exception:
                pass


def transfer(coordinated: bool) -> dict:
    sim = Simulator()
    net = Dumbbell(sim)
    snd, rcv = net.add_flow_hosts("ftp")
    log = DeliveryLog()
    conn = RudpConnection(sim, snd, rcv, loss_tolerance=0.5,
                          metric_period=0.25, on_deliver=log.on_deliver,
                          law="iq" if coordinated else "rudp")
    ftp = IqFtpSender(sim, conn)

    # Congest the path for the middle of the transfer.
    bg = net.add_cross_port("bg")
    tx = UdpSender(sim, bg, port=9001, peer_addr=bg.peer_address,
                   peer_port=9001)
    CbrSource(sim, tx, rate_bps=18e6, start=1.0, stop=12.0)

    sim.schedule(0.0, ftp.pump)
    while sim.now < 300.0 and not conn.completed:
        sim.run(until=sim.now + 1.0)

    got = set(int(f) for f in log.frame_ids)
    critical = [i for i in range(N_BLOCKS) if criticality(i) >= 0.75]
    return {
        "duration": log.duration,
        "blocks": len(got) / N_BLOCKS * 100,
        "critical": sum(1 for i in critical if i in got)
        / len(critical) * 100,
        "tagged_delay_ms": float(__import__("numpy").diff(
            log.tagged_times()).mean() * 1e3) if
        log.tagged_times().size > 1 else 0.0,
    }


def main() -> None:
    print("IQ-FTP: selectively lossy file transfer "
          f"({N_BLOCKS * BLOCK / 1e6:.1f} MB, congested mid-transfer)\n")
    results = {}
    for name, coordinated in (("IQ-RUDP (coordinated)", True),
                              ("RUDP (uncoordinated)", False)):
        r = results[name] = transfer(coordinated)
        print(f"--- {name} ---")
        print(f"  transfer time      : {r['duration']:.1f} s")
        print(f"  file delivered     : {r['blocks']:.1f} % of blocks")
        print(f"  critical delivered : {r['critical']:.1f} %")
        print(f"  index-block spacing: {r['tagged_delay_ms']:.1f} ms")
    iq, ru = results["IQ-RUDP (coordinated)"], results["RUDP (uncoordinated)"]
    shed = ru["blocks"] - iq["blocks"]
    print(f"\nThe coordinated transfer shed {shed:.0f}% of low-criticality "
          "blocks during the\ncongested phase while critical content "
          f"arrived {iq['critical']:.0f}% complete --\nthe user-selected "
          "data survives, the bulk yields.")


if __name__ == "__main__":
    main()
