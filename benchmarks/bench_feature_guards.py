"""What the fault and FEC tiers cost a packet when they are off.

A scenario without a :class:`~repro.faults.FaultSchedule` or a
:class:`~repro.transport.fec.FecConfig` must not pay for machinery it is
not using.  That machinery cannot be compiled out: it hangs off guards on
the per-packet path.  :data:`GUARD_SITES` names each one a datagram and
its ACK pass on a clean RUDP transfer over the dumbbell, where the two
cross two :class:`~repro.sim.link.Link` hops (the bottlenecks, each booked
by the up hop that alone feeds it) and two
:class:`~repro.sim.topology.UpHop` and two
:class:`~repro.sim.topology.DownHop` hops, which carry no fault state.

The overhead is estimated compositionally -- the measured cost of one
guard x guards per datagram, against the measured cost of a datagram on a
5 000-datagram transfer -- because the guards are interleaved with real
work and cannot be toggled at runtime.  Each tier is gated at
:data:`BUDGET_PCT`.
"""

import time

from repro.middleware.receiver import DeliveryLog
from repro.sim.engine import Simulator
from repro.sim.topology import Dumbbell
from repro.transport.rudp import RudpConnection

#: Guard reads (and, for FEC, ``Packet`` slot stores) per datagram with the
#: tier off, by site; a datagram is one data packet and its ACK.
GUARD_SITES = {
    "fault": {
        # What a fault installs (loss, jitter, a mutation that puts the
        # link back on the two-event chain, an outage) refuses bookings.
        "Link.book: `_busy`, `_plain`, `up`, 2 links": 6,
        "WindowedSender._arm_rto: `rto_jitter`, once per ACK": 1,
        "WindowedSender._on_new_ack: `_consec_timeouts` (stall), per ACK": 1,
    },
    "fec": {
        "WindowedSender.submit: `deadline > 0.0`": 1,
        "Packet(): `fec` and `deadline` slots, data packet and ACK": 4,
        "WindowedSender._pump: `pkt.deadline`, `fec_tx is not None`": 2,
        "Packet.copy: `fec` and `deadline` slots, the wire copy": 2,
        "WindowedReceiver.receive: `pkt.fec is not None`, "
        "`fec is not None`": 2,
    },
}
GUARDS_PER_PACKET = {tier: sum(sites.values())
                     for tier, sites in GUARD_SITES.items()}

#: Ceiling per tier, in per cent of a datagram's cost.
BUDGET_PCT = 3.0

N_LOOP = 200_000
N_PKTS = 5000


def _best_s(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _plain_loop():
    acc = 0
    for _ in range(N_LOOP):
        acc += 1
    return acc


def _guard_ns(guarded_loop, reads):
    """Cost of one guard: ``guarded_loop`` makes ``reads`` per iteration
    of what :func:`_plain_loop` does bare."""
    return (max(_best_s(guarded_loop) - _best_s(_plain_loop), 0.0)
            / (reads * N_LOOP) * 1e9)


class _LinkShape:
    __slots__ = ("up", "_busy", "_plain")

    def __init__(self):
        self.up = True
        self._busy = False
        self._plain = True


class _PacketShape:
    __slots__ = ("fec", "deadline")

    def __init__(self):
        self.fec = None
        self.deadline = 0.0


def _transfer():
    """A clean 5 000-datagram RUDP transfer: no schedule, no FEC."""
    sim = Simulator()
    net = Dumbbell(sim)
    snd, rcv = net.add_flow_hosts("f")
    log = DeliveryLog()
    conn = RudpConnection(sim, snd, rcv, on_deliver=log.on_deliver)
    assert conn.fec is None
    for i in range(N_PKTS):
        conn.submit(1400, frame_id=i)
    conn.finish()
    sim.run(until=120.0)
    assert conn.completed
    return len(log)


def bench_feature_guard_overhead(benchmark):
    """Fault and FEC guard cost, each as a fraction of a datagram's."""
    lk, pkt = _LinkShape(), _PacketShape()

    def fault_loop():
        acc = 0
        for _ in range(N_LOOP):
            if lk.up and not lk._busy and lk._plain:
                acc += 1
        return acc

    def fec_loop():
        acc = 0
        for _ in range(N_LOOP):
            if pkt.fec is None and not pkt.deadline:
                acc += 1
        return acc

    guard_ns = {"fault": _guard_ns(fault_loop, 3),
                "fec": _guard_ns(fec_loop, 2)}
    packet_ns = _best_s(_transfer) / N_PKTS * 1e9
    pct = {tier: 100.0 * guard_ns[tier] * GUARDS_PER_PACKET[tier] / packet_ns
           for tier in GUARD_SITES}
    print(f"\nfeature guards of a {packet_ns:.0f} ns datagram: "
          + ", ".join(f"{tier} {GUARDS_PER_PACKET[tier]} x "
                      f"{guard_ns[tier]:.1f} ns = {pct[tier]:.2f}%"
                      for tier in GUARD_SITES))
    for tier, share in pct.items():
        assert share < BUDGET_PCT, (
            f"disarmed {tier} guards cost {share:.2f}% of a datagram, over "
            f"the {BUDGET_PCT:g}% budget")
    assert benchmark(_transfer) == N_PKTS
