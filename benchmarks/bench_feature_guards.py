"""What the fault and FEC tiers cost a packet when they are off.

A scenario without a :class:`~repro.faults.FaultSchedule` or a
:class:`~repro.transport.fec.FecConfig` must not pay for machinery it is
not using.  That machinery cannot be compiled out: it hangs off guards on
the per-packet path, and :data:`GUARD_SITES` names what each tier's guards
touch.  How often they are touched is *counted*, not assumed: the transfer
runs once with every named attribute swapped for a stand-in that counts
its reads and stores (:class:`Counted`, the shape of
``bench_obs_overhead.py``'s ``CountingNone``), and the bus for that
bench's ``CountingBus``.

Two transfers are counted.  A clean RUDP transfer over the dumbbell, where
data and ACKs each cross one :class:`~repro.sim.link.Link` (the bottleneck,
booked by the up hop that alone feeds it), an
:class:`~repro.sim.topology.UpHop` and a
:class:`~repro.sim.topology.DownHop`; and the same transfer squeezed by
17 Mb/s of CBR on a cross port, whose train the forward bottleneck reads
(the *train* tier: the link's ``_plain``, ``_busy`` and ``up`` and the
bus's ``enabled``, per bottleneck packet, cross packets included).

The overhead is estimated compositionally -- guards touched per packet x
the measured cost of one guard, against the measured cost of a packet on
the same transfer -- because the guards are interleaved with real work and
cannot be toggled at runtime.  Each tier is gated at :data:`BUDGET_PCT`.
"""

import time

from bench_obs_overhead import CountingBus

from repro.middleware.receiver import DeliveryLog
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import Packet
from repro.sim.topology import Dumbbell
from repro.traffic.cbr import CbrSource
from repro.transport.base import WindowedReceiver, WindowedSender
from repro.transport.rudp import RudpConnection
from repro.transport.udp import UdpSender

#: What each tier's disarmed guards touch: ``(class, attribute)``.  Every
#: read or store of the attribute counts -- a superset of the guards, since
#: a few of those reads do real work.  ``WindowedSender.submit`` stands for
#: its ``deadline > 0.0`` test of a local: one per call.
GUARD_SITES = {
    "fault": [(Link, "_busy"), (Link, "_plain"), (Link, "up"),
              (WindowedSender, "rto_jitter"),
              (WindowedSender, "_consec_timeouts")],
    "fec": [(WindowedSender, "submit"), (WindowedSender, "fec_tx"),
            (WindowedReceiver, "fec"), (Packet, "fec"),
            (Packet, "deadline")],
    "train": [(Link, "_busy"), (Link, "_plain"), (Link, "up"),
              (CountingBus, "enabled")],
}

#: Ceiling per tier, in per cent of a packet's cost.
BUDGET_PCT = 3.0

N_LOOP = 200_000
N_PKTS = 5000
SQUEEZE_BPS = 17e6


_UNSET = object()


class Counted:
    """Stands in for one attribute of a class's instances -- a slot, an
    instance attribute, a class default one may shadow, a method or a
    property -- and counts every read and store, keeping the value where
    the attribute kept it."""

    def __init__(self, cls, name):
        self.cls, self.name = cls, name
        self.inner = cls.__dict__.get(name, _UNSET)
        self.touches = 0

    def __get__(self, obj, owner):
        if obj is None:
            return self
        self.touches += 1
        inner = self.inner
        if hasattr(inner, "__get__"):
            return inner.__get__(obj, owner)
        if inner is _UNSET:
            return obj.__dict__[self.name]
        return obj.__dict__.get(self.name, inner)

    def __set__(self, obj, value):
        self.touches += 1
        if hasattr(self.inner, "__set__"):
            self.inner.__set__(obj, value)
        else:
            obj.__dict__[self.name] = value


def counted(tier, run):
    """Touches of ``tier``'s sites while ``run()`` runs, and its result."""
    stubs = [Counted(cls, name) for cls, name in GUARD_SITES[tier]]
    for stub in stubs:
        setattr(stub.cls, stub.name, stub)
    try:
        result = run()
    finally:
        for stub in stubs:
            if stub.inner is _UNSET:
                delattr(stub.cls, stub.name)
            else:
                setattr(stub.cls, stub.name, stub.inner)
    return sum(stub.touches for stub in stubs), result


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


def _transfer(cbr_bps=0.0, bus=None):
    """A 5 000-datagram RUDP transfer: no schedule, no FEC, squeezed by a
    CBR train on a cross port when ``cbr_bps``.  Returns the datagrams
    delivered and the bottleneck packets (both directions)."""
    sim = Simulator()
    if bus is not None:
        sim.bus = bus
    net = Dumbbell(sim)
    snd, rcv = net.add_flow_hosts("f")
    if cbr_bps:
        port = net.add_cross_port("x")
        CbrSource(sim, UdpSender(sim, port, port=7,
                                 peer_addr=port.peer_address, peer_port=7),
                  rate_bps=cbr_bps)
    log = DeliveryLog()
    conn = RudpConnection(sim, snd, rcv, on_deliver=log.on_deliver)
    assert conn.fec is None
    for i in range(N_PKTS):
        conn.submit(1400, frame_id=i)
    conn.finish()
    while not conn.completed and sim.now < 120.0:
        sim.run(until=sim.now + 1.0)
    assert conn.completed
    return len(log), (net.forward.queue.stats.arrivals
                      + net.backward.queue.stats.arrivals)


def bench_feature_guard_overhead(benchmark):
    """Fault, FEC and train guard cost, each as a fraction of a packet's."""
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
    guard_ns["train"] = guard_ns["fault"]
    # Per datagram (a data packet and its ACK) on the clean transfer; per
    # bottleneck packet on the squeezed one.
    per, packet_ns = {}, {}
    for tier in ("fault", "fec"):
        touches, (datagrams, _) = counted(tier, _transfer)
        per[tier] = touches / datagrams
    packet_ns["fault"] = packet_ns["fec"] = (_best_s(_transfer) / N_PKTS
                                             * 1e9)
    touches, (_, packets) = counted(
        "train", lambda: _transfer(SQUEEZE_BPS, CountingBus()))
    per["train"] = touches / packets
    packet_ns["train"] = (_best_s(lambda: _transfer(SQUEEZE_BPS), repeats=3)
                          / packets * 1e9)
    pct = {tier: 100.0 * guard_ns[tier] * per[tier] / packet_ns[tier]
           for tier in GUARD_SITES}
    print("\nfeature guards: "
          + ", ".join(f"{tier} {per[tier]:.2f} x {guard_ns[tier]:.1f} ns "
                      f"of {packet_ns[tier]:.0f} ns = {pct[tier]:.2f}%"
                      for tier in GUARD_SITES))
    for tier, share in pct.items():
        assert share < BUDGET_PCT, (
            f"disarmed {tier} guards cost {share:.2f}% of a packet, over "
            f"the {BUDGET_PCT:g}% budget")
    assert benchmark(_transfer)[0] == N_PKTS
