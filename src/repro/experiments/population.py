"""Population scenarios: many concurrent foreground flows over one dumbbell.

The paper's evaluation runs a handful of flows; the ROADMAP's north star
(handover studies in the style of Mehani et al., PAPERS.md) needs thousands
of concurrent adaptive sessions to say anything about populations.  This
module is that scenario family:

* every flow under test is a real windowed transport over per-packet
  :class:`~repro.sim.link.Link` hops (one engine event per idle hop);
* background traffic is a :class:`~repro.sim.fluid.FluidSource`, so the
  aggregate exerts congestion pressure at tick cost instead of per-packet
  cost.

Determinism contract: a :class:`PopulationResult` summary is a pure
function of the keyword arguments -- flow start times, transport choices
and every packet timing derive from the seed.  ``bench_population`` gates
wall-clock throughput on top of this; the summary itself carries no
wall-clock numbers.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..sim.engine import Simulator
from ..sim.fluid import FluidSource
from ..sim.rand import RandomStreams
from ..sim.topology import Dumbbell
from .common import TRANSPORTS, make_transport

__all__ = ["PopulationResult", "run_population", "DEFAULT_MIX"]

#: Default foreground transport mix: mostly coordinated IQ-RUDP sessions,
#: some plain RUDP, a TCP minority (weights, not fractions).
DEFAULT_MIX: tuple[tuple[str, float], ...] = (
    ("iq", 6.0), ("rudp", 3.0), ("tcp", 1.0))


class PopulationResult:
    """Aggregate outcome of one population run.

    ``summary`` is the deterministic metric bundle (see keys below);
    ``fcts`` holds per-flow completion times (None for unfinished flows)
    and ``transports`` the per-flow transport assignment, both in flow
    order, for analyses that need the raw distribution.
    """

    def __init__(self, *, summary: dict[str, float],
                 fcts: list[float | None], transports: list[str],
                 sim: Simulator, net: Dumbbell,
                 fluid: FluidSource | None):
        self.summary = summary
        self.fcts = fcts
        self.transports = transports
        self.sim = sim
        self.net = net
        self.fluid = fluid

    def __getitem__(self, key: str) -> float:
        return self.summary[key]


def _percentile(sorted_vals: Sequence[float], q: float) -> float:
    """Nearest-rank percentile on a pre-sorted sequence (deterministic,
    no interpolation dialect to disagree about)."""
    if not sorted_vals:
        return 0.0
    idx = min(int(q * len(sorted_vals)), len(sorted_vals) - 1)
    return sorted_vals[idx]


def run_population(*, n_flows: int = 1000, frames_per_flow: int = 40,
                   frame_bytes: int = 1400,
                   transport_mix: Sequence[tuple[str, float]] = DEFAULT_MIX,
                   bottleneck_bps: float = 200e6, rtt_s: float = 0.030,
                   queue_pkts: int = 256, mss: int = 1400,
                   fluid_bps: float = 50e6,
                   arrival_window_s: float = 2.0,
                   time_cap: float = 60.0, seed: int = 1) -> PopulationResult:
    """Run ``n_flows`` concurrent transfers with fluid background traffic.

    Each flow submits its whole transfer (``frames_per_flow`` frames of
    ``frame_bytes``) at a seeded start time uniform in
    ``[0, arrival_window_s)``, then runs to completion or ``time_cap``.
    Flows are lazily constructed at their start instant, so idle flows cost
    nothing.  Returns a :class:`PopulationResult`.
    """
    if n_flows <= 0:
        raise ValueError("n_flows must be positive")
    if frames_per_flow <= 0:
        raise ValueError("frames_per_flow must be positive")
    if frame_bytes <= 0:
        raise ValueError("frame_bytes must be positive")
    for name, weight in transport_mix:
        if name not in TRANSPORTS:
            raise ValueError(f"unknown transport {name!r} in mix")
        if weight <= 0:
            raise ValueError("mix weights must be positive")

    streams = RandomStreams(seed)
    rng = streams.get("population")
    names = [name for name, _ in transport_mix]
    weights = [w for _, w in transport_mix]
    transports = rng.choices(names, weights=weights, k=n_flows)
    starts = sorted(rng.uniform(0.0, arrival_window_s)
                    for _ in range(n_flows))

    sim = Simulator()
    net = Dumbbell(sim, bottleneck_bps=bottleneck_bps, rtt_s=rtt_s,
                   mss=mss, queue_pkts=queue_pkts)
    fluid = None
    if fluid_bps > 0:
        fluid = FluidSource(sim, net.forward, rate_bps=fluid_bps)

    conns: list[Any] = [None] * n_flows
    fcts: list[float | None] = [None] * n_flows
    done = [0]  # closed-over mutable completion counter

    def _launch(i: int) -> None:
        snd, rcv = net.add_flow_hosts(f"p{i}")
        conn = make_transport(transports[i], sim, snd, rcv, mss=mss,
                              metric_period=0.5, loss_tolerance=None,
                              on_deliver=None)
        conns[i] = conn

        def _complete(t: float, i=i) -> None:
            fcts[i] = t - starts[i]
            done[0] += 1

        conn.sender.on_complete = _complete
        submit = conn.sender.submit
        for frame_id in range(frames_per_flow):
            submit(frame_bytes, frame_id=frame_id)
        conn.finish()

    for i, t0 in enumerate(starts):
        sim.at(t0, _launch, i)

    events = 0
    while sim.now < time_cap and done[0] < n_flows:
        events += sim.run(until=min(sim.now + 1.0, time_cap))
    if fluid is not None:
        fluid.stop()

    # -- aggregate ----------------------------------------------------------
    finished = sorted(t for t in fcts if t is not None)
    goodputs = [frames_per_flow * frame_bytes / t for t in finished if t > 0]
    if goodputs:
        total = sum(goodputs)
        fairness = total * total / (len(goodputs)
                                    * sum(g * g for g in goodputs))
        goodput_mean = total / len(goodputs)
    else:
        fairness = 0.0
        goodput_mean = 0.0
    datagrams = retrans = timeouts = 0
    for conn in conns:
        if conn is None:
            continue
        st = conn.sender.stats
        datagrams += st.submitted_segments
        retrans += st.retransmissions
        timeouts += st.timeouts
    qstats = net.bottleneck_queue.stats
    # The fluid's bytes cross the bottleneck too, as capacity they take.
    fluid_bytes = fluid.served_bytes if fluid is not None else 0.0
    summary: dict[str, float] = {
        "flows": float(n_flows),
        "completed": float(len(finished)),
        "completion_ratio": len(finished) / n_flows,
        "duration_s": sim.now,
        "fct_mean_s": sum(finished) / len(finished) if finished else 0.0,
        "fct_p50_s": _percentile(finished, 0.50),
        "fct_p95_s": _percentile(finished, 0.95),
        "goodput_mean_kBps": goodput_mean / 1e3,
        "fairness": fairness,
        "datagrams": float(datagrams),
        "retransmissions": float(retrans),
        "timeouts": float(timeouts),
        "bottleneck_drops": float(qstats.drops),
        "bottleneck_util": ((net.forward.bytes_sent + fluid_bytes) * 8.0
                            / (net.bottleneck_bps * sim.now)
                            if sim.now > 0 else 0.0),
        "events": float(events),
    }
    if fluid is not None:
        summary["fluid_served_bytes"] = fluid.served_bytes
        summary["fluid_dropped_bytes"] = fluid.dropped_bytes
    return PopulationResult(summary=summary, fcts=fcts,
                            transports=transports, sim=sim, net=net,
                            fluid=fluid)
