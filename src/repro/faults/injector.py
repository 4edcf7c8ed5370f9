"""Translate a :class:`~repro.faults.schedule.FaultSchedule` into simulator
events against a scenario's topology.

The injector is built *inside* ``run_scenario`` from the config alone -- the
schedule plus one named RNG stream (``streams.get("faults")``) -- so a given
(config, seed) pair produces the identical impairment event sequence in any
worker process: fault dynamics are as deterministic and cache-stable as the
rest of the scenario.

Every phase boundary emits a :data:`~repro.obs.events.FAULT_PHASE` trace
event; link outages additionally emit :data:`~repro.obs.events.LINK_FAIL` /
:data:`~repro.obs.events.LINK_RECOVER` from the link itself, so ``repro
report`` timelines show exactly when the network moved underneath the
transport.
"""

from __future__ import annotations

from ..obs.events import FAULT_PHASE
from ..sim.link import DelayJitter, GilbertElliottLoss, Link
from .schedule import (BandwidthRamp, Blackout, BurstyLoss, DelayRamp,
                       FaultSchedule, Jitter, LinkFlap)

__all__ = ["FaultInjector"]


class FaultInjector:
    """Arms one schedule against a dumbbell's bottleneck links.

    Parameters
    ----------
    sim : the scenario's simulator (events are scheduled on it).
    net : a topology exposing ``forward`` / ``backward`` bottleneck links
        (:class:`~repro.sim.topology.Dumbbell`).
    schedule : the declarative phase list.
    rng : dedicated ``random.Random`` for the stochastic phases (bursty
        loss, jitter); derived from the scenario seed so results are
        reproducible for any job count.
    """

    def __init__(self, sim, net, schedule: FaultSchedule, rng) -> None:
        self.sim = sim
        self.net = net
        self.schedule = schedule
        self.rng = rng
        self.trace = sim.bus
        #: Counters for tests and reports.
        self.phases_begun = 0
        self.phases_ended = 0
        self.flap_cycles = 0

    # ------------------------------------------------------------------
    def _links(self, direction: str) -> tuple[Link, ...]:
        if direction == "fwd":
            return (self.net.forward,)
        if direction == "bwd":
            return (self.net.backward,)
        return (self.net.forward, self.net.backward)

    def _mark(self, idx: int, phase, state: str, **extra) -> None:
        counter = "phases_begun" if state == "begin" else "phases_ended"
        setattr(self, counter, getattr(self, counter) + 1)
        tr = self.trace
        if tr.recording:
            tr.cold("net", FAULT_PHASE, phase=idx,
                    kind=type(phase).__name__, state=state,
                    start=phase.start, stop=phase.stop,
                    direction=phase.direction, **extra)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Schedule every phase's begin/end (and interior) events."""
        for idx, phase in enumerate(self.schedule):
            if isinstance(phase, Blackout):
                self._install_blackout(idx, phase)
            elif isinstance(phase, LinkFlap):
                self._install_flap(idx, phase)
            elif isinstance(phase, BurstyLoss):
                self._install_bursty(idx, phase)
            elif isinstance(phase, BandwidthRamp):
                self._install_ramp(idx, phase, kind="bandwidth")
            elif isinstance(phase, DelayRamp):
                self._install_ramp(idx, phase, kind="delay")
            elif isinstance(phase, Jitter):
                self._install_jitter(idx, phase)
            else:  # pragma: no cover - schedule validates construction
                raise TypeError(f"unknown phase {phase!r}")

    # ------------------------------------------------------------------
    def _install_blackout(self, idx: int, ph: Blackout) -> None:
        links = self._links(ph.direction)

        def begin() -> None:
            self._mark(idx, ph, "begin")
            for link in links:
                link.fail()

        def end() -> None:
            for link in links:
                link.recover()
            self._mark(idx, ph, "end")

        self.sim.at(ph.start, begin)
        self.sim.at(ph.stop, end)

    def _install_flap(self, idx: int, ph: LinkFlap) -> None:
        links = self._links(ph.direction)

        def down() -> None:
            # The window closed while this cycle was pending: stay up.
            if self.sim.now >= ph.stop:
                return
            self.flap_cycles += 1
            for link in links:
                link.fail()
            self.sim.schedule(ph.down_s, up)

        def up() -> None:
            for link in links:
                link.recover()
            next_down = self.sim.now + ph.up_s
            if next_down < ph.stop:
                self.sim.schedule(ph.up_s, down)

        def end() -> None:
            for link in links:
                link.recover()  # idempotent: ensures service restored
            self._mark(idx, ph, "end")

        def begin() -> None:
            self._mark(idx, ph, "begin")
            down()

        self.sim.at(ph.start, begin)
        self.sim.at(ph.stop, end)

    def _install_bursty(self, idx: int, ph: BurstyLoss) -> None:
        links = self._links(ph.direction)
        saved: dict[Link, object] = {}

        def begin() -> None:
            self._mark(idx, ph, "begin", p_gb=ph.p_gb, p_bg=ph.p_bg)
            for link in links:
                saved[link] = link.loss
                link.loss = GilbertElliottLoss(
                    p_gb=ph.p_gb, p_bg=ph.p_bg, loss_good=ph.loss_good,
                    loss_bad=ph.loss_bad, rng=self.rng)

        def end() -> None:
            dropped = 0
            for link in links:
                model = link.loss
                if isinstance(model, GilbertElliottLoss):
                    dropped += model.dropped
                link.loss = saved.pop(link)
            self._mark(idx, ph, "end", dropped=dropped)

        self.sim.at(ph.start, begin)
        self.sim.at(ph.stop, end)

    def _install_ramp(self, idx: int, ph, *, kind: str) -> None:
        links = self._links(ph.direction)
        target = ph.to_bps if kind == "bandwidth" else ph.to_s
        base: dict[Link, float] = {}

        def value_of(link: Link) -> float:
            return (link.bandwidth_bps if kind == "bandwidth"
                    else link.delay_s)

        def apply(link: Link, value: float) -> None:
            if kind == "bandwidth":
                link.set_bandwidth(value)
            else:
                link.set_delay(value)

        def step(k: int) -> None:
            frac = k / ph.steps
            for link in links:
                apply(link, base[link] + (target - base[link]) * frac)
            if k == ph.steps:
                self._mark(idx, ph, "end", target=target)

        def begin() -> None:
            self._mark(idx, ph, "begin", target=target)
            for link in links:
                base[link] = value_of(link)
            span = ph.stop - ph.start
            for k in range(1, ph.steps + 1):
                self.sim.schedule(span * k / ph.steps, step, k)

        self.sim.at(ph.start, begin)

    def _install_jitter(self, idx: int, ph: Jitter) -> None:
        links = self._links(ph.direction)

        def begin() -> None:
            self._mark(idx, ph, "begin", max_extra_s=ph.max_extra_s)
            for link in links:
                link.jitter = DelayJitter(max_extra_s=ph.max_extra_s,
                                          p=ph.p, rng=self.rng)

        def end() -> None:
            applied = 0
            for link in links:
                if link.jitter is not None:
                    applied += link.jitter.applied
                link.jitter = None
            self._mark(idx, ph, "end", applied=applied)

        self.sim.at(ph.start, begin)
        self.sim.at(ph.stop, end)
