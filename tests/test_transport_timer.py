"""The lazy retransmission timer against the eager one it replaced.

``WindowedSender`` keeps a deadline and lets the heap entry lag behind it
(DESIGN.md, "Lazy retransmission timer").  :class:`EagerTimerSender` is the
timer as it stood before: cancel and re-schedule on every arm.  Both are
driven through the same scenarios and must agree on every expiry instant
and on everything an expiry touches.
"""

import random

import pytest

from repro.experiments import common
from repro.experiments.common import ScenarioConfig, run_scenario
from repro.faults import (Blackout, BurstyLoss, DelayRamp, FaultSchedule,
                          LinkFlap)
from repro.sim.engine import Event, Simulator
from repro.transport import rudp as rudp_mod
from repro.transport import tcp as tcp_mod
from repro.transport.base import WindowedSender


class EagerTimerSender(WindowedSender):
    """Reference: ``_arm_rto``/``_on_rto`` of the commit before the lazy
    timer.  ``_rto_deadline`` is kept in step with the event only because
    ``_pump`` now asks it whether a timer is armed."""

    def _arm_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None
        self._rto_deadline = None
        if self.inflight > 0:
            rto = self.rtt.rto
            if self.rto_jitter:
                rto *= 1.0 + self.rto_jitter * self._rto_rng.random()
            self._rto_event = self.sim.schedule(rto, self._on_rto)
            self._rto_deadline = self._rto_event.time

    def _on_rto(self) -> None:
        self._rto_event = None
        self._rto_deadline = None
        if self.inflight == 0:
            return
        self.rtt.backoff()
        self.cc.on_timeout(self.inflight)
        self.trace.note("transport", "RTO", flow=self.flow_id,
                        head=self.snd_una, rto=self.rtt.rto,
                        inflight=self.inflight)
        self._in_recovery = False
        self._dup_acks = 0
        self._repaired.clear()
        if self.stall_threshold:
            self._consec_timeouts += 1
            if (not self._stalled
                    and self._consec_timeouts >= self.stall_threshold):
                self._stalled = True
                self.stats.stalls += 1
                self.trace.note("transport", "STALL", flow=self.flow_id,
                                consec_timeouts=self._consec_timeouts)
                self.coordinator.on_stall(self.sim.now)
        self._retransmit(self.snd_una, timeout=True)
        self._arm_rto()


# The unpatched originals: ``_run`` patches both, several times per test.
_MAKE_TRANSPORT = common.make_transport
_CANCEL = Event.cancel

#: Scenario scripts: a 2 Mb/s bottleneck keeps a 400-datagram transfer in
#: flight for ~2.5 s, so every phase below lands mid-transfer.
SCRIPTS = {
    "clean": dict(faults=None),
    "blackout": dict(faults=FaultSchedule(Blackout(start=0.8, stop=2.3))),
    "flap": dict(faults=FaultSchedule(
        LinkFlap(start=0.4, stop=4.0, down_s=0.5, up_s=0.7))),
    "bursty": dict(faults=FaultSchedule(
        BurstyLoss(start=0.2, stop=6.0, p_gb=0.03, p_bg=0.25))),
    # A long path that collapses to a short one: the RTT samples -- and
    # with them the RTO -- shrink while data is in flight, so a freshly
    # computed deadline lands *ahead* of the pending wake-up.  The outage
    # right behind it makes that earlier deadline the one that expires.
    "rto-shrinks": dict(rtt_s=0.8, faults=FaultSchedule(
        DelayRamp(start=1.5, stop=1.6, to_s=0.002, steps=1),
        Blackout(start=1.75, stop=2.6))),
}


def _run(monkeypatch, sender_cls, script, transport, seed, jitter, stall):
    """One scenario on ``sender_cls``; returns what an expiry can touch.
    (Reno without SACK repairs one hole per backed-off RTO after an outage,
    so the TCP rows may end at ``time_cap`` -- on both timers alike.)"""
    monkeypatch.setattr(rudp_mod, "WindowedSender", sender_cls)
    monkeypatch.setattr(tcp_mod, "WindowedSender", sender_cls)
    monkeypatch.setenv("REPRO_FLIGHT", "100000")    # keep every note
    expiries = []
    cancels = [0]

    def make_transport(name, sim, snd_host, rcv_host, *, hardening=None,
                       **kw):
        hard = dict(rto_jitter=jitter, stall_threshold=stall,
                    rto_rng=random.Random(seed) if jitter else None)
        conn = _MAKE_TRANSPORT(name, sim, snd_host, rcv_host,
                               hardening=hard, **kw)
        sender = conn.sender
        backoff = sender.rtt.backoff

        def noting_backoff():       # first thing a real expiry does
            expiries.append((sim.now, sender.snd_una))
            backoff()

        sender.rtt.backoff = noting_backoff
        return conn

    def counting_cancel(self):
        cancels[0] += self._alive
        _CANCEL(self)

    monkeypatch.setattr(common, "make_transport", make_transport)
    monkeypatch.setattr(Event, "cancel", counting_cancel)
    cfg = ScenarioConfig(transport=transport, workload="greedy",
                         n_frames=400, base_frame_size=1400, seed=seed,
                         bottleneck_bps=2e6, time_cap=30.0,
                         **SCRIPTS[script])
    res = run_scenario(cfg)
    sender = res.conn.sender
    rng = sender._rto_rng
    summary = dict(res.summary)
    # The one summary key allowed to move: early wake-ups are fired events.
    summary.pop("events", None)
    return {
        "expiries": expiries,
        "stats": sender.stats.as_dict(),
        "backoff": sender.rtt._backoff,
        "notes": [e for e in res.flight["events"]
                  if e["event"] in ("RTO", "STALL", "RESUME")],
        "rng": rng.getstate() if rng is not None else None,
        "summary": summary,
        "completed": res.completed,
    }, cancels[0]


@pytest.mark.parametrize("stall", [0, 3])
@pytest.mark.parametrize("jitter", [0.0, 0.3])
@pytest.mark.parametrize("transport", ["iq", "rudp", "tcp"])
@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_lazy_timer_matches_eager_timer(monkeypatch, script, transport,
                                        jitter, stall):
    expired = 0
    for seed in range(1, 6):
        lazy, _ = _run(monkeypatch, WindowedSender, script, transport, seed,
                       jitter, stall)
        eager, _ = _run(monkeypatch, EagerTimerSender, script, transport,
                        seed, jitter, stall)
        for key in eager:
            assert lazy[key] == eager[key], (key, seed)
        expired += len(lazy["expiries"])
    if script != "clean":
        assert expired, "the script must expire the timer"


def test_shrinking_rto_moves_the_wakeup_earlier(monkeypatch):
    """The cancel-and-re-post branch of ``_arm_rto`` is the only cancel a
    healthy flow makes; the delay collapse must reach it."""
    _, shrink_cancels = _run(monkeypatch, WindowedSender, "rto-shrinks",
                             "iq", 1, 0.0, 0)
    _, clean_cancels = _run(monkeypatch, WindowedSender, "clean", "iq", 1,
                            0.0, 0)
    assert shrink_cancels > clean_cancels


# ----------------------------------------------------------------------
# Heap hygiene
# ----------------------------------------------------------------------
def test_clean_transfer_leaves_no_dead_timers(monkeypatch):
    cancels = [0]
    compactions = [0]
    worst = [0]
    real_compact = Simulator._compact
    real_tick = WindowedSender._metric_tick

    def counting_cancel(self):
        cancels[0] += 1
        _CANCEL(self)

    def counting_compact(self):
        compactions[0] += 1
        real_compact(self)

    def auditing_tick(self):
        live = sum(1 for entry in self.sim._heap
                   if entry[3]._alive
                   and getattr(entry[3].fn, "__func__", None)
                   is WindowedSender._on_rto
                   and entry[3].fn.__self__ is self)
        worst[0] = max(worst[0], live)
        real_tick(self)

    monkeypatch.setattr(Event, "cancel", counting_cancel)
    monkeypatch.setattr(Simulator, "_compact", counting_compact)
    monkeypatch.setattr(WindowedSender, "_metric_tick", auditing_tick)
    res = run_scenario(ScenarioConfig(transport="iq", workload="greedy",
                                      n_frames=10_000, base_frame_size=1400,
                                      seed=1))
    assert res.completed
    assert res.conn.sender.stats.acked_packets == 10_000
    assert compactions[0] == 0
    assert res.sim._dead == 0
    assert cancels[0] < 10
    assert worst[0] == 1, "one wake-up per sender, never more"


def test_early_wakeup_is_not_a_timeout(monkeypatch):
    """A wake-up that finds the deadline still ahead re-posts itself there
    and touches nothing an expiry would."""
    early = []
    real_on_rto = WindowedSender._on_rto

    def state(s):
        return (s.stats.timeouts, s.stats.retransmissions, s.rtt._backoff,
                s._consec_timeouts, s._stalled, s.trace.ring.dump())

    def watching_on_rto(self):
        if self.sim.now < self._rto_deadline:
            before = state(self)
            real_on_rto(self)
            early.append((before == state(self), self._rto_event.alive,
                          self._rto_event.time == self._rto_deadline))
        else:
            real_on_rto(self)

    monkeypatch.setattr(WindowedSender, "_on_rto", watching_on_rto)
    # Stall detection armed, so ``_consec_timeouts`` is live state.
    monkeypatch.setattr(
        common, "make_transport",
        lambda *a, hardening=None, **kw:
        _MAKE_TRANSPORT(*a, hardening=dict(stall_threshold=3), **kw))
    res = run_scenario(ScenarioConfig(transport="iq", workload="greedy",
                                      n_frames=3000, base_frame_size=1400,
                                      seed=2))
    assert res.completed
    assert early, "a multi-second transfer must wake early at least once"
    assert all(all(row) for row in early)
    assert res.conn.sender.stats.timeouts == 0
