"""Tests for the runtime invariant-checking subsystem (ISSUE 4 part 2).

Two properties matter: the checker *catches* real violations (each law is
exercised by deliberately corrupting the watched state), and the checker
*never perturbs* a healthy run (armed and disarmed summaries must be
bit-identical -- the purity property the fuzzer's pass D re-checks at
scale).
"""

from __future__ import annotations

import pickle
from heapq import heappush

import pytest

from repro.experiments.common import ScenarioConfig, run_scenario
from repro.invariants import (CHECK_PRIORITY, CheckedSimulator,
                              InvariantChecker, InvariantViolation)
from repro.middleware.receiver import DeliveryLog
from repro.sim.engine import Simulator
from repro.sim.topology import Dumbbell
from repro.transport.cc import FixedWindowCC
from repro.transport.rudp import RudpConnection


def _armed(**kw) -> ScenarioConfig:
    base = dict(transport="iq", workload="fixed_clocked", n_frames=40,
                time_cap=20.0, invariants=True)
    base.update(kw)
    return ScenarioConfig(**base)


# ----------------------------------------------------------------------
# The violation object
# ----------------------------------------------------------------------
def test_violation_carries_structure_and_renders():
    exc = InvariantViolation("queue-conservation", "books do not balance",
                             sim_time=1.25, scenario="iq/greedy/seed=1",
                             counters={"arrivals": 10, "departures": 9})
    assert exc.name == "queue-conservation"
    assert exc.sim_time == 1.25
    text = str(exc)
    assert "queue-conservation" in text and "t=1.250000s" in text
    assert "arrivals=10" in text and "iq/greedy/seed=1" in text


def test_violation_survives_pickle_roundtrip():
    exc = InvariantViolation("cwnd-bounds", "too big", sim_time=2.0,
                             scenario="s", counters={"cwnd": 99.0})
    clone = pickle.loads(pickle.dumps(exc))
    assert isinstance(clone, InvariantViolation)
    assert clone.name == exc.name and clone.counters == exc.counters
    assert str(clone) == str(exc)


# ----------------------------------------------------------------------
# Engine: checked run loop + audit
# ----------------------------------------------------------------------
def test_checked_simulator_runs_identically_to_stock():
    def workload(sim):
        order = []
        sim.schedule(0.2, order.append, "b")
        sim.schedule(0.1, order.append, "a")
        sim.schedule(0.1, lambda: sim.schedule(0.05, order.append, "c"))
        fired = sim.run(until=1.0)
        return order, fired, sim.now

    plain = workload(Simulator())
    checked_sim = CheckedSimulator()
    checked = workload(checked_sim)
    assert plain == checked
    assert checked_sim.events_checked == checked[1]


def test_checked_simulator_catches_clock_regression():
    sim = CheckedSimulator()
    sim.at(1.0, lambda: None)
    sim.run(until=2.0)
    # Forge a past-dated heap entry, bypassing the scheduling-time guard
    # (at()/schedule() reject past times, so only heap corruption -- the
    # exact bug class this check exists for -- can produce one).
    ev = sim.at(3.0, lambda: None)
    sim._heap.clear()
    heappush(sim._heap, (0.5, 0, 0, ev))
    with pytest.raises(InvariantViolation) as ei:
        sim.run()
    assert ei.value.name == "time-monotonicity"
    assert ei.value.counters["event_time"] == 0.5


def test_engine_audit_flags_counter_corruption():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    assert sim.audit() is None
    sim._dead = 99  # more dead entries than the heap holds
    assert sim.audit() is not None


# ----------------------------------------------------------------------
# The checker: each law trips on deliberately corrupted state
# ----------------------------------------------------------------------
def test_checker_rejects_bad_period():
    with pytest.raises(ValueError):
        InvariantChecker(Simulator(), period=0.0)


def test_queue_conservation_breach_is_caught():
    sim = Simulator()
    net = Dumbbell(sim)
    checker = InvariantChecker(sim, scenario="tampered")
    checker.watch_network(net)
    checker.check_all()  # healthy books balance
    net.forward.queue.stats.arrivals += 7
    with pytest.raises(InvariantViolation) as ei:
        checker.check_all()
    assert ei.value.name == "queue-conservation"
    assert ei.value.scenario == "tampered"
    assert ei.value.counters["arrivals"] == 7


def test_cwnd_bounds_breach_is_caught():
    cc = FixedWindowCC()
    assert cc.bounds_violation() is None
    cc.cwnd = cc.max_cwnd * 2
    assert cc.bounds_violation() is not None
    cc.cwnd = cc.min_cwnd / 2
    assert cc.bounds_violation() is not None


def test_sequence_regression_is_caught():
    sim = Simulator()
    net = Dumbbell(sim)
    snd, rcv = net.add_flow_hosts("f")
    log = DeliveryLog()
    conn = RudpConnection(sim, snd, rcv, on_deliver=log.on_deliver)
    checker = InvariantChecker(sim)
    checker.watch_flow(conn, log)
    for i in range(20):
        conn.submit(1400, frame_id=i)
    conn.finish()
    sim.run(until=30.0)
    checker.check_all()  # healthy end state passes
    conn.receiver.reorder.rcv_nxt -= 1  # rewind the delivery cursor
    with pytest.raises(InvariantViolation) as ei:
        checker.check_all()
    assert ei.value.name == "sequence-monotonicity"
    assert "rcv_nxt" in str(ei.value)


def test_silent_rto_timer_is_caught():
    """Timer liveness: data in flight needs a deadline and a live wake-up
    at or before it; nothing in flight needs neither."""
    sim = Simulator()
    net = Dumbbell(sim)
    snd, rcv = net.add_flow_hosts("f")
    conn = RudpConnection(sim, snd, rcv)
    checker = InvariantChecker(sim)
    checker.watch_flow(conn, None)
    for i in range(20):
        conn.submit(1400, frame_id=i)
    sender = conn.sender
    sim.run(until=0.02)
    assert sender.inflight > 0
    checker.check_all()  # healthy mid-transfer state passes
    event, deadline = sender._rto_event, sender._rto_deadline

    def caught():
        with pytest.raises(InvariantViolation) as ei:
            checker.check_all()
        assert ei.value.name == "sender-state"
        assert "rto timer" in str(ei.value)

    sender._rto_deadline = None                 # the deadline was lost
    caught()
    sender._rto_deadline = event.time - 1e-3    # the wake-up is too late
    caught()
    sender._rto_deadline = deadline
    event.cancel()                              # the wake-up is dead
    caught()
    sender._rto_event = None
    sender._arm_rto()
    checker.check_all()  # re-armed: healthy again
    conn.finish()
    sim.run(until=30.0)
    checker.check_all()  # drained: no deadline, no violation
    assert sender._rto_deadline is None
    sender._rto_deadline = 31.0                 # armed with nothing to time
    caught()


def test_frame_accounting_breach_is_caught():
    sim = Simulator()
    net = Dumbbell(sim)
    snd, rcv = net.add_flow_hosts("f")
    log = DeliveryLog()
    conn = RudpConnection(sim, snd, rcv, on_deliver=log.on_deliver)
    checker = InvariantChecker(sim)
    checker.watch_flow(conn, log)
    for i in range(10):
        conn.submit(1400, frame_id=i)
    conn.finish()
    sim.run(until=30.0)
    checker.check_all()
    conn.receiver.stats.delivered_packets += 1  # transport/middleware split
    with pytest.raises(InvariantViolation) as ei:
        checker.check_all()
    assert ei.value.name == "frame-accounting"


def test_check_priority_runs_after_same_instant_work():
    # A tick at time T must observe T's post-quiescent state: the
    # CHECK_PRIORITY event fires after an ordinary one at the same time.
    sim = Simulator()
    order = []
    sim.at(1.0, order.append, "check", priority=CHECK_PRIORITY)
    sim.at(1.0, order.append, "work")
    sim.run()
    assert order == ["work", "check"]


# ----------------------------------------------------------------------
# End-to-end arming through run_scenario
# ----------------------------------------------------------------------
@pytest.mark.parametrize("transport", ["tcp", "rudp", "iq"])
def test_armed_scenario_runs_checks_and_matches_disarmed(transport):
    armed = run_scenario(_armed(transport=transport))
    disarmed = run_scenario(_armed(transport=transport, invariants=False))
    assert armed.invariant_checks > 0
    assert disarmed.invariant_checks == 0
    # Purity: arming must not change a single summary bit.
    assert armed.summary == disarmed.summary


def test_env_var_arms_invariants(monkeypatch):
    monkeypatch.setenv("REPRO_INVARIANTS", "1")
    res = run_scenario(_armed(invariants=False))
    assert res.invariant_checks > 0


@pytest.mark.parametrize("value", ["", "0"])
def test_env_var_zero_or_empty_disarms(monkeypatch, value):
    # Like REPRO_FLIGHT / REPRO_HEARTBEAT / REPRO_PROGRESS, "0" is off --
    # which also leaves the (engine-replacing) profiler usable.
    from repro.obs.profiler import profile_scenario
    monkeypatch.setenv("REPRO_INVARIANTS", value)
    assert run_scenario(_armed(invariants=False)).invariant_checks == 0
    res, prof = profile_scenario(_armed(invariants=False))
    assert res.invariant_checks == 0 and prof.events_fired > 0


def test_armed_run_with_faults_and_cross_traffic():
    from repro.faults.schedule import Blackout, FaultSchedule
    res = run_scenario(_armed(
        transport="iq", faults=FaultSchedule(Blackout(0.5, 0.9)),
        cbr_bps=2e6, tcp_cross_bytes=100_000))
    assert res.invariant_checks > 0
    # The blackout exercises the flush path in queue conservation.
    assert not res.failed


def test_violation_surfaces_as_failed_result_in_batch(monkeypatch):
    # Corrupt a watched counter mid-run via a hostile adaptation-like hook:
    # simplest honest route is monkeypatching check_all to trip once the
    # run is underway, proving the runner classifies kind="invariant".
    from repro.runner import FailedResult, run_batch

    real = InvariantChecker.check_all

    def tripping(self):
        real(self)
        if self.checks_run >= 3:
            self._fail("queue-conservation", "synthetic trip for test",
                       arrivals=1, departures=0)

    monkeypatch.setattr(InvariantChecker, "check_all", tripping)
    [res] = run_batch([_armed()], jobs=1, cache=False, on_error="capture")
    assert isinstance(res, FailedResult)
    assert res.kind == "invariant" and not res.transient
    assert "queue-conservation" in res.message
