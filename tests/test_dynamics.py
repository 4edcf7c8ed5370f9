"""Integration tests for the dynamics sweeps (:mod:`repro.experiments.dynamics`)
and the transport hardening they exercise.

The headline contract: under mid-flow network dynamics, coordinated
IQ-RUDP delivers strictly better frame goodput than uncoordinated RUDP,
and the whole subsystem stays deterministic for any worker count and
cache-keyed on the schedule.
"""

import random

import pytest

from repro.core.metrics_export import MetricsWindow
from repro.experiments.conflict import _changing_app_config
from repro.experiments.dynamics import (SCENARIOS, SCHEDULES,
                                        dynamics_metrics, render_dynamics,
                                        run_dynamics)
from repro.faults import FaultSchedule, LinkFlap
from repro.middleware.receiver import DeliveryLog
from repro.runner import config_key
from repro.sim.engine import Simulator
from repro.sim.topology import Dumbbell
from repro.transport.rudp import RudpConnection


@pytest.fixture(scope="module")
def flap_sweep(tmp_path_factory):
    """One flap sweep, run twice (jobs=1 and jobs=4) with traces."""
    d = tmp_path_factory.mktemp("dyn")
    p1, p4 = d / "jobs1.jsonl", d / "jobs4.jsonl"
    r1 = run_dynamics(schedules=("flap",), jobs=1, cache=False,
                      trace=str(p1))
    r4 = run_dynamics(schedules=("flap",), jobs=4, cache=False,
                      trace=str(p4))
    return r1, r4, p1.read_bytes(), p4.read_bytes()


# ----------------------------------------------------------------------
# The acceptance criterion: coordination wins under dynamics
# ----------------------------------------------------------------------
def test_flap_coordination_beats_uncoordinated_goodput(flap_sweep):
    r1, _, _, _ = flap_sweep
    iq, rudp = r1["flap"]["iq"], r1["flap"]["rudp"]
    assert iq.completed and rudp.completed
    assert (iq.summary["goodput_fps"] > rudp.summary["goodput_fps"]), (
        f"coordinated goodput {iq.summary['goodput_fps']:.2f} fps must "
        f"strictly beat uncoordinated {rudp.summary['goodput_fps']:.2f}")
    # The flap outages are long enough for stall detection to engage on
    # both transports -- the comparison is apples to apples.
    assert iq.summary["stalls"] >= 1 and rudp.summary["stalls"] >= 1
    assert iq.summary["stall_recoveries"] >= 1
    # Coordination shed droppable data; the uncoordinated flow pushed it.
    assert iq.conn.sender.stats.discarded_msgs > 0
    assert rudp.conn.sender.stats.discarded_msgs == 0


def test_render_dynamics_reports_goodput_improvement(flap_sweep):
    r1, _, _, _ = flap_sweep
    text = render_dynamics(r1)
    assert "flap" in text and "goodput vs rudp" in text
    assert "+" in text  # the measured gain is positive
    assert len(dynamics_metrics(r1["flap"]["iq"])) == 5


# ----------------------------------------------------------------------
# Determinism under parallel execution
# ----------------------------------------------------------------------
def test_jobs_do_not_change_results_or_traces(flap_sweep):
    r1, r4, b1, b4 = flap_sweep
    for tp in ("iq", "rudp"):
        assert r1["flap"][tp].summary == r4["flap"][tp].summary
    assert b1 == b4, "trace files must be byte-identical for any jobs N"
    assert b1  # and non-empty


# ----------------------------------------------------------------------
# Cache keying
# ----------------------------------------------------------------------
def test_cache_key_reacts_to_schedule_changes():
    base = _changing_app_config(250, 1)
    flap = base.replace(faults=SCHEDULES["flap"])
    tweaked = base.replace(faults=FaultSchedule(
        LinkFlap(start=5.0, stop=16.0, down_s=0.8, up_s=1.3,
                 direction="both")))
    keys = [config_key(base), config_key(flap), config_key(tweaked)]
    assert None not in keys, "dynamics configs must be cacheable"
    assert len(set(keys)) == 3, "a schedule tweak must change the key"


def test_every_scenario_declares_faults_and_valid_overrides():
    base = _changing_app_config(250, 1)
    for name, spec in SCENARIOS.items():
        assert isinstance(spec["faults"], FaultSchedule), name
        # Overrides must be real config fields (replace validates).
        cell = base.replace(faults=spec["faults"], **spec["overrides"])
        assert cell.faults is spec["faults"]


def test_unknown_scenario_name_fails_loudly():
    with pytest.raises(ValueError, match="unknown dynamics scenario"):
        run_dynamics(schedules=("flapp",), cache=False)


# ----------------------------------------------------------------------
# Transport hardening: stall detection + blackout-aware estimation
# ----------------------------------------------------------------------
def test_stall_detection_counts_stall_and_recovery():
    sim = Simulator()
    net = Dumbbell(sim)
    snd, rcv = net.add_flow_hosts("f")
    log = DeliveryLog()
    conn = RudpConnection(sim, snd, rcv, on_deliver=log.on_deliver,
                          rto_jitter=0.1, rto_rng=random.Random(3),
                          stall_threshold=3)
    for i in range(400):
        conn.submit(1400, frame_id=i)
    conn.finish()
    sim.at(0.3, net.forward.fail)
    sim.at(0.3, net.backward.fail)
    sim.at(3.3, net.forward.recover)
    sim.at(3.3, net.backward.recover)
    sim.run(until=120.0)
    assert conn.completed
    assert conn.sender.stats.stalls == 1
    assert conn.sender.stats.stall_recoveries == 1
    assert list(log.frame_ids) == list(range(400))


def test_stall_detection_disabled_by_default():
    sim = Simulator()
    net = Dumbbell(sim)
    snd, rcv = net.add_flow_hosts("f")
    conn = RudpConnection(sim, snd, rcv)
    for i in range(100):
        conn.submit(1400, frame_id=i)
    conn.finish()
    sim.at(0.3, net.forward.fail)
    sim.at(3.3, net.forward.recover)
    sim.run(until=120.0)
    assert conn.completed
    assert conn.sender.stats.stalls == 0


def test_blackout_periods_do_not_update_clean_error_ratio():
    mw = MetricsWindow(period=0.25)
    mw.count_sent(20)
    mw.count_lost(1)
    pm = mw.roll(0.25, rtt=0.03, cwnd=10.0)
    assert not pm.blackout
    assert mw.last_clean_error_ratio == pytest.approx(pm.error_ratio)
    # An outage period reports ~100% loss; it must not poison the
    # estimator the coordination engine's Eq. 1 correction reads.
    mw.count_sent(5)
    mw.count_lost(5)
    pm2 = mw.roll(0.50, rtt=0.03, cwnd=10.0, blackout=True)
    assert pm2.blackout and pm2.error_ratio == pytest.approx(1.0)
    assert mw.last_clean_error_ratio == pytest.approx(pm.error_ratio)
