"""Tests for the declarative network-dynamics subsystem (:mod:`repro.faults`).

Schedules must behave like every other ``ScenarioConfig`` field (validated,
immutable, hashable, picklable, repr-stable -- the results cache
fingerprints configs via repr), and the injector must translate each phase
kind into exactly the impairment it declares.
"""

import pickle
import random

import pytest

from repro.faults import (BandwidthRamp, Blackout, BurstyLoss, DelayRamp,
                          FaultInjector, FaultSchedule, Jitter, LinkFlap)
from repro.sim.engine import Simulator
from repro.sim.link import DelayJitter, GilbertElliottLoss
from repro.sim.packet import Packet
from repro.sim.topology import Dumbbell


# ----------------------------------------------------------------------
# Gilbert--Elliott loss model
# ----------------------------------------------------------------------
def test_gilbert_elliott_stationary_loss_rate():
    """Long-run loss converges to the bad-state occupancy p_gb/(p_gb+p_bg)
    (classic Gilbert: loss_good=0, loss_bad=1)."""
    p_gb, p_bg = 0.02, 0.2
    model = GilbertElliottLoss(p_gb=p_gb, p_bg=p_bg,
                               rng=random.Random(12345))
    pkt = Packet(flow_id=1, seq=0, size=1400)
    n = 200_000
    dropped = sum(model.drops(pkt) for _ in range(n))
    expected = p_gb / (p_gb + p_bg)
    assert dropped / n == pytest.approx(expected, rel=0.08)
    assert model.offered == n
    assert model.dropped == dropped
    assert model.bursts > 100  # it really alternates, not one long burst


def test_gilbert_elliott_losses_are_bursty():
    """Drops cluster: the mean run length of consecutive drops must be
    well above the IID value (~1) for the same loss rate."""
    model = GilbertElliottLoss(p_gb=0.01, p_bg=0.25, rng=random.Random(7))
    pkt = Packet(flow_id=1, seq=0, size=1400)
    outcomes = [model.drops(pkt) for _ in range(100_000)]
    runs, cur = [], 0
    for hit in outcomes:
        if hit:
            cur += 1
        elif cur:
            runs.append(cur)
            cur = 0
    assert sum(runs) / len(runs) > 2.0  # mean burst length 1/p_bg = 4


def test_gilbert_elliott_validates_probabilities():
    with pytest.raises(ValueError):
        GilbertElliottLoss(p_gb=1.5, p_bg=0.1, rng=random.Random(0))
    with pytest.raises(ValueError):
        GilbertElliottLoss(p_gb=0.0, p_bg=0.0, rng=random.Random(0))


# ----------------------------------------------------------------------
# Schedule construction & config-field contract
# ----------------------------------------------------------------------
def test_phase_validation_rejects_bad_windows_and_directions():
    with pytest.raises(ValueError):
        Blackout(start=-1.0, stop=2.0)
    with pytest.raises(ValueError):
        Blackout(start=2.0, stop=2.0)
    with pytest.raises(ValueError):
        Blackout(start=1.0, stop=2.0, direction="sideways")
    with pytest.raises(ValueError):
        LinkFlap(start=1.0, stop=5.0, down_s=0.0, up_s=1.0)
    with pytest.raises(ValueError):
        BurstyLoss(start=0.0, stop=5.0, p_gb=2.0, p_bg=0.5)
    with pytest.raises(ValueError):
        BandwidthRamp(start=0.0, stop=5.0, to_bps=-1.0)
    with pytest.raises(ValueError):
        DelayRamp(start=0.0, stop=5.0, to_s=0.01, steps=0)
    with pytest.raises(ValueError):
        Jitter(start=0.0, stop=5.0, max_extra_s=0.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, make", [
    ("down_s", lambda: LinkFlap(start=1.0, stop=5.0, down_s=NAN, up_s=0.5)),
    ("start", lambda: LinkFlap(start=NAN, stop=5.0, down_s=0.2, up_s=0.5)),
    ("max_extra_s", lambda: Jitter(start=0.0, stop=5.0, max_extra_s=NAN)),
    ("to_bps", lambda: BandwidthRamp(start=0.0, stop=5.0, to_bps=NAN)),
    ("to_s", lambda: DelayRamp(start=0.0, stop=5.0, to_s=NAN)),
    ("stop", lambda: Blackout(start=1.0, stop=NAN)),
], ids=["flap_down_s", "flap_start", "jitter", "bandwidth", "delay",
        "blackout_stop"])
def test_a_nan_phase_field_is_refused_by_name(field, make):
    """Every comparison with NaN is False, so ``<= 0`` and ``stop <=
    start`` let it through: a flap whose ``down_s`` is NaN never brought
    the link back, and a phase starting at NaN never fired."""
    with pytest.raises(ValueError, match=field):
        make()


def test_a_phase_may_last_forever():
    assert Blackout(start=1.0, stop=INF).stop == INF
    with pytest.raises(ValueError, match="start"):
        Blackout(start=INF, stop=INF)


def test_schedule_requires_phases_and_rejects_non_phases():
    with pytest.raises(ValueError):
        FaultSchedule()
    with pytest.raises(TypeError):
        FaultSchedule("not a phase")


def _flap_schedule() -> FaultSchedule:
    return FaultSchedule(
        LinkFlap(start=5.0, stop=16.0, down_s=0.7, up_s=1.3,
                 direction="both"),
        BurstyLoss(start=3.0, stop=20.0, p_gb=0.01, p_bg=0.25))


def test_schedule_equality_hash_and_repr_round_trip():
    a, b = _flap_schedule(), _flap_schedule()
    assert a == b
    assert hash(a) == hash(b)
    assert a != FaultSchedule(Blackout(start=1.0, stop=2.0))
    # The cache fingerprints configs via repr: it must reproduce the value.
    assert eval(repr(a)) == a  # noqa: S307 - controlled input
    assert repr(a).startswith("FaultSchedule(LinkFlap(")


def test_schedule_is_immutable_and_picklable():
    sched = _flap_schedule()
    with pytest.raises(AttributeError):
        sched.phases = ()
    clone = pickle.loads(pickle.dumps(sched))
    assert clone == sched and hash(clone) == hash(sched)


def test_schedule_horizon_len_iter_describe():
    sched = _flap_schedule()
    assert len(sched) == 2
    assert sched.horizon == 20.0
    assert [type(ph).__name__ for ph in sched] == ["LinkFlap", "BurstyLoss"]
    assert sched.describe() == "2 phase(s): LinkFlap, BurstyLoss"


# ----------------------------------------------------------------------
# Injector: each phase kind does what it declares
# ----------------------------------------------------------------------
def _inject(schedule: FaultSchedule, until: float):
    sim = Simulator()
    net = Dumbbell(sim)
    inj = FaultInjector(sim, net, schedule, random.Random(0))
    inj.install()
    sim.run(until=until)
    return sim, net, inj


def test_blackout_downs_and_restores_links():
    sched = FaultSchedule(Blackout(start=1.0, stop=2.0, direction="both"))
    sim, net, inj = _inject(sched, until=1.5)
    assert not net.forward.up and not net.backward.up
    sim.run(until=3.0)
    assert net.forward.up and net.backward.up
    assert inj.phases_begun == 1 and inj.phases_ended == 1


def test_flap_cycles_and_ends_with_service_restored():
    sched = FaultSchedule(
        LinkFlap(start=1.0, stop=5.0, down_s=0.2, up_s=0.8,
                 direction="fwd"))
    sim, net, inj = _inject(sched, until=10.0)
    assert inj.flap_cycles == 4  # cycles at t=1,2,3,4; window closes at 5
    assert net.forward.up
    assert net.backward.up  # "fwd" never touched the ACK path


def test_bandwidth_ramp_reaches_target_and_holds():
    sched = FaultSchedule(
        BandwidthRamp(start=1.0, stop=3.0, to_bps=10e6, steps=4,
                      direction="fwd"))
    sim, net, inj = _inject(sched, until=2.0)
    assert 10e6 < net.forward.bandwidth_bps < 20e6  # mid-ramp
    sim.run(until=5.0)
    assert net.forward.bandwidth_bps == pytest.approx(10e6)
    assert net.backward.bandwidth_bps == pytest.approx(20e6)


def test_delay_ramp_changes_propagation_delay():
    sched = FaultSchedule(
        DelayRamp(start=1.0, stop=2.0, to_s=0.025, steps=1,
                  direction="both"))
    sim, net, inj = _inject(sched, until=3.0)
    assert net.forward.delay_s == pytest.approx(0.025)
    assert net.backward.delay_s == pytest.approx(0.025)


def test_bursty_loss_installs_and_removes_model():
    sched = FaultSchedule(
        BurstyLoss(start=1.0, stop=2.0, p_gb=0.5, p_bg=0.5))
    sim, net, inj = _inject(sched, until=1.5)
    assert isinstance(net.forward.loss, GilbertElliottLoss)
    sim.run(until=3.0)
    assert not isinstance(net.forward.loss, GilbertElliottLoss)


def test_jitter_installs_and_removes_model():
    sched = FaultSchedule(
        Jitter(start=1.0, stop=2.0, max_extra_s=0.005, direction="bwd"))
    sim, net, inj = _inject(sched, until=1.5)
    assert isinstance(net.backward.jitter, DelayJitter)
    assert net.forward.jitter is None
    sim.run(until=3.0)
    assert net.backward.jitter is None
