"""Fluid background tier (repro.sim.fluid): coupling, limits, determinism.

FluidSource is an approximation by construction, so it is tested for
*correct pressure*, not bit-identity: the under-load
steady state must reduce to the residual-capacity limit, overload must pin
the link at its guaranteed packet share and shrink the drop-tail budget,
and stop()/profile transitions must restore the nominal operating point.
"""

import pytest

from repro.sim.engine import Simulator
from repro.sim.fluid import FluidSource
from repro.sim.link import Link


class _NullSink:
    def receive(self, pkt):
        pass


def _rig(nominal_bps=20e6, queue_bytes=64 * 1440):
    sim = Simulator()
    link = Link(sim, nominal_bps, 0.010, _NullSink(),
                queue_bytes=queue_bytes)
    return sim, link


def test_validation():
    sim, link = _rig()
    with pytest.raises(ValueError):
        FluidSource(sim, link, rate_bps=-1.0)
    with pytest.raises(ValueError):
        FluidSource(sim, link, rate_bps=1e6, tick_s=0.0)
    with pytest.raises(ValueError):
        FluidSource(sim, link, rate_bps=1e6, share_cap=1.0)
    with pytest.raises(ValueError):
        FluidSource(sim, link, rate_bps=1e6, queue_share=0.0)
    fl = FluidSource(sim, link, rate_bps=1e6)
    with pytest.raises(ValueError):
        fl.set_rate(-5.0)


def test_underload_reduces_to_residual_capacity():
    """rate < share_cap * nominal: no backlog, no drops, and the link is
    re-rated to exactly nominal - rate (the classic fluid limit)."""
    sim, link = _rig(nominal_bps=20e6)
    fl = FluidSource(sim, link, rate_bps=8e6)
    sim.run(until=5.0)
    assert link.bandwidth_bps == pytest.approx(12e6)
    assert fl.backlog_bytes == 0.0
    assert fl.dropped_bytes == 0.0
    assert fl.served_bytes == pytest.approx(fl.offered_bytes)
    assert link.queue.capacity_bytes == fl.base_queue_bytes
    assert fl.ticks == pytest.approx(5.0 / fl.tick_s, abs=2)


def test_overload_saturates_share_and_squeezes_queue():
    """rate > nominal: bandwidth pins at the (1 - share_cap) packet floor,
    the backlog caps at queue_share of the buffer (excess becomes fluid
    drops), and the drop-tail budget shrinks accordingly."""
    sim, link = _rig(nominal_bps=20e6)
    fl = FluidSource(sim, link, rate_bps=40e6,
                     share_cap=0.95, queue_share=0.5)
    sim.run(until=5.0)
    assert link.bandwidth_bps == pytest.approx(0.05 * 20e6)
    assert fl.backlog_bytes == pytest.approx(0.5 * fl.base_queue_bytes)
    assert fl.dropped_bytes > 0.0
    expected_cap = fl.base_queue_bytes - int(fl.backlog_bytes)
    assert link.queue.capacity_bytes == max(expected_cap,
                                            fl.min_queue_bytes)
    # Conservation: offered = served + dropped + standing backlog.
    assert fl.offered_bytes == pytest.approx(
        fl.served_bytes + fl.dropped_bytes + fl.backlog_bytes)


def test_stop_restores_nominal_operating_point():
    sim, link = _rig(nominal_bps=20e6)
    fl = FluidSource(sim, link, rate_bps=40e6, stop=2.0)
    sim.run(until=5.0)
    assert link.bandwidth_bps == fl.nominal_bps
    assert link.queue.capacity_bytes == fl.base_queue_bytes
    assert fl.backlog_bytes == 0.0
    assert fl.dropped_bytes > 0.0  # discarded backlog counts as drops
    assert not fl._running
    # Idempotent.
    fl.stop()
    assert link.bandwidth_bps == fl.nominal_bps


def test_stop_then_start_keeps_one_tick_chain():
    """``stop(); start()`` inside one tick period used to leave the old
    pending tick alive beside the new chain: twice the ticks, half the dt."""
    sim, link = _rig(nominal_bps=20e6)
    fl = FluidSource(sim, link, rate_bps=8e6, tick_s=0.010)

    def bounce():
        fl.stop()
        fl.start()

    sim.at(1.004, bounce)
    sim.run(until=1.0045)
    assert fl.ticks == 100 and sim.pending() == 1
    sim.run(until=2.0045)
    assert fl.ticks == 200 and sim.pending() == 1     # 300 and 2
    assert fl.offered_bytes == pytest.approx(8e6 / 8 * 2.0, rel=1e-9)


def test_profile_steps_change_rate():
    sim, link = _rig(nominal_bps=20e6)
    fl = FluidSource(sim, link, rate_bps=5e6,
                     profile=[(1.0, 15e6), (2.0, 0.0)])
    sim.run(until=0.9)
    assert link.bandwidth_bps == pytest.approx(15e6, rel=0.01)
    sim.run(until=1.9)
    assert fl.rate_bps == 15e6
    assert link.bandwidth_bps == pytest.approx(5e6, rel=0.01)
    sim.run(until=3.0)
    assert fl.rate_bps == 0.0
    assert link.bandwidth_bps == pytest.approx(20e6, rel=0.01)


def test_deterministic():
    """No RNG anywhere: two identical runs agree to the bit."""
    def run():
        sim, link = _rig()
        fl = FluidSource(sim, link, rate_bps=13e6,
                         profile=[(0.5, 25e6), (1.5, 4e6)])
        sim.run(until=3.0)
        return (link.bandwidth_bps, link.queue.capacity_bytes,
                fl.telemetry_probe())

    assert run() == run()


def test_telemetry_probe_keys():
    sim, link = _rig()
    fl = FluidSource(sim, link, rate_bps=1e6)
    sim.run(until=0.5)
    probe = fl.telemetry_probe()
    assert set(probe) == {"offered_bytes", "served_bytes", "dropped_bytes",
                          "backlog_bytes", "rate_bps"}
    assert probe["rate_bps"] == 1e6


def test_pressure_tracks_cbr_direction():
    """Directional sanity vs the packet-level CbrSource it replaces: a
    foreground greedy flow must see *less* goodput as the background rate
    rises, under either background model."""
    from repro.experiments.common import ScenarioConfig, run_scenario

    def goodput(fluid_bps, cbr_bps):
        # 8 Mbps bottleneck so 7 Mbps of background genuinely squeezes
        # the ~0.9 Mbps foreground demand.
        cfg = ScenarioConfig(transport="rudp", workload="greedy",
                             n_frames=100, cbr_bps=cbr_bps,
                             fluid_bps=fluid_bps, time_cap=60.0,
                             bottleneck_bps=8e6)
        return run_scenario(cfg).summary["throughput_kBps"]

    fluid_lo, fluid_hi = goodput(1e6, 0.0), goodput(7e6, 0.0)
    cbr_lo, cbr_hi = goodput(0.0, 1e6), goodput(0.0, 7e6)
    assert fluid_hi < 0.95 * fluid_lo
    assert cbr_hi < cbr_lo
    # Same ballpark as the packet model it replaces (approximation: 2x).
    assert 0.5 * cbr_hi < fluid_hi < 2.0 * cbr_hi
