"""Unit tests for RTT estimation and RTO management."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.transport.base import WindowedSender
from repro.transport.lda import LdaCC
from repro.transport.rtt import RttEstimator


def test_validation():
    with pytest.raises(ValueError):
        RttEstimator(min_rto=0)
    with pytest.raises(ValueError):
        RttEstimator(min_rto=1.0, max_rto=0.5)


def test_initial_rto_before_samples():
    est = RttEstimator(initial_rto=1.0)
    assert est.rto == 1.0
    assert est.rtt == 0.1  # pre-sample guess


def test_first_sample_initialises_srtt():
    est = RttEstimator()
    est.sample(0.1)
    assert est.srtt == pytest.approx(0.1)
    assert est.rttvar == pytest.approx(0.05)
    assert est.rto == pytest.approx(max(0.1 + 4 * 0.05, 0.2))


def test_negative_sample_rejected():
    with pytest.raises(ValueError):
        RttEstimator().sample(-0.1)


def test_smoothing_converges():
    est = RttEstimator()
    for _ in range(100):
        est.sample(0.05)
    assert est.srtt == pytest.approx(0.05, rel=1e-3)
    assert est.rttvar == pytest.approx(0.0, abs=1e-3)


def test_rto_floor():
    est = RttEstimator(min_rto=0.2)
    for _ in range(100):
        est.sample(0.01)
    assert est.rto == 0.2


def test_rto_ceiling():
    est = RttEstimator(max_rto=5.0)
    est.sample(10.0)
    for _ in range(10):
        est.backoff()
    assert est.rto == 5.0


def test_backoff_doubles_and_caps():
    est = RttEstimator(min_rto=0.2, max_rto=100.0)
    est.sample(0.1)
    base = est.rto
    est.backoff()
    assert est.rto == pytest.approx(min(base * 2, 100.0))
    for _ in range(20):
        est.backoff()
    assert est.rto <= 16.0 * max(base, 0.2) + 1e-9


def test_sample_resets_backoff():
    est = RttEstimator()
    est.sample(0.1)
    base = est.rto
    est.backoff()
    est.backoff()
    est.sample(0.1)
    assert est.rto == pytest.approx(base, rel=0.2)


def test_variance_tracks_jitter():
    est = RttEstimator()
    for i in range(200):
        est.sample(0.1 if i % 2 else 0.2)
    assert est.rttvar > 0.02


@given(st.lists(st.floats(min_value=1e-4, max_value=10.0,
                          allow_nan=False), min_size=1, max_size=100))
@settings(max_examples=100, deadline=None)
def test_rto_always_within_bounds(samples):
    """Invariant: RTO stays in [min_rto, max_rto] under any sample path."""
    est = RttEstimator(min_rto=0.2, max_rto=5.0)
    for s in samples:
        est.sample(s)
        assert 0.2 <= est.rto <= 5.0
        assert est.srtt is not None and est.srtt > 0


class _Host:
    address = 1

    def bind(self, port, endpoint):
        pass


def _clamped(est):
    return min(max(est._rto * est._backoff, est.min_rto), est.max_rto)


@given(st.lists(st.one_of(st.none(), st.floats(min_value=0.0,
                                                max_value=20.0)),
                min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_the_armed_rto_is_the_clamped_product(ops):
    """``rto`` is kept, not computed on each read: after any interleaving
    of samples (numbers) and backoffs (None) it is still what the read
    computed, and it is what a sender arms its timer with."""
    sim = Simulator()
    sender = WindowedSender(sim, _Host(), port=1, peer_addr=2, peer_port=1,
                            cc=LdaCC())
    est = sender.rtt
    assert est.rto == _clamped(est)
    for op in ops:
        if op is None:
            est.backoff()
        else:
            est.sample(op)
        assert est.rto == _clamped(est)
    sender.snd_nxt = 1      # one packet in flight: arming sets a deadline
    sender._arm_rto()
    assert sender._rto_deadline == sim.now + _clamped(est)
