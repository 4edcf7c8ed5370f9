"""Telemetry tests: series downsampling determinism and memory bounds,
recorder wiring, no-perturbation of summaries, byte-identity across worker
counts and cache hit/miss, and the coordinator's record on the series'
clock."""

import math
import pickle

import pytest

from repro.experiments.common import ScenarioConfig, run_scenario
from repro.middleware.adaptation import ResolutionAdaptation
from repro.obs.telemetry import BUCKETS, Series, TelemetryConfig
from repro.runner import ResultsCache, config_fingerprint, run_batch


def _resolution():
    return ResolutionAdaptation(upper=0.05, lower=0.005)


def _congested(seed=2, **kw):
    """Congested IQ scenario (same shape as the trace tests): adaptation
    fires, so the coordinator records actions beside the sampled series."""
    defaults = dict(transport="iq", workload="greedy", n_frames=800,
                    base_frame_size=700, cbr_bps=17.5e6, vbr_mean_bps=1e6,
                    metric_period=0.1, adaptation=_resolution, seed=seed,
                    time_cap=120.0,
                    telemetry=TelemetryConfig(cadence_s=0.05))
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestTelemetryConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TelemetryConfig(cadence_s=0.0)
        # One knob: the bucket budget is the module's, annotations are gone.
        for knob in ("buckets", "annotations_max"):
            with pytest.raises(TypeError):
                TelemetryConfig(**{knob: 8})
        assert repr(TelemetryConfig()) == "TelemetryConfig(cadence_s=0.1)"

    @pytest.mark.parametrize("cadence", [math.nan, math.inf, 1e-300])
    def test_rejects_a_cadence_that_cannot_sample(self, cadence):
        """A NaN cadence crashed the run mid-way, an infinite one recorded
        nothing, and one too small to move the clock hung it."""
        with pytest.raises(ValueError, match="cadence_s"):
            TelemetryConfig(cadence_s=cadence)
        assert TelemetryConfig(cadence_s=1e-3).cadence_s == 1e-3

    def test_repr_is_stable_for_cache_keys(self):
        # config_fingerprint uses repr(value); equal configs must produce
        # equal fingerprints and a changed cadence must change them.
        a = _congested()
        b = _congested()
        c = _congested(telemetry=TelemetryConfig(cadence_s=0.2))
        d = _congested(telemetry=None)
        assert config_fingerprint(a) == config_fingerprint(b)
        assert config_fingerprint(a) != config_fingerprint(c)
        assert config_fingerprint(a) != config_fingerprint(d)

    def test_scenario_config_rejects_wrong_type(self):
        with pytest.raises(TypeError):
            ScenarioConfig(telemetry=0.1)


class TestSeries:
    def test_bucket_fold(self):
        s = Series("x", bucket_s=1.0, maxlen=8)
        s.add(0.1, 2.0)
        s.add(0.9, 4.0)
        s.add(2.5, 10.0)
        assert s.counts() == [2, 0, 1]
        assert s.means() == [3.0, None, 10.0]
        assert s.mins()[0] == 2.0 and s.maxs()[0] == 4.0

    def test_memory_stays_bounded_by_halving(self):
        s = Series("x", bucket_s=1.0, maxlen=16)
        for t in range(10_000):
            s.add(float(t), float(t))
        assert len(s) <= 16
        assert s.samples == 10_000
        # Aggregates survive every merge exactly.
        total = sum(b[1] for b in s._buckets if b is not None)
        assert total == sum(range(10_000))
        assert s.maxs()[-1] == 9999.0

    def test_halving_is_deterministic(self):
        a = Series("x", bucket_s=0.5, maxlen=32)
        b = Series("x", bucket_s=0.5, maxlen=32)
        for t in range(3000):
            a.add(t * 0.1, t * 0.25)
            b.add(t * 0.1, t * 0.25)
        assert a == b
        assert a.bucket_s == b.bucket_s


class TestRecorderEndToEnd:
    def test_series_and_annotations_captured(self):
        # 2000 frames (the trace tests' size): long enough under load for
        # resolution adaptation to shrink frames below the MSS and trigger
        # the coordinator's window rescale.
        res = run_scenario(_congested(n_frames=2000))
        tm = res.telemetry
        assert tm is not None
        names = tm.names()
        for expect in ("flow.cwnd", "flow.flightsize", "flow.srtt_s",
                       "flow.rto_s", "flow.loss_ratio", "flow.goodput_bps",
                       "queue.bottleneck-fwd.pkts",
                       "queue.bottleneck-fwd.drops",
                       "link.bottleneck-fwd.util"):
            assert expect in names
        assert tm.ticks > 0
        cwnd = tm.series["flow.cwnd"]
        assert 0 < len(cwnd) <= BUCKETS
        # Congestion + resolution adaptation => window rescales, which the
        # coordinator records on the series' clock: each lands in a
        # sampled cwnd bucket.
        rescales = [a["t"] for a in res.conn.sender.coordinator.actions
                    if a["action"] == "window_rescale"]
        assert rescales
        counts = cwnd.counts()
        for t in rescales:
            idx = int(t / cwnd.bucket_s)
            assert idx < len(counts) and counts[idx] > 0
        util = tm.series["link.bottleneck-fwd.util"].maxs()
        assert max(v for v in util if v is not None) <= 1.5

    def test_summary_not_perturbed_by_telemetry(self):
        armed = run_scenario(_congested())
        disarmed = run_scenario(_congested(telemetry=None))
        assert armed.summary == disarmed.summary
        assert disarmed.telemetry is None

    def test_disarmed_run_has_no_recorder_events(self):
        res = run_scenario(_congested(telemetry=None))
        assert res.telemetry is None
        assert res.conn.sender.trace is res.sim.bus

    def test_byte_identical_across_worker_counts(self):
        cfgs = {f"s{seed}": _congested(seed=seed) for seed in (1, 2)}
        r1 = run_batch(cfgs, jobs=1, cache=False)
        r4 = run_batch(cfgs, jobs=4, cache=False)
        for key in cfgs:
            assert pickle.dumps(r1[key].telemetry) == \
                pickle.dumps(r4[key].telemetry)

    def test_byte_identical_cache_hit_vs_miss(self, tmp_path):
        cache = ResultsCache(tmp_path)
        cfg = _congested(adaptation=None)  # hashable -> cacheable
        fresh = run_batch([cfg], cache=cache)[0]
        assert cache.hits == 0
        hit = run_batch([cfg], cache=cache)[0]
        assert cache.hits == 1
        assert hit.telemetry is not None
        assert pickle.dumps(fresh.telemetry) == pickle.dumps(hit.telemetry)
