"""Unit tests for the metrics registry: instrument semantics, the bounded
deterministic histogram reservoir, summary export, and pickle transport."""

import pickle

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounterGauge:
    def test_counter_accumulates(self):
        c = Counter("retx")
        c.inc()
        c.inc(3)
        assert c.value == 4.0

    def test_gauge_last_value_wins(self):
        g = Gauge("cwnd")
        g.set(10)
        g.set(2.5)
        assert g.value == 2.5

    def test_pickle_roundtrip(self):
        c, g = Counter("a"), Gauge("b")
        c.inc(7)
        g.set(1.25)
        c2, g2 = pickle.loads(pickle.dumps((c, g)))
        assert (c2.name, c2.value) == ("a", 7.0)
        assert (g2.name, g2.value) == ("b", 1.25)


class TestHistogram:
    def test_exact_aggregates_always_tracked(self):
        h = Histogram("x", maxlen=8)
        for v in range(100):
            h.add(v)
        assert h.count == 100
        assert h.total == sum(range(100))
        assert (h.min, h.max) == (0.0, 99.0)
        assert h.mean == pytest.approx(49.5)

    def test_reservoir_stays_bounded(self):
        h = Histogram("x", maxlen=64)
        for v in range(10_000):
            h.add(v)
        assert len(h.samples) <= 64
        assert h.count == 10_000

    def test_reservoir_is_deterministic(self):
        a, b = Histogram("x", maxlen=32), Histogram("x", maxlen=32)
        for v in range(5000):
            a.add(v * 0.5)
            b.add(v * 0.5)
        assert a.samples == b.samples
        assert a._stride == b._stride

    def test_percentile_nearest_rank(self):
        h = Histogram("x", maxlen=256)
        for v in range(1, 101):
            h.add(v)
        assert h.percentile(0) == 1
        assert h.percentile(100) == 100
        assert h.percentile(50) == pytest.approx(50, abs=1)

    def test_stats_keys_and_empty(self):
        h = Histogram("x")
        empty = h.stats()
        assert empty == {"count": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
                         "p50": 0.0, "p95": 0.0}
        h.add(2.0)
        assert h.stats()["count"] == 1.0
        assert h.stats()["mean"] == 2.0

    def test_rejects_degenerate_maxlen(self):
        with pytest.raises(ValueError):
            Histogram("x", maxlen=1)

    def test_pickle_roundtrip_preserves_reservoir(self):
        h = Histogram("x", maxlen=16)
        for v in range(1000):
            h.add(v)
        h2 = pickle.loads(pickle.dumps(h))
        assert h2.samples == h.samples
        assert (h2.count, h2.total, h2.min, h2.max) == (
            h.count, h.total, h.min, h.max)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_summary_flattens_with_prefix(self):
        reg = MetricsRegistry()
        reg.counter("retx").inc(5)
        reg.gauge("cwnd").set(12.0)
        h = reg.histogram("rtt")
        h.add(0.03)
        h.add(0.05)
        out = reg.summary(prefix="obs_")
        assert out["obs_retx"] == 5.0
        assert out["obs_cwnd"] == 12.0
        assert out["obs_rtt_count"] == 2.0
        assert out["obs_rtt_mean"] == pytest.approx(0.04)
        for stat in ("count", "mean", "p50", "p95", "max"):
            assert f"obs_rtt_{stat}" in out
        assert all(isinstance(v, float) for v in out.values())

    def test_summary_order_is_deterministic(self):
        def build(order):
            reg = MetricsRegistry()
            for name in order:
                reg.counter(name).inc()
            return list(reg.summary())
        assert build(["b", "a", "c"]) == build(["c", "b", "a"])

    def test_registry_pickle_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("sent").inc(9)
        reg.histogram("err").add(0.1)
        reg2 = pickle.loads(pickle.dumps(reg))
        assert reg2.summary() == reg.summary()


def test_scenario_summary_carries_obs_metrics():
    """run_scenario rolls the registry into the summary, and the registry
    itself survives detach()."""
    from repro.experiments.common import ScenarioConfig, run_scenario
    res = run_scenario(ScenarioConfig(transport="iq", workload="greedy",
                                      n_frames=100, time_cap=60.0)).detach()
    assert res.registry is not None
    assert res.summary["obs_packets_sent"] >= 100
    assert res.summary["obs_period_error_ratio_count"] > 0
    assert "obs_cwnd_final" in res.summary
    assert "obs_bottleneck_drops" in res.summary
    clone = pickle.loads(pickle.dumps(res))
    assert clone.summary == res.summary


class TestPrometheusRendering:
    def test_golden_exposition_text(self):
        # Byte-exact golden: render_prometheus pins ordering and number
        # formatting precisely so this test (and diff-based tooling) works.
        reg = MetricsRegistry()
        reg.counter("packets sent").inc(5)
        reg.gauge("cwnd").set(12.5)
        h = reg.histogram("rtt_s")
        for x in (0.01, 0.03, 0.05):
            h.add(x)
        expected = (
            "# TYPE repro_packets_sent counter\n"
            "repro_packets_sent 5\n"
            "# TYPE repro_cwnd gauge\n"
            "repro_cwnd 12.5\n"
            "# TYPE repro_rtt_s summary\n"
            'repro_rtt_s{quantile="0.5"} 0.03\n'
            'repro_rtt_s{quantile="0.95"} 0.05\n'
            "repro_rtt_s_sum 0.09\n"
            "repro_rtt_s_count 3\n"
        )
        assert reg.render_prometheus() == expected

    def test_name_sanitisation_and_prefix(self):
        from repro.obs.metrics import _prom_name
        assert _prom_name("repro_", "queue.fwd-drops") == \
            "repro_queue_fwd_drops"
        assert _prom_name("", "9lives") == "_9lives"

    def test_value_formatting_edges(self):
        from repro.obs.metrics import _prom_value
        assert _prom_value(float("nan")) == "NaN"
        assert _prom_value(float("inf")) == "+Inf"
        assert _prom_value(float("-inf")) == "-Inf"
        assert _prom_value(3.0) == "3"
        assert _prom_value(0.1234567890123) == "0.123456789"

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_render_is_deterministic_across_insert_order(self):
        def build(order):
            reg = MetricsRegistry()
            for name in order:
                reg.counter(name).inc(2)
            return reg.render_prometheus()
        assert build(["b", "a"]) == build(["a", "b"])


class TestMetricsCli:
    def test_metrics_command_renders_scenario_registry(self, tmp_path,
                                                       capsys):
        import pickle
        from repro.cli import main
        from repro.experiments.common import ScenarioConfig, run_scenario
        res = run_scenario(ScenarioConfig(transport="iq", workload="greedy",
                                          n_frames=100,
                                          time_cap=60.0)).detach()
        path = tmp_path / "res.pkl"
        with open(path, "wb") as fh:
            pickle.dump(res, fh)
        assert main(["report", str(path), "--prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_packets_sent counter" in out
        assert out == res.registry.render_prometheus()

    def test_metrics_command_missing_registry_is_user_error(self, tmp_path,
                                                            capsys):
        import pickle
        from repro.cli import main
        from repro.experiments.common import ScenarioResult
        bare = ScenarioResult(summary={}, log=[], conn=None, source=None,
                              strategy=None, net=None, sim=None,
                              completed=0)
        path = tmp_path / "bare.pkl"
        with open(path, "wb") as fh:
            pickle.dump(bare, fh)
        assert main(["report", str(path), "--prom"]) == 2
        assert "error:" in capsys.readouterr().err
