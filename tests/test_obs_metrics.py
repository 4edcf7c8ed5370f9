"""Unit tests for the scenario metrics: the bounded deterministic reservoir,
the ``obs_*`` summary export, the one Prometheus writer, the exposition
rendered from a result's own state, and a result stored before the on-disk
format was stamped (``tests/data/greedy20_iq.*``: a 20-frame greedy
IQ-RUDP result saved with ``repro scenario --save``, its summary, and its
``repro report --prom`` text, all written by that earlier code)."""

import json
import pathlib
import pickle
import shutil
from types import SimpleNamespace as NS

import pytest

from repro.experiments.common import ScenarioConfig, ScenarioResult
from repro.obs.metrics import (_series_stats, collect_scenario_metrics,
                               percentile, render_prometheus, reservoir,
                               scenario_prometheus)
from repro.runner.cache import FORMAT, write_pickle

DATA = pathlib.Path(__file__).parent / "data"
#: Stored in format 1, before the format was stamped: every reader
#: refuses it.
FIXTURE = DATA / "greedy20_iq.pkl"
#: ``FIXTURE``'s summary, extracted from it while it still loaded.
FIXTURE_SUMMARY = DATA / "greedy20_iq.summary.json"
FIXTURE_PROM = DATA / "greedy20_iq.prom"
#: The configuration ``FIXTURE`` was run from (``repro scenario
#: --transport iq --workload greedy --frames 20``).
FIXTURE_CFG = ScenarioConfig(transport="iq", workload="greedy", n_frames=20)
#: What refusing ``FIXTURE`` says: its format and this repro's.
REFUSAL = (f"{FIXTURE} is in on-disk format 1; this repro reads format "
           f"{FORMAT} only")


def _fake_run(history=()):
    """Duck-typed finished-run state: a sender, a network, a strategy."""
    stats = NS(packets_sent=12, retransmissions=2, timeouts=0,
               fast_retransmits=1, skips_sent=0, discarded_msgs=3,
               submitted_msgs=10)
    sender = NS(stats=stats, cc=NS(cwnd=12), rtt=NS(rtt=0.04),
                metrics=NS(history=[NS(error_ratio=e, cwnd=c, rtt=r,
                                       rate_bps=b)
                                    for e, c, r, b in history]))
    net = NS(bottleneck_queue=NS(stats=NS(drops=4, arrivals=40,
                                          peak_packets=9, peak_bytes=9000)))
    return dict(conn=NS(sender=sender), net=net,
                strategy=NS(scale=0.5, upper_events=2))


class TestHistogram:
    def test_exact_aggregates_always_tracked(self):
        st = _series_stats(range(100))
        assert st["count"] == 100
        assert st["sum"] == sum(range(100))
        assert st["max"] == 99.0
        assert st["mean"] == pytest.approx(49.5)

    def test_reservoir_stays_bounded(self):
        kept = reservoir(range(10_000), maxlen=64)
        assert 0 < len(kept) <= 64
        assert _series_stats(range(10_000))["count"] == 10_000

    def test_reservoir_is_deterministic(self):
        a = reservoir([v * 0.5 for v in range(5000)], maxlen=32)
        b = reservoir([v * 0.5 for v in range(5000)], maxlen=32)
        assert a == b
        # Systematic decimation: evenly strided from the first value.
        assert a[0] == 0.0
        assert len({y - x for x, y in zip(a, a[1:])}) == 1

    def test_percentile_nearest_rank(self):
        kept = reservoir(range(1, 101), maxlen=256)
        assert percentile(kept, 0) == 1
        assert percentile(kept, 100) == 100
        assert percentile(kept, 50) == pytest.approx(50, abs=1)

    def test_stats_keys_and_empty(self):
        assert _series_stats([]) == {"count": 0.0, "mean": 0.0, "p50": 0.0,
                                     "p95": 0.0, "max": 0.0, "sum": 0.0}
        assert reservoir([]) == [] and percentile([], 95) == 0.0
        one = _series_stats([2.0])
        assert (one["count"], one["mean"]) == (1.0, 2.0)

    def test_rejects_degenerate_maxlen(self):
        with pytest.raises(ValueError):
            reservoir([1.0, 2.0], maxlen=1)


class TestRegistry:
    def test_summary_flattens_with_prefix(self):
        out = collect_scenario_metrics(
            **_fake_run([(0.1, 10, 0.03, 1e6), (0.3, 14, 0.05, 2e6)]))
        assert out["obs_retransmissions"] == 2.0
        assert out["obs_cwnd_final"] == 12.0
        assert out["obs_bottleneck_drops"] == 4.0
        assert out["obs_adapt_scale_final"] == 0.5
        assert out["obs_period_rtt_s_count"] == 2.0
        assert out["obs_period_rtt_s_mean"] == pytest.approx(0.04)
        for stat in ("count", "mean", "p50", "p95", "max"):
            assert f"obs_period_cwnd_{stat}" in out
        assert all(type(v) is float for v in out.values())

    def test_summary_order_is_deterministic(self):
        """Sorted counters, then sorted gauges, then each series sorted by
        name -- whatever order the run state is read in."""
        keys = list(collect_scenario_metrics(
            **_fake_run([(0.1, 10, 0.03, 1e6)])))
        gauges = ["obs_adapt_freq_scale_final", "obs_adapt_scale_final",
                  "obs_bottleneck_peak_bytes", "obs_bottleneck_peak_pkts",
                  "obs_cwnd_final", "obs_rtt_final_s"]
        series = [f"obs_{name}_{stat}"
                  for name in ("period_cwnd", "period_error_ratio",
                               "period_rate_bps", "period_rtt_s")
                  for stat in ("count", "mean", "p50", "p95", "max")]
        counters = keys[:len(keys) - len(gauges) - len(series)]
        assert counters == sorted(counters)
        assert keys[len(counters):] == gauges + series


def test_scenario_summary_carries_obs_metrics():
    """run_scenario rolls the run's metrics into the summary and stores no
    metrics object beside it."""
    from repro.experiments.common import run_scenario
    res = run_scenario(ScenarioConfig(transport="iq", workload="greedy",
                                      n_frames=100, time_cap=60.0)).detach()
    assert "registry" not in vars(res)
    assert res.summary["obs_packets_sent"] >= 100
    assert res.summary["obs_period_error_ratio_count"] > 0
    assert "obs_cwnd_final" in res.summary
    assert "obs_bottleneck_drops" in res.summary
    clone = pickle.loads(pickle.dumps(res))
    assert clone.summary == res.summary
    assert scenario_prometheus(clone) == scenario_prometheus(res)


class TestPrometheusRendering:
    def test_golden_exposition_text(self):
        # Byte-exact golden: the writer pins ordering and number
        # formatting precisely so this test (and diff-based tooling) works.
        st = _series_stats([0.01, 0.03, 0.05])
        blocks = [
            ("packets sent", "counter", [("", {}, 5)]),
            ("cwnd", "gauge", [("", {}, 12.5)]),
            ("rtt_s", "summary", [("", {"quantile": "0.5"}, st["p50"]),
                                  ("", {"quantile": "0.95"}, st["p95"]),
                                  ("_sum", {}, st["sum"]),
                                  ("_count", {}, st["count"])]),
        ]
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
        assert render_prometheus(blocks, "repro_") == expected

    def test_label_values_are_escaped(self):
        text = render_prometheus(
            [("x", "gauge", [("", {"k": 'a"b\\c', "n": 3}, 1)])])
        assert text == '# TYPE x gauge\nx{k="a\\"b\\\\c",n="3"} 1\n'

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
        assert render_prometheus([]) == ""
        # A block without rows writes no TYPE line either.
        assert render_prometheus([("a", "gauge", []),
                                  ("b", "gauge", [("", {}, 1)])]) == \
            "# TYPE b gauge\nb 1\n"

    def test_render_is_deterministic_across_insert_order(self):
        """The run state is read in source order; the exposition sorts
        each type's blocks by name."""
        text = scenario_prometheus(NS(log=None, source=None,
                                      **_fake_run([(0.1, 10, 0.03, 1e6)])))
        types = [line.split()[2:] for line in text.splitlines()
                 if line.startswith("# TYPE")]
        for kind in ("counter", "gauge", "summary"):
            names = [name for name, k in types if k == kind]
            assert names and names == sorted(names)
        assert [k for _, k in types] == sorted(
            (k for _, k in types), key=["counter", "gauge",
                                        "summary"].index)


class TestParentFixture:
    """A result stored before the on-disk format was stamped: each reader
    refuses it without unpickling it, and the file is left as it was."""

    def test_loads_through_results_cache(self, tmp_path, monkeypatch):
        """Through the results cache it is a miss, never unpickled."""
        from repro.runner import ResultsCache, cache

        def load(fh):
            raise AssertionError("a file without the header was unpickled")
        monkeypatch.setattr(cache, "pickle", NS(load=load))
        shutil.copy(FIXTURE, tmp_path / "k.pkl")
        cache = ResultsCache(tmp_path)
        assert cache.get("k", expect=ScenarioResult) is None
        assert (cache.hits, cache.misses) == (0, 1)
        assert (tmp_path / "k.pkl").read_bytes() == FIXTURE.read_bytes()

    def test_loads_through_campaign_store(self, tmp_path):
        """As a campaign cell it is not done."""
        from repro.campaign import CampaignStore
        (tmp_path / "cells").mkdir()
        shutil.copy(FIXTURE, tmp_path / "cells" / "k.pkl")
        assert CampaignStore(tmp_path).cells.get("k") is None

    def test_loads_through_load_artifact(self):
        """As a run artifact it is refused by name."""
        from repro.obs.report import load_artifact
        from repro.runner.cache import FormatError
        with pytest.raises(FormatError) as info:
            load_artifact(FIXTURE)
        assert str(info.value).startswith(REFUSAL)

    @pytest.mark.parametrize("command", [["report"], ["report", "--json"],
                                         ["compare", str(FIXTURE)]])
    def test_cli_refuses_it_in_one_line_naming_both_formats(self, capsys,
                                                           command):
        from repro.cli import main
        before = FIXTURE.read_bytes()
        assert main([command[0], str(FIXTURE), *command[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {REFUSAL} (")
        assert "unreadable" not in err
        assert FIXTURE.read_bytes() == before

    def test_fresh_run_has_fixture_summary(self):
        from repro.experiments.common import run_scenario
        fresh = run_scenario(FIXTURE_CFG).summary
        with open(FIXTURE_SUMMARY) as fh:
            assert list(fresh.items()) == list(json.load(fh).items())


class TestMetricsCli:
    def test_metrics_command_renders_scenario_registry(self, tmp_path,
                                                       capsys):
        """``report --prom`` of the old pickle is refused in one line; a
        fresh save of the same run prints the text the old code printed."""
        from repro.cli import main
        from repro.experiments.common import run_scenario
        expected = FIXTURE_PROM.read_text()
        assert main(["report", str(FIXTURE), "--prom"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {REFUSAL}")
        assert captured.err.count("\n") == 1
        path = tmp_path / "res.pkl"
        write_pickle(path, run_scenario(FIXTURE_CFG).detach())
        assert main(["report", str(path), "--prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_packets_sent counter" in out
        assert out == expected

    def test_metrics_command_missing_registry_is_user_error(self, tmp_path,
                                                            capsys):
        from repro.cli import main
        from repro.runner import FailedResult
        bare = ScenarioResult(summary={}, log=[], conn=None, source=None,
                              strategy=None, net=None, sim=None,
                              completed=0)
        failed = FailedResult(kind="error", message="boom")
        for name, res in (("bare.pkl", bare), ("failed.pkl", failed)):
            path = tmp_path / name
            write_pickle(path, res)
            assert main(["report", str(path), "--prom"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and name in err
            assert "carries no run state for --prom" in err
            assert err.count("\n") == 1
