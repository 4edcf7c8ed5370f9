"""Run-diff tests: first-divergence location, artifact loading, the
identical-vs-perturbed contract, and the ``repro compare`` exit codes."""

import pytest

from repro.analysis.timeseries import first_divergence
from repro.experiments.common import ScenarioConfig, run_scenario
from repro.obs.compare import (compare_artifacts, compare_summaries,
                               compare_telemetry, compare_traces,
                               render_comparison_report)
from repro.obs.report import load_artifact
from repro.obs.telemetry import Series, TelemetryConfig
from repro.runner import run_batch
from repro.runner.cache import write_pickle


def _cfg(**kw):
    defaults = dict(transport="iq", workload="greedy", n_frames=300,
                    base_frame_size=700, cbr_bps=17.5e6, metric_period=0.1,
                    time_cap=60.0,
                    telemetry=TelemetryConfig(cadence_s=0.05))
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def _save(tmp_path, name, cfg):
    path = tmp_path / name
    write_pickle(path, run_scenario(cfg).detach())
    return str(path)


class TestFirstDivergence:
    def test_identical_series(self):
        a = Series("x", bucket_s=1.0, maxlen=8)
        b = Series("x", bucket_s=1.0, maxlen=8)
        for t in range(5):
            a.add(float(t), 2.0)
            b.add(float(t), 2.0)
        assert first_divergence(a, b) is None

    def test_locates_first_bad_bucket(self):
        a = Series("x", bucket_s=1.0, maxlen=8)
        b = Series("x", bucket_s=1.0, maxlen=8)
        for t in range(5):
            a.add(float(t), 2.0)
            b.add(float(t), 2.0 if t < 3 else 9.0)
        div = first_divergence(a, b)
        assert div["bucket"] == 3
        assert div["time_s"] == pytest.approx(3.5)
        assert (div["a"], div["b"]) == (2.0, 9.0)

    def test_eps_tolerance(self):
        a = Series("x", bucket_s=1.0, maxlen=8)
        b = Series("x", bucket_s=1.0, maxlen=8)
        a.add(0.5, 1.0)
        b.add(0.5, 1.05)
        assert first_divergence(a, b, eps=0.1) is None
        assert first_divergence(a, b, eps=0.01)["bucket"] == 0

    def test_length_mismatch_diverges(self):
        a = Series("x", bucket_s=1.0, maxlen=8)
        b = Series("x", bucket_s=1.0, maxlen=8)
        a.add(0.5, 1.0)
        a.add(3.5, 1.0)
        b.add(0.5, 1.0)
        assert first_divergence(a, b)["bucket"] == 3


class TestCompareUnits:
    def test_summary_tolerances(self):
        rows = compare_summaries({"a": 1.0, "b": 5.0}, {"a": 1.04, "b": 5.0},
                                 rtol=0.05)
        by = {r["metric"]: r for r in rows}
        assert by["a"]["within"] and by["b"]["within"]
        rows = compare_summaries({"a": 1.0}, {"a": 1.04})
        assert not rows[0]["within"]

    def test_summary_missing_key_flags(self):
        rows = compare_summaries({"a": 1.0}, {"b": 1.0})
        assert all(not r["within"] for r in rows)

    def test_trace_count_deltas(self):
        ea = [{"layer": "net", "event": "packet_send"}] * 3
        eb = [{"layer": "net", "event": "packet_send"}] * 5
        (row,) = compare_traces(ea, eb)
        assert row == {"event": "net.packet_send", "a": 3, "b": 5,
                       "delta": 2}


class TestCompareArtifacts:
    def test_identical_runs_exit_zero(self, tmp_path):
        a = _save(tmp_path, "a.pkl", _cfg())
        b = _save(tmp_path, "b.pkl", _cfg())
        report = compare_artifacts(a, b)
        assert report.identical
        assert report.exit_code == 0
        assert "IDENTICAL" in render_comparison_report(report)

    def test_perturbed_cc_param_locates_divergence(self, tmp_path):
        a = _save(tmp_path, "a.pkl", _cfg())
        b = _save(tmp_path, "b.pkl", _cfg(transport="rudp_nocc"))
        report = compare_artifacts(a, b)
        assert not report.identical
        assert report.exit_code == 1
        cwnd = next(r for r in report.series if r["series"] == "flow.cwnd")
        assert cwnd["status"] == "diverged"
        assert cwnd["first_divergence"]["bucket"] >= 0
        text = render_comparison_report(report)
        assert "DIVERGED" in text

    def test_trace_artifacts_compare(self, tmp_path):
        cfg = _cfg(telemetry=None)
        pa = tmp_path / "a.jsonl"
        pb = tmp_path / "b.jsonl"
        run_batch([cfg], cache=False, trace=str(pa))
        run_batch([cfg], cache=False, trace=str(pb))
        report = compare_artifacts(pa, pb)
        assert report.identical
        assert report.trace  # event counts were compared
        # Count-level trace diffing is deliberately coarse, so perturb
        # something that must change event counts: the workload size.
        run_batch([cfg.replace(n_frames=150)], cache=False, trace=str(pb))
        assert not compare_artifacts(pa, pb).identical

    def test_traced_result_compares_with_its_trace(self, tmp_path):
        """A result saved from a traced run carries its events as records;
        compare counts them like a trace file's flat dicts."""
        cfg = _cfg(telemetry=None, n_frames=100)
        trace = tmp_path / "t.jsonl"
        [res] = run_batch([cfg], cache=False, trace=str(trace))
        saved = tmp_path / "traced.pkl"
        write_pickle(saved, res.detach())
        for other in (saved, trace):
            report = compare_artifacts(saved, other)
            assert report.identical and report.trace

    def test_result_without_telemetry_noted(self, tmp_path):
        a = _save(tmp_path, "a.pkl", _cfg(telemetry=None))
        b = _save(tmp_path, "b.pkl", _cfg(telemetry=None))
        report = compare_artifacts(a, b)
        assert report.identical
        assert any("telemetry" in n for n in report.notes)

    def test_load_artifact_rejects_junk(self, tmp_path):
        p = tmp_path / "junk.pkl"
        write_pickle(p, {"not": "a result"})
        with pytest.raises(ValueError, match="junk.pkl .*holds dict"):
            load_artifact(p)

    def test_as_dict_is_json_clean(self, tmp_path):
        import json
        a = _save(tmp_path, "a.pkl", _cfg())
        report = compare_artifacts(a, a)
        json.dumps(report.as_dict())  # must not raise


class TestCompareCli:
    def test_exit_codes(self, tmp_path, capsys):
        from repro.cli import main
        a = _save(tmp_path, "a.pkl", _cfg(n_frames=150))
        b = _save(tmp_path, "b.pkl", _cfg(n_frames=150))
        # Pin the congestion window (Table 1's fixed 64 packets) --
        # guaranteed behavioural divergence from the adaptive default.
        c = _save(tmp_path, "c.pkl",
                  _cfg(n_frames=150, transport="rudp_nocc"))
        assert main(["compare", a, b]) == 0
        assert main(["compare", a, c]) == 1
        capsys.readouterr()

    def test_json_output(self, tmp_path, capsys):
        import json
        from repro.cli import main
        a = _save(tmp_path, "a.pkl", _cfg(n_frames=150))
        assert main(["compare", a, a, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["identical"] is True

    def test_nothing_shared_is_user_error(self, tmp_path, capsys):
        """A trace against a result saved without one shares no axis:
        an error naming both paths, never IDENTICAL."""
        from repro.cli import main
        trace = tmp_path / "t.jsonl"
        run_batch([_cfg(telemetry=None, n_frames=100)], cache=False,
                  trace=str(trace))
        saved = _save(tmp_path, "a.pkl", _cfg(telemetry=None, n_frames=100))
        with pytest.raises(ValueError, match="share nothing"):
            compare_artifacts(trace, saved)
        assert main(["compare", str(trace), saved]) == 2
        captured = capsys.readouterr()
        assert "IDENTICAL" not in captured.out
        assert captured.err.startswith("error:")
        assert str(trace) in captured.err and saved in captured.err
        assert captured.err.count("\n") == 1

    def test_missing_file_is_user_error(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["compare", str(tmp_path / "no.pkl"),
                     str(tmp_path / "pe.pkl")]) == 2
        assert "error:" in capsys.readouterr().err
