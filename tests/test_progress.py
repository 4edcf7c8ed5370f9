"""SweepProgress tests: enable-knob resolution, the status line itself,
stdout hygiene, and integration with run_batch."""

import io

from repro.runner import SweepProgress, run_batch
from repro.runner.progress import progress_enabled


class TTYString(io.StringIO):
    def isatty(self):
        return True


class TestEnableKnob:
    def test_tty_sniff_when_env_unset(self):
        """No environment switch: the stream being a terminal decides."""
        assert progress_enabled(TTYString())
        assert not progress_enabled(io.StringIO())
        assert not progress_enabled(object())  # no isatty at all


class TestStatusLine:
    def _progress(self, total, **kw):
        stream = io.StringIO()
        kw.setdefault("min_interval_s", 0.0)
        return SweepProgress(total, stream=stream, enabled=True, **kw), stream

    def test_counts_cached_failed_and_final_newline(self):
        prog, stream = self._progress(3, cached=1)
        prog.update()
        prog.update(failed=True)
        prog.finish()
        out = stream.getvalue()
        assert "sweep: 3/3 done" in out
        assert "1 cached" in out and "1 failed" in out
        assert out.endswith("\n")
        # every redraw overwrites in place -- no newlines mid-stream
        assert out.count("\n") == 1

    def test_eta_appears_only_after_fresh_completions(self):
        prog, stream = self._progress(4, cached=2)
        assert "eta" not in stream.getvalue()  # cache burst: no rate yet
        prog.update()
        assert "eta" in stream.getvalue()

    def test_disabled_instance_writes_nothing(self):
        stream = io.StringIO()
        prog = SweepProgress(5, stream=stream, enabled=False)
        prog.update()
        prog.finish()
        assert stream.getvalue() == ""

    def test_broken_stream_goes_quiet_instead_of_raising(self):
        stream = io.StringIO()
        stream.close()
        prog = SweepProgress(2, stream=stream, enabled=True)
        assert not prog.enabled
        prog.update()  # must not raise
        prog.finish()

    def test_throttle_skips_intermediate_draws(self):
        stream = io.StringIO()
        prog = SweepProgress(100, stream=stream, enabled=True,
                             min_interval_s=3600.0)
        before = len(stream.getvalue())
        for _ in range(50):
            prog.update()
        # only the forced first draw landed; 50 throttled updates drew 0
        assert len(stream.getvalue()) == before


def test_run_batch_progress_keeps_stdout_clean(capsys, monkeypatch):
    from repro.experiments.common import ScenarioConfig
    from repro.runner import progress
    monkeypatch.setattr(progress, "progress_enabled", lambda stream: True)
    cfgs = [ScenarioConfig(transport="rudp", workload="greedy", n_frames=30,
                           time_cap=30.0, seed=s) for s in (1, 2)]
    run_batch(cfgs, cache=False)
    out, err = capsys.readouterr()
    assert out == ""
    assert "sweep: 2/2 done" in err
    assert err.endswith("\n")
