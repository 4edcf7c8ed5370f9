"""Unit tests for the analysis layer (stats, tables, time series)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import flow_summary, improvement, interarrival_stats
from repro.analysis.tables import fmt, render_comparison, render_table
from repro.analysis.timeseries import ascii_chart, bin_series
from repro.middleware.receiver import DeliveryLog
from repro.sim.packet import Packet


class TestInterarrival:
    def test_regular_arrivals(self):
        mean, std = interarrival_stats(np.array([0.0, 1.0, 2.0, 3.0]))
        assert mean == pytest.approx(1.0)
        assert std == pytest.approx(0.0)

    def test_degenerate_inputs(self):
        assert interarrival_stats(np.array([])) == (0.0, 0.0)
        assert interarrival_stats(np.array([1.0])) == (0.0, 0.0)

    @given(st.lists(st.floats(min_value=0, max_value=1e4,
                              allow_nan=False), min_size=2, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_matches_numpy(self, times):
        t = np.sort(np.asarray(times))
        mean, std = interarrival_stats(t)
        gaps = np.diff(t)
        assert mean == pytest.approx(float(gaps.mean()))
        assert std == pytest.approx(float(gaps.std()))


class TestFlowSummary:
    def _log(self):
        log = DeliveryLog()
        for i, t in enumerate((1.0, 2.0, 3.0, 4.0)):
            p = Packet(flow_id=1, size=1000, frame_id=i, created_at=t - 0.5,
                       tagged=(i % 2 == 0))
            log.on_deliver(p, t)
        return log

    def test_standard_keys(self):
        s = flow_summary(self._log(), submitted_datagrams=5)
        assert s["duration_s"] == 4.0
        assert s["throughput_kBps"] == pytest.approx(1.0)
        assert s["pct_received"] == pytest.approx(80.0)
        assert s["delay_ms"] == pytest.approx(1000.0)
        assert s["owd_ms"] == pytest.approx(500.0)

    def test_start_time_offsets_duration(self):
        s = flow_summary(self._log(), start_time=1.0)
        assert s["duration_s"] == 3.0

    def test_empty_log(self):
        s = flow_summary(DeliveryLog())
        assert s["throughput_kBps"] == 0.0
        assert s["pct_received"] == 0.0


class TestImprovement:
    def test_higher_is_better(self):
        assert improvement(110, 100) == pytest.approx(10.0)

    def test_lower_is_better(self):
        assert improvement(80, 100, lower_is_better=True) == pytest.approx(20.0)

    def test_zero_baseline(self):
        assert improvement(5, 0) == 0.0


class TestTables:
    def test_fmt(self):
        assert fmt(3) == "3"
        assert fmt(3.14159) == "3.14"
        assert fmt(0) == "0"
        assert fmt("x") == "x"
        assert fmt(12345.6) == "12346"

    def test_render_table_alignment(self):
        out = render_table(("a", "bbb"), [(1, 2), (33, 444)], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbb" in lines[1]
        assert len(set(len(l) for l in lines[1:])) <= 2  # consistent width

    def test_render_comparison_contains_both(self):
        out = render_comparison("X", ("c",), [(1,)], [(2,)])
        assert "X -- paper" in out and "X -- measured" in out


class TestTimeseries:
    def test_bin_series_means(self):
        x = np.arange(10, dtype=float)
        y = np.ones(10)
        cx, cy = bin_series(x, y, bins=5)
        assert cx.size == 5
        assert np.allclose(cy, 1.0)

    def test_bin_series_empty(self):
        cx, cy = bin_series(np.empty(0), np.empty(0), bins=5)
        assert cx.size == 0

    def test_ascii_chart_renders(self):
        x = np.linspace(0, 10, 50)
        out = ascii_chart({"sin": (x, np.sin(x)), "cos": (x, np.cos(x))},
                          title="waves", ylabel="amp")
        assert "waves" in out
        assert "*=sin" in out and "o=cos" in out
        assert "*" in out and "o" in out

    def test_ascii_chart_no_data(self):
        out = ascii_chart({}, title="empty")
        assert "no data" in out

    def test_ascii_chart_skips_nans(self):
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([1.0, np.nan, 3.0])
        out = ascii_chart({"s": (x, y)})
        body = "\n".join(l for l in out.splitlines() if l.startswith("|"))
        assert body.count("*") == 2
