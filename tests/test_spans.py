"""Tests for causal frame-lineage spans (ISSUE 7 tentpole part 1).

The contract: ``ScenarioConfig(spans=True)`` yields a lineage artifact
that is a pure function of the config -- byte-identical across worker
counts and cache hit/miss -- whose frame accounting
reconciles exactly with the delivery log.  It keeps no copy of the
coordinator's record, which pairs every attribute exchange with the
coordination action(s) it caused, armed or not.
Arming it must not perturb the summary by a single bit.
"""

from __future__ import annotations

import pickle
from types import SimpleNamespace

import pytest

from repro.analysis.lineage import (frame_accounting,
                                    render_frame_lineage, render_lineage)
from repro.core.coordination import Coordinator
from repro.experiments.common import TRANSPORTS, ScenarioConfig, run_scenario
from repro.obs.report import decision_chain
from repro.obs.spans import FRAME_OUTCOMES
from repro.runner import ResultsCache, run_batch
from repro.runner.cache import write_pickle


def _cfg(transport="iq", **kw) -> ScenarioConfig:
    base = dict(transport=transport, workload="fixed_clocked", n_frames=30,
                time_cap=15.0, spans=True)
    base.update(kw)
    return ScenarioConfig(**base)


def _lineage_bytes(res) -> tuple[bytes, bytes]:
    return pickle.dumps(res.spans), pickle.dumps(res.flight)


# ----------------------------------------------------------------------
# Shape and reconciliation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_frame_accounting_reconciles_with_delivery_log(transport):
    res = run_scenario(_cfg(transport))
    spans = res.spans
    assert spans is not None
    # The reconciliation anchor: frames with >= 1 delivered segment in the
    # lineage must equal the delivery log's frame count exactly
    # (summary["frames_completed"] is DeliveryLog.frames_delivered()).
    assert spans["frames_with_delivery"] == int(
        res.summary["frames_completed"])
    acct = frame_accounting(spans)
    assert acct["frames"] == len(spans["frames"])
    assert set(acct["outcomes"]) <= set(FRAME_OUTCOMES)
    assert sum(acct["outcomes"].values()) == acct["frames"]


def test_spans_disabled_by_default():
    res = run_scenario(ScenarioConfig(transport="iq",
                                      workload="fixed_clocked",
                                      n_frames=30, time_cap=15.0))
    assert res.spans is None


def test_arming_spans_does_not_perturb_summary():
    plain = run_scenario(_cfg(spans=False)).summary
    armed = run_scenario(_cfg(spans=True)).summary
    assert pickle.dumps(plain) == pickle.dumps(armed)


# ----------------------------------------------------------------------
# Purity: jobs / cache
# ----------------------------------------------------------------------
def test_lineage_byte_identical_across_worker_counts():
    cfgs = [_cfg(t, seed=2) for t in TRANSPORTS]
    serial = run_batch(cfgs, jobs=1, cache=False)
    par = run_batch(cfgs, jobs=4, cache=False, timeout=120.0)
    for s, p in zip(serial, par):
        assert _lineage_bytes(s) == _lineage_bytes(p)


def test_lineage_byte_identical_across_cache_hit(tmp_path):
    store = ResultsCache(tmp_path)
    cfgs = [_cfg("iq", seed=3), _cfg("rudp", seed=3)]
    miss = run_batch(cfgs, jobs=1, cache=store)
    assert list(tmp_path.glob("*.pkl"))  # really persisted
    hit = run_batch(cfgs, jobs=1, cache=store)
    for m, h in zip(miss, hit):
        assert _lineage_bytes(m) == _lineage_bytes(h)


# ----------------------------------------------------------------------
# Decision chain (the Table 3 causality, per run)
# ----------------------------------------------------------------------
def _marking_adaptation():
    from repro.middleware.adaptation import MarkingAdaptation
    return MarkingAdaptation(upper=0.05, lower=0.01, backoff=0.10)


def _conflict_cfg(**kw) -> ScenarioConfig:
    base = dict(transport="iq", workload="trace_clocked", frame_rate=25,
                frame_multiplier=3000, n_frames=120,
                adaptation=_marking_adaptation, loss_tolerance=0.40,
                cbr_bps=18.5e6, metric_period=0.25, time_cap=60.0,
                spans=True)
    base.update(kw)
    return ScenarioConfig(**base)


def test_decision_chain_pairs_episodes_with_actions():
    """The coordinator's record pairs without spans armed, and the lineage
    of an armed run keeps no copy of it."""
    coord = run_scenario(_conflict_cfg(spans=False)).conn.sender.coordinator
    assert coord.exchanges, "conflict case must produce attr exchanges"
    chain = decision_chain(coord.exchanges, coord.actions)
    assert len(chain["pairs"]) + len(chain["unmatched_exchanges"]) == len(
        coord.exchanges)
    # Every recorded action either cites a real episode or is
    # transport-initiated (stall degrade/recover).
    assert chain["unmatched_actions"] == []
    chained = [a for pair in chain["pairs"] for a in pair["actions"]]
    assert len(chained) + len(chain["spontaneous"]) == len(coord.actions)
    # The conflict case's point: discards actually happen and are chained
    # to the marking adaptation's attribute exchanges.
    assert any(a["action"] == "discard" for a in chained)
    spans = run_scenario(_conflict_cfg()).spans
    assert not {"episodes", "actions"} & set(spans)


def test_latency_decomposition_sums_to_total():
    spans = run_scenario(_cfg("rudp")).spans
    decomposed = 0
    for fr in spans["frames"]:
        lat = fr["latency"]
        if lat is None:
            continue
        decomposed += 1
        total = (lat["serialization_s"] + lat["queueing_s"]
                 + lat["propagation_s"] + lat["retx_wait_s"])
        assert total == pytest.approx(lat["total_s"], rel=1e-9)
        assert all(v >= 0.0 for v in lat.values())
    assert decomposed > 0


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------
def test_render_lineage_and_frame_lineage():
    res = run_scenario(_cfg("iq"))
    text = render_lineage(res.spans, limit=5)
    assert "Causal lineage: iq/fixed_clocked/seed=1" in text
    assert "frames: 30 submitted" in text
    assert "Decision chain" not in text     # the report's audit shows it
    one = render_frame_lineage(res.spans, 0)
    assert one.startswith("Frame 0 [")
    assert "seg 0" in one
    with pytest.raises(ValueError, match="frame 999 not in lineage"):
        render_frame_lineage(res.spans, 999)


def test_render_lineage_limit_zero_keeps_only_the_undelivered_frames():
    spans = run_scenario(_conflict_cfg()).spans
    frames = spans["frames"]
    undelivered = [f for f in frames if f["outcome"] != "delivered"]
    assert 0 < len(undelivered) < len(frames)
    text = render_lineage(spans, limit=0)
    assert f"Frames ({len(undelivered)}/{len(frames)} shown)" in text


class TestLineageCli:
    def test_lineage_command_runs_and_saves(self, tmp_path, capsys):
        from repro.cli import main
        saved = tmp_path / "lineage.pkl"
        assert main(["scenario", "--transport", "iq", "--workload",
                     "fixed_clocked", "--frames", "30", "--time-cap", "15",
                     "--set", "spans=True", "--save", str(saved)]) == 0
        capsys.readouterr()  # drop the scenario table
        # report renders the saved artifact without re-running.
        assert main(["report", str(saved)]) == 0
        assert "Causal lineage: iq/fixed_clocked/seed=1" in \
            capsys.readouterr().out
        assert main(["report", str(saved), "--frame", "0"]) == 0
        assert capsys.readouterr().out.startswith("Frame 0 [")

    def test_lineage_load_without_spans_is_user_error(self, tmp_path,
                                                      capsys):
        from repro.cli import main
        res = run_scenario(ScenarioConfig(transport="iq",
                                          workload="fixed_clocked",
                                          n_frames=30,
                                          time_cap=15.0)).detach()
        path = tmp_path / "nospans.pkl"
        write_pickle(path, res)
        assert main(["report", str(path), "--frame", "0"]) == 2
        assert "no lineage spans" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Fuzz forensics records
# ----------------------------------------------------------------------
#: A connection whose coordinator heard nothing, for the fake results.
_CONN = SimpleNamespace(sender=SimpleNamespace(coordinator=Coordinator("iq")))


def test_fuzz_compare_emits_forensics_record_on_mismatch():
    from repro.fuzz import FuzzReport, _compare
    from repro.obs.flight import FlightRecorder

    class _Res:
        telemetry = None
        conn = _CONN

        def __init__(self, dur, flight):
            self.summary = {"duration_s": dur}
            self.flight = flight

    def _flight(n):
        fl = FlightRecorder(capacity=8)
        for i in range(n):
            fl.note("run", "E", i=i)
        return fl.dump()

    report = FuzzReport(budget=1, seed=1)
    cfg = _cfg("iq")
    _compare(report, "unit", 0, cfg, _Res(1.0, _flight(3)),
             _Res(2.0, _flight(5)))
    assert report.mismatches
    [rec] = report.forensics
    assert rec["label"] == "unit"
    assert rec["first_divergence"] == 3  # shorter run's first missing id
    assert rec["ref_flight"]["events_noted"] == 3
    assert rec["other_flight"]["events_noted"] == 5


def test_fuzz_compare_identical_runs_emit_no_forensics():
    from repro.fuzz import FuzzReport, _compare

    class _Res:
        telemetry = None
        flight = None
        summary = {"duration_s": 1.0}
        conn = _CONN

    report = FuzzReport(budget=1, seed=1)
    _compare(report, "unit", 0, _cfg("iq"), _Res(), _Res())
    assert not report.mismatches and not report.forensics
