"""Application-tailored reliability: the FEC repair tier and
deadline-aware frame scheduling (:mod:`repro.transport.fec`).

Contracts under test:

* **Disarmed purity** -- with ``fec=None`` every transport's summary is
  identical across jobs=1/4 and cache hit/miss, and carries none of the
  armed-only FEC/deadline keys.
* **Armed determinism** -- an armed run is a pure function of its
  config: re-running it (serial, parallel) reproduces summaries
  and traces byte-for-byte.
* **Recovery without retransmission** -- single in-generation losses are
  rebuilt from XOR repair datagrams; unrecoverable generations fall back
  to the existing ARQ machinery and every frame still arrives.
* **The headline ordering** -- IQ-RUDP with the repair tier armed
  delivers strictly more frame goodput than ARQ-only IQ-RUDP under the
  Gilbert-Elliott burst and handover-blackout schedules.
"""

import pytest

from repro.experiments.common import (TRANSPORTS, ScenarioConfig,
                                      run_scenario)
from repro.experiments.reliability import (ARMS, SCENARIOS,
                                           reliability_metrics,
                                           render_reliability,
                                           run_reliability)
from repro.faults import Blackout, BurstyLoss, FaultSchedule
from repro.middleware.adaptation import FecAdaptation
from repro.runner import ResultsCache, config_key, run_batch
from repro.transport.fec import FecConfig, FecState

ARMED_KEYS = ("obs_fec_repairs_sent", "obs_fec_recovered",
              "obs_fec_unrecoverable", "obs_fec_repairs_unused",
              "obs_fec_repair_bytes", "obs_fec_redundancy_final",
              "obs_coord_fec_adaptations", "obs_coord_fec_boosts",
              "obs_abandoned_msgs_deadline", "obs_abandoned_bytes_deadline")


def _small(transport: str, **kw) -> ScenarioConfig:
    base = dict(transport=transport, workload="greedy", n_frames=40,
                base_frame_size=1400, seed=5, time_cap=120.0)
    base.update(kw)
    return ScenarioConfig(**base)


def _lossy(fec, **kw) -> ScenarioConfig:
    """A bursty-loss run sized so FEC has losses to repair."""
    base = dict(transport="iq", workload="fixed_clocked", n_frames=120,
                frame_rate=25, base_frame_size=2800, seed=3,
                time_cap=300.0, fec=fec,
                faults=FaultSchedule(
                    BurstyLoss(start=0.5, stop=8.0, p_gb=0.02, p_bg=0.3)))
    base.update(kw)
    return ScenarioConfig(**base)


# ----------------------------------------------------------------------
# FecConfig parsing and state invariants
# ----------------------------------------------------------------------
def test_fec_config_parse_dialect():
    assert FecConfig.parse(None) is None
    assert FecConfig.parse("none") is None
    cfg = FecConfig.parse("8/2")
    assert (cfg.k, cfg.r, cfg.r_max, cfg.adaptive) == (8, 2, 2, True)
    cfg = FecConfig.parse("8/1/3/static")
    assert (cfg.k, cfg.r, cfg.r_max, cfg.adaptive) == (8, 1, 3, False)
    assert FecConfig.parse(cfg) is cfg
    assert FecConfig.parse({"k": 4, "r": 1}) == FecConfig(k=4, r=1)
    with pytest.raises(ValueError, match="cannot parse fec spec"):
        FecConfig.parse("nonsense")
    with pytest.raises(ValueError):
        FecConfig(k=2, r=2)  # r must stay below k
    # The repr is the cache/fingerprint identity: stable and eval-shaped.
    assert repr(FecConfig.parse("8/2")) == \
        "FecConfig(k=8, r=2, r_max=2, adaptive=True)"


def test_fec_state_clamps_redundancy_and_conserves():
    state = FecState(FecConfig(k=8, r=1, r_max=3))
    assert state.r == 1
    state.set_redundancy(99)
    assert state.r == 3
    state.set_redundancy(0)
    assert state.r == 1
    assert state.conservation_violation() is None
    state.recovered = 5  # recovered without any repairs sent
    assert state.conservation_violation() is not None


def test_tcp_rejects_fec():
    with pytest.raises(ValueError, match="TCP has no FEC repair tier"):
        ScenarioConfig(transport="tcp", fec="8/2")


# ----------------------------------------------------------------------
# Disarmed purity: every transport, jobs/cache
# ----------------------------------------------------------------------
def test_disarmed_summaries_identical_across_jobs_cache(tmp_path):
    cfgs = {tp: _small(tp) for tp in TRANSPORTS}
    serial = run_batch(cfgs, jobs=1, cache=False)
    parallel = run_batch(cfgs, jobs=4, cache=False)
    store = ResultsCache(tmp_path)
    primed = run_batch(cfgs, jobs=1, cache=store)
    hits = run_batch(cfgs, jobs=1, cache=store)
    for tp in TRANSPORTS:
        assert serial[tp].summary == parallel[tp].summary, tp
        assert serial[tp].summary == primed[tp].summary, tp
        assert serial[tp].summary == hits[tp].summary, tp
        for key in ARMED_KEYS:
            assert key not in serial[tp].summary, (
                f"disarmed {tp} run leaked armed-only key {key}")


# ----------------------------------------------------------------------
# Armed determinism
# ----------------------------------------------------------------------
def test_armed_run_is_deterministic(tmp_path):
    cfg = _lossy("8/1/3")
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    r1 = run_batch([cfg], jobs=1, cache=False, trace=str(p1))[0]
    r2 = run_batch([cfg], jobs=4, cache=False, trace=str(p2))[0]
    assert r1.summary == r2.summary
    assert p1.read_bytes() == p2.read_bytes()
    assert r1.summary["obs_fec_repairs_sent"] > 0


def test_armed_configs_are_cacheable_and_keyed_on_fec():
    plain = _lossy(None)
    armed = _lossy("8/1/3")
    tweaked = _lossy("8/2/3")
    keys = [config_key(plain), config_key(armed), config_key(tweaked)]
    assert None not in keys, "fec configs must be cacheable"
    assert len(set(keys)) == 3, "the fec profile must change the key"


# ----------------------------------------------------------------------
# Recovery semantics
# ----------------------------------------------------------------------
def test_fec_recovers_losses_and_accounting_conserves():
    res = run_scenario(_lossy("8/2", invariants=True))
    s = res.summary
    assert res.completed
    assert s["obs_fec_recovered"] > 0, "burst losses must exercise repair"
    assert res.conn.fec.conservation_violation() is None
    assert res.invariant_checks > 0
    # Everything ARQ would have delivered still arrives.
    assert s["obs_frames_delivered"] == 120


def test_unrecoverable_generations_fall_back_to_arq():
    # k=16 with a single repair per generation, and a short blackout that
    # wipes out whole windows in flight: when the link returns, repairs
    # land on generations missing several members, the stripe recovery
    # gives up, and the ARQ machinery must still complete the transfer.
    res = run_scenario(_lossy(
        FecConfig(k=16, r=1, adaptive=False), invariants=True,
        n_frames=60, base_frame_size=28000,
        faults=FaultSchedule(
            Blackout(start=1.0, stop=1.5, direction="both"),
            BurstyLoss(start=1.5, stop=6.0, p_gb=0.03, p_bg=0.25))))
    s = res.summary
    assert res.completed
    assert s["obs_fec_unrecoverable"] > 0, (
        "this schedule is calibrated to produce multi-loss generations")
    assert s["obs_frames_delivered"] == 60
    assert s["pct_received"] == 100.0


def test_recovered_segments_reach_spans_lineage():
    res = run_scenario(_lossy("8/2", spans=True))
    assert res.summary["obs_fec_recovered"] > 0
    spans = res.spans
    recovered = sum(1 for fr in spans["frames"]
                    for s in fr["segments"] if s["fate"] == "recovered")
    assert recovered == res.summary["obs_fec_recovered"]
    # Recovered segments count as delivered: the lineage reconciliation
    # anchor must still match the delivery log exactly.
    assert spans["frames_with_delivery"] == int(
        res.summary["frames_completed"])


# ----------------------------------------------------------------------
# Deadline-aware frame scheduling
# ----------------------------------------------------------------------
def test_frame_deadline_abandons_stale_frames():
    # A clocked source into a thin bottleneck: the backlog grows, so a
    # tight per-frame budget must abandon untransmitted stale segments.
    cfg = ScenarioConfig(transport="iq", workload="fixed_clocked",
                         n_frames=150, frame_rate=50,
                         base_frame_size=5600, bottleneck_bps=4e6,
                         frame_deadline_s=0.3, seed=2, time_cap=120.0,
                         invariants=True)
    res = run_scenario(cfg)
    s = res.summary
    assert res.completed
    assert s["obs_abandoned_msgs_deadline"] > 0
    assert s["obs_abandoned_bytes_deadline"] > 0
    # Deadline scheduling bounds the drain: strictly shorter than the
    # same run without a deadline.
    no_ddl = run_scenario(cfg.replace(frame_deadline_s=0.0))
    assert s["duration_s"] < no_ddl.summary["duration_s"]
    assert "obs_abandoned_msgs_deadline" not in no_ddl.summary


def test_deadline_never_abandons_tagged_segments():
    cfg = ScenarioConfig(transport="iq", workload="fixed_clocked",
                         n_frames=100, frame_rate=50,
                         base_frame_size=5600, bottleneck_bps=4e6,
                         frame_deadline_s=0.2, seed=2, time_cap=120.0,
                         adaptation=FecAdaptation, loss_tolerance=0.2)
    res = run_scenario(cfg)
    assert res.completed
    # Tagged datagrams carry attributes and are exempt from abandonment;
    # the run completing at all (attributes applied in order) checks it.
    assert res.summary["obs_frames_delivered"] > 0


# ----------------------------------------------------------------------
# The headline ordering: FEC beats ARQ where ARQ stalls
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def reliability_sweep():
    return run_reliability(n_frames=150, jobs=4, cache=False)


def test_fec_beats_arq_under_burst_and_blackout(reliability_sweep):
    for sched in ("burst", "blackout"):
        armed = reliability_sweep[sched]["iq+fec"]
        arq = reliability_sweep[sched]["iq"]
        assert armed.completed and arq.completed
        assert armed.summary["goodput_fps"] > arq.summary["goodput_fps"], (
            f"{sched}: armed {armed.summary['goodput_fps']:.2f} fps must "
            f"strictly beat ARQ-only {arq.summary['goodput_fps']:.2f}")
        assert armed.summary["obs_fec_recovered"] > 0, sched


def test_render_reliability_reports_improvement(reliability_sweep):
    text = render_reliability(reliability_sweep)
    assert "burst" in text and "blackout" in text
    assert "goodput vs iq" in text
    assert len(reliability_metrics(
        reliability_sweep["burst"]["iq+fec"])) == 7


def test_reliability_scenarios_and_arms_validate():
    base = ScenarioConfig()
    for name, spec in SCENARIOS.items():
        assert isinstance(spec["faults"], FaultSchedule), name
        base.replace(faults=spec["faults"], **spec["overrides"])
    for arm, overrides in ARMS.items():
        base.replace(**overrides)
    with pytest.raises(ValueError, match="unknown reliability scenario"):
        run_reliability(schedules=("burstt",), cache=False)
    with pytest.raises(ValueError, match="unknown reliability arm"):
        run_reliability(arms=("iq+fec", "tcp"), cache=False)
