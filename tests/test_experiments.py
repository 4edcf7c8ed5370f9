"""Integration tests for the experiment harness (small, fast scenarios).

These do not reproduce the paper's numbers (the benches do that at full
scale); they verify that every scenario shape wires up, runs to completion
deterministically, and that the coordination invariants hold end to end.
"""

import pytest

from repro.campaign.spec import Campaign
from repro.experiments.common import (TRANSPORTS, ScenarioConfig,
                                      run_scenario)
from repro.middleware.adaptation import (MarkingAdaptation,
                                         ResolutionAdaptation)


def small(**kw):
    defaults = dict(workload="greedy", n_frames=300, base_frame_size=1400,
                    time_cap=120.0)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_every_transport_completes(transport):
    res = run_scenario(small(transport=transport))
    assert res.completed
    assert res.summary["pct_received"] > 99.0


def test_determinism_same_seed_same_result():
    cfg = small(transport="iq", cbr_bps=17e6,
                adaptation=lambda: ResolutionAdaptation(upper=0.05,
                                                        lower=0.005),
                seed=3)
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert a.summary == b.summary


def test_different_seed_changes_stochastic_scenario():
    def cfg(seed):
        return small(transport="iq", cbr_bps=16e6, vbr_mean_bps=2e6,
                     n_frames=2000,
                     adaptation=lambda: MarkingAdaptation(upper=0.05,
                                                          lower=0.01),
                     loss_tolerance=0.4, seed=seed)
    a = run_scenario(cfg(1))
    b = run_scenario(cfg(2))
    assert a.summary != b.summary


def test_rudp_and_iq_identical_without_adaptation():
    """With no application adaptation there is nothing to coordinate:
    IQ-RUDP must behave exactly like RUDP."""
    a = run_scenario(small(transport="rudp", cbr_bps=17e6, seed=4))
    b = run_scenario(small(transport="iq", cbr_bps=17e6, seed=4))
    assert a.summary == b.summary


def test_iq_with_all_schemes_off_degenerates_to_rudp():
    strat = lambda: ResolutionAdaptation(upper=0.05, lower=0.005)
    kw = dict(cbr_bps=17e6, adaptation=strat, n_frames=1500, seed=5)
    rudp = run_scenario(small(transport="rudp", **kw))
    iq_off = run_scenario(small(transport="iq_noreinflate", **kw))
    # Marking scheme unused here, so disabling reinflation removes all
    # coordination effects.
    assert iq_off.summary == rudp.summary


def test_tcp_rejects_adaptation():
    with pytest.raises(ValueError):
        run_scenario(small(transport="tcp",
                           adaptation=ResolutionAdaptation))


def test_tcp_with_an_adaptation_is_refused_at_construction():
    """Not at run time: a campaign of such cells is refused when it is
    read or expands, instead of running every cell to a failure."""
    refused = pytest.raises(ValueError,
                            match="TCP has no adaptation callbacks")
    with refused:
        ScenarioConfig(transport="tcp", adaptation=ResolutionAdaptation)
    with refused:
        Campaign.from_mapping({"template": {"transport": "tcp",
                                            "adaptation": "marking"},
                               "seeds": [1, 2, 3]})
    camp = Campaign.from_mapping({"template": {"adaptation": "marking"},
                                  "axes": {"transport": ["rudp", "tcp"]},
                                  "seeds": [1]})
    with refused:
        camp.cells()
    assert ScenarioConfig(transport="tcp", adaptation=None).adaptation is None


def test_unknown_transport_rejected():
    with pytest.raises(ValueError):
        ScenarioConfig(transport="quic")


def test_unknown_workload_rejected():
    with pytest.raises(ValueError):
        ScenarioConfig(workload="torrent")


def test_burst_keyword_is_accepted_unstored_and_rejected_when_true():
    # benchmarks/e2e still passes burst=False; the tier itself is gone.
    assert "burst" not in vars(ScenarioConfig(burst=False))
    with pytest.raises(ValueError, match="burst"):
        ScenarioConfig(burst=True)


def test_replace_creates_modified_copy():
    cfg = small(transport="rudp")
    cfg2 = cfg.replace(transport="iq", cbr_bps=5e6)
    assert cfg.transport == "rudp" and cfg2.transport == "iq"
    assert cfg2.cbr_bps == 5e6 and cfg2.n_frames == cfg.n_frames


def test_cross_traffic_reduces_throughput():
    free = run_scenario(small(transport="rudp", n_frames=2000))
    jammed = run_scenario(small(transport="rudp", n_frames=2000,
                                cbr_bps=17e6))
    assert jammed.summary["throughput_kBps"] < free.summary["throughput_kBps"]


def test_step_cross_traffic_toggles():
    cfg = small(transport="rudp", n_frames=2000,
                step_cross=(1e6, 15e6, 4.0))
    res = run_scenario(cfg)
    assert res.completed


def test_vbr_cross_traffic_runs():
    cfg = small(transport="rudp", n_frames=1000, vbr_mean_bps=3e6)
    res = run_scenario(cfg)
    assert res.completed


def test_trace_clocked_workload_duration_bound():
    """Uncongested, a clocked source finishes at its nominal duration."""
    cfg = ScenarioConfig(transport="iq", workload="trace_clocked",
                         n_frames=50, frame_rate=25, frame_multiplier=300,
                         time_cap=60.0)
    res = run_scenario(cfg)
    assert res.completed
    assert res.summary["duration_s"] == pytest.approx(50 / 25, abs=0.5)


def test_fixed_clocked_workload():
    cfg = ScenarioConfig(transport="iq", workload="fixed_clocked",
                         n_frames=100, frame_rate=50, base_frame_size=700,
                         time_cap=60.0)
    res = run_scenario(cfg)
    assert res.completed
    assert res.summary["delivered_bytes"] == 100 * 700


def test_marking_scenario_discards_only_on_iq():
    def cfg(tr):
        return small(transport=tr, n_frames=4000, cbr_bps=17.5e6,
                     vbr_mean_bps=1e6,
                     adaptation=lambda: MarkingAdaptation(upper=0.03,
                                                          lower=0.005),
                     loss_tolerance=0.4, metric_period=0.1, seed=2)
    iq = run_scenario(cfg("iq"))
    ru = run_scenario(cfg("rudp"))
    assert iq.conn.sender.stats.discarded_msgs > 0
    assert ru.conn.sender.stats.discarded_msgs == 0
    assert iq.summary["pct_received"] <= ru.summary["pct_received"]


def test_error_ratio_lifetime_exported():
    res = run_scenario(small(transport="rudp", cbr_bps=17e6, n_frames=1500))
    assert 0.0 <= res.summary["error_ratio_lifetime"] < 0.5


# ----------------------------------------------------------------------
# The Experiment declaration (repro.experiments.grid)
# ----------------------------------------------------------------------
def _toy_experiment():
    from repro.experiments.grid import Experiment
    return Experiment(
        "toy", title="Toy", n_frames=7, seed=3,
        base=lambda n_frames, seed: ScenarioConfig(
            workload="greedy", n_frames=n_frames, seed=seed, cbr_bps=1e6,
            rtt_s=0.05),
        groups={"calm": {"cbr_bps": 2e6, "queue_pkts": 32},
                "busy": {"cbr_bps": 9e6}},
        arms={"coordinated": {"transport": "iq", "mss": 1000},
              "plain": {"transport": "rudp"}},
        columns=("scenario", "arm", "Dur s"),
        metrics=lambda res: (res.summary["duration_s"],))


def test_experiment_configs_expand_groups_by_arms_with_defaults():
    rows = _toy_experiment().configs()
    assert list(rows) == ["calm/coordinated", "calm/plain",
                          "busy/coordinated", "busy/plain"]
    assert {(c.n_frames, c.seed, c.rtt_s) for c in rows.values()} == \
        {(7, 3, 0.05)}
    assert rows["calm/plain"].cbr_bps == 2e6
    assert rows["calm/plain"].queue_pkts == 32
    assert rows["busy/plain"].queue_pkts == ScenarioConfig().queue_pkts
    assert rows["busy/coordinated"].transport == "iq"


def test_experiment_precedence_base_group_overrides_arm():
    rows = _toy_experiment().configs(
        n_frames=9, seed=5, groups=("busy",),
        overrides={"cbr_bps": 4e6, "transport": "tcp", "mss": 500,
                   "rtt_s": 0.1})
    assert list(rows) == ["busy/coordinated", "busy/plain"]
    for cfg in rows.values():
        assert (cfg.n_frames, cfg.seed) == (9, 5)
        assert cfg.rtt_s == 0.1      # overrides beat the base ...
        assert cfg.cbr_bps == 4e6    # ... and the group's value,
    # but an arm's own fields win over the overrides: --set can never
    # turn one arm into another.
    assert rows["busy/coordinated"].transport == "iq"
    assert rows["busy/coordinated"].mss == 1000
    assert rows["busy/plain"].transport == "rudp"
    assert rows["busy/plain"].mss == 500  # the arm does not set it


def test_experiment_rejects_unknown_group_and_arm_names():
    toy = _toy_experiment()
    with pytest.raises(ValueError, match="unknown toy scenario 'bsy'"):
        toy.configs(groups=("bsy",))
    with pytest.raises(ValueError, match="unknown toy arm 'tcp'"):
        toy.configs(arms=("plain", "tcp"))
    with pytest.raises(ValueError, match="unknown ScenarioConfig field"):
        toy.configs(overrides={"cbr": 1e6})
