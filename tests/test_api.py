"""Tests for the stable public facade (:mod:`repro.api`) and the shared
``--set key=value`` override parser.

The facade's contract: a :class:`~repro.api.Scenario` (which *is*
``ScenarioConfig``) that constructs can run; anything invalid fails at
construction with a did-you-mean hint; and ``run``/``sweep``/``load_result``
round-trip through the batch runner and its cache format without exposing
the internal module layout.
"""

import pickle

import pytest

import repro
from repro.api import FaultSchedule, Scenario, load_result, run, sweep
from repro.cli import parse_overrides
from repro.experiments.common import ScenarioConfig, ScenarioResult
from repro.faults import Blackout
from repro.runner import config_fingerprint, config_key
from repro.runner.cache import write_pickle


def _small(**kw) -> Scenario:
    base = dict(workload="greedy", n_frames=150, time_cap=60.0)
    base.update(kw)
    return Scenario(**base)


# ----------------------------------------------------------------------
# Scenario construction & validation
# ----------------------------------------------------------------------
def test_scenario_fields_pass_through():
    sc = _small(transport="iq", cbr_bps=8e6, seed=7)
    assert sc.transport == "iq"
    assert sc.cbr_bps == 8e6
    assert sc.seed == 7
    assert Scenario is ScenarioConfig
    assert isinstance(sc, ScenarioConfig)


def test_unknown_field_fails_at_construction_with_hint():
    with pytest.raises(ValueError, match="did you mean 'transport'"):
        Scenario(transprot="iq")
    with pytest.raises(ValueError, match="unknown ScenarioConfig field"):
        _small().replace(bad_field=1)


def test_invalid_value_fails_at_construction():
    with pytest.raises(ValueError):
        Scenario(transport="carrier-pigeon")
    with pytest.raises(TypeError):
        Scenario(faults="not a schedule")


def test_scenario_is_immutable_and_replace_derives():
    sc = _small(transport="iq")
    with pytest.raises(AttributeError):
        sc.transport = "tcp"
    with pytest.raises(AttributeError):
        ScenarioConfig(transport="iq").seed = 2
    with pytest.raises(AttributeError):
        sc.not_a_field = 1
    other = sc.replace(transport="rudp", seed=9)
    assert isinstance(other, Scenario)
    assert other.transport == "rudp" and other.seed == 9
    assert sc.transport == "iq"  # original untouched


def test_scenario_repr_shows_non_defaults_only():
    text = repr(_small(transport="rudp"))
    assert "transport='rudp'" in text
    assert "rtt_s" not in text  # default field stays out of the repr


def test_missing_attribute_error_names_the_field():
    with pytest.raises(AttributeError, match="no_such"):
        _small().no_such


def test_facade_accepts_schedules():
    sched = FaultSchedule(Blackout(start=1.0, stop=2.0))
    assert _small(faults=sched).faults is sched


def test_package_root_reexports_the_facade():
    assert repro.Scenario is Scenario
    assert repro.run is run


# ----------------------------------------------------------------------
# run / sweep / load_result
# ----------------------------------------------------------------------
def test_run_and_sweep_execute_and_agree(tmp_path):
    sc = _small(seed=3)
    res = run(sc, cache=False)
    assert isinstance(res, ScenarioResult)
    assert res.completed
    batch = sweep({"a": sc, "b": sc.replace(n_frames=200)}, jobs=2,
                  cache=False)
    assert list(batch) == ["a", "b"]
    assert batch["a"].summary == res.summary  # same config, same numbers
    assert batch["b"].summary != res.summary


def test_run_accepts_raw_config_and_rejects_other_types():
    cfg = ScenarioConfig(workload="greedy", n_frames=150, time_cap=60.0)
    assert run(cfg, cache=False).completed
    with pytest.raises(TypeError, match="expected a Scenario"):
        run({"transport": "iq"})


def test_load_result_round_trip_and_type_check(tmp_path):
    res = run(_small(seed=5), cache=False)
    good = tmp_path / "res.pkl"
    write_pickle(good, res.detach())
    loaded = load_result(good)
    assert isinstance(loaded, ScenarioResult)
    assert loaded.summary == res.summary

    bad = tmp_path / "other.pkl"
    write_pickle(bad, {"not": "a result"})
    with pytest.raises(TypeError, match="holds dict"):
        load_result(bad)
    with pytest.raises(FileNotFoundError):
        load_result(tmp_path / "missing.pkl")


# ----------------------------------------------------------------------
# The shared --set override parser
# ----------------------------------------------------------------------
def test_parse_overrides_literals_and_strings():
    out = parse_overrides(["cbr_bps=16e6", "seed=3", "workload=greedy",
                           "adaptation=None", "rates=(2.0, 1e6)"])
    assert out == {"cbr_bps": 16e6, "seed": 3, "workload": "greedy",
                   "adaptation": None, "rates": (2.0, 1e6)}


def test_parse_overrides_empty_and_malformed():
    assert parse_overrides(None) is None
    assert parse_overrides([]) is None
    with pytest.raises(SystemExit):
        parse_overrides(["noequalsign"])
    with pytest.raises(SystemExit):
        parse_overrides(["=value"])


def test_parse_overrides_feed_scenario_validation():
    out = parse_overrides(["transprot=iq"])
    with pytest.raises(ValueError, match="did you mean"):
        _small().replace(**out)


# ----------------------------------------------------------------------
# sweep() input forms (the generalised collection API)
# ----------------------------------------------------------------------
def test_sweep_accepts_list_and_generator_in_order():
    tiny = _small(n_frames=5)
    scs = [tiny.replace(seed=s) for s in (3, 1, 2)]
    as_list = sweep(scs, cache=False)
    assert isinstance(as_list, list) and len(as_list) == 3
    as_gen = sweep((sc for sc in scs), cache=False)
    # Insertion order, not seed order -- and both forms agree.
    assert [r.summary for r in as_gen] == [r.summary for r in as_list]


def test_sweep_rejects_single_scenario_and_non_iterables():
    with pytest.raises(TypeError, match="single scenario use run"):
        sweep(_small())
    with pytest.raises(TypeError, match="mapping or iterable"):
        sweep(42)


# ----------------------------------------------------------------------
# Campaign facade re-exports
# ----------------------------------------------------------------------
def test_package_root_reexports_campaign_api():
    from repro.api import Campaign, load_campaign, run_campaign
    assert repro.Campaign is Campaign
    assert repro.run_campaign is run_campaign
    assert repro.load_campaign is load_campaign


def test_campaign_facade_round_trip(tmp_path):
    camp = repro.load_campaign({
        "name": "facade",
        "template": {"workload": "greedy", "n_frames": 5,
                     "time_cap": 30.0},
        "axes": {"transport": ["tcp", "iq"]},
    })
    assert isinstance(camp, repro.Campaign)
    run_ = repro.run_campaign(camp, dir=tmp_path / "camp", cache=False)
    assert run_.complete and len(run_.results) == 2


# ----------------------------------------------------------------------
# Identity pins, recorded at the parent of the frozen-dataclass change
# (when ``ScenarioConfig`` was a hand-written class behind a ``Scenario``
# wrapper): fingerprints, cell keys, labels, manifest JSON and the repr
# are what caches, campaign directories and goldens are keyed by, so no
# later change to how a config is *declared* may move one.  Removing a
# field does move them all: these were re-recorded when ``vbr_frame_rate``,
# ``vbr_params`` and ``fixed_window``, each with one value in use, became
# constants, and again when ``fluid_bps`` (only tests set it) went.
# ----------------------------------------------------------------------
_FP_DEFAULT = (
    'adaptation=None;base_frame_size=1400;bottleneck_bps=20000000.0;'
    'cbr_bps=0.0;cbr_start=0.0;faults=None;fec=None;'
    'frame_deadline_s=0.0;frame_multiplier=3000;'
    'frame_rate=10.0;invariants=False;loss_tolerance=None;'
    'metric_period=0.5;mss=1400;n_frames=400;queue_pkts=64;rtt_s=0.03;'
    'seed=1;spans=False;step_cross=None;tcp_cross_bytes=None;'
    "telemetry=None;time_cap=600.0;trace_step_s=1.0;transport='iq';"
    'vbr_mean_bps=0.0;'
    "workload='trace_clocked'")
_FP_ARMED = (
    'adaptation=repro.middleware.adaptation.resolution_default;'
    'base_frame_size=1400;bottleneck_bps=20000000.0;cbr_bps=0.0;'
    'cbr_start=0.0;faults=FaultSchedule(Blackout(start=1.0, stop=2.0, '
    "direction='both'));fec=FecConfig(k=8, r=2, r_max=2, adaptive=True);"
    'frame_deadline_s=1.0;'
    'frame_multiplier=3000;frame_rate=10.0;invariants=False;'
    'loss_tolerance=None;metric_period=0.5;mss=1400;n_frames=50;'
    'queue_pkts=64;rtt_s=0.03;seed=7;spans=True;step_cross=None;'
    'tcp_cross_bytes=None;telemetry=None;time_cap=600.0;trace_step_s=1.0;'
    "transport='rudp';vbr_mean_bps=0.0;"
    "workload='greedy'")
_FLAP = ("FaultSchedule(LinkFlap(start=5.0, stop=16.0, down_s=0.7, "
         "up_s=1.3, direction='both'))")
_CLIFF = ("FaultSchedule(BandwidthRamp(start=4.0, stop=10.0, "
          "to_bps=13000000.0, steps=12, direction='fwd'), "
          "BandwidthRamp(start=16.0, stop=17.0, to_bps=20000000.0, "
          "steps=2, direction='fwd'))")


def _armed_config() -> ScenarioConfig:
    from repro.middleware.adaptation import resolution_default
    # spans / frame_deadline_s / fec arrive un-normalised.
    return ScenarioConfig(
        transport="rudp", workload="greedy", n_frames=50, fec="8/2",
        spans=1, frame_deadline_s=1,
        faults=FaultSchedule(Blackout(start=1.0, stop=2.0)),
        adaptation=resolution_default, seed=7)


def test_pinned_fingerprints_and_field_order():
    assert config_fingerprint(ScenarioConfig()) == _FP_DEFAULT
    assert config_fingerprint(_armed_config()) == _FP_ARMED
    assert config_key(_armed_config()) == '7b10a0109d03efae001f'
    assert list(vars(ScenarioConfig())) == [
        "transport", "workload", "adaptation", "n_frames", "frame_rate",
        "frame_multiplier", "base_frame_size", "bottleneck_bps", "rtt_s",
        "queue_pkts", "mss", "loss_tolerance", "metric_period", "cbr_bps",
        "cbr_start", "step_cross", "vbr_mean_bps", "trace_step_s",
        "tcp_cross_bytes", "seed", "time_cap", "faults", "invariants", "telemetry",
        "spans", "fec", "frame_deadline_s"]


def test_pinned_cell_keys_labels_and_manifest_of_a_text_spec():
    import json
    camp = repro.load_campaign({
        "name": "pin",
        "template": {"workload": "trace_clocked", "n_frames": "20",
                     "adaptation": "marking", "fec": "8/2",
                     "loss_tolerance": 0.4},
        "axes": {"transport": ["iq", "rudp"], "faults": ["flap", "cliff"]},
        "seeds": {"list": [3]}})
    assert [(config_key(c.config), c.label) for c in camp.cells()] == [
        ('f125ed5ad636112e1e7e', f"transport='iq',faults={_FLAP},seed=3"),
        ('fabbf4798f3dadd88ec3', f"transport='iq',faults={_CLIFF},seed=3"),
        ('b5bb4b388dcbae84314c', f"transport='rudp',faults={_FLAP},seed=3"),
        ('01574ed969f2e410dbfe', f"transport='rudp',faults={_CLIFF},seed=3")]
    assert all(c.key == config_key(c.config) for c in camp.cells())
    assert json.dumps(camp.to_mapping(), sort_keys=True) == (
        '{"axes": {"faults": ["flap", "cliff"], "transport": ["iq", '
        '"rudp"]}, "name": "pin", "seeds": {"list": [3]}, "template": '
        '{"adaptation": "marking", "fec": "8/2", "loss_tolerance": 0.4, '
        '"n_frames": "20", "workload": "trace_clocked"}}')


def test_pinned_cell_keys_and_manifest_of_a_programmatic_campaign():
    import json
    from repro.middleware.adaptation import marking_default
    camp = repro.Campaign(
        Scenario(workload="greedy", n_frames=5, adaptation=marking_default,
                 cbr_bps=8e6, spans=True),
        name="prog2", axes={"transport": ["rudp", "iq"]}, seeds=[4, 5],
        metrics=["duration_s"])
    assert [(config_key(c.config), c.label) for c in camp.cells()] == [
        ('49762df3de86deca4079', "transport='rudp',seed=4"),
        ('e8fd0e948c29f4277f19', "transport='rudp',seed=5"),
        ('f2299e8aaa7864cd2621', "transport='iq',seed=4"),
        ('8ddd253a1693667f20da', "transport='iq',seed=5")]
    assert all(c.key == config_key(c.config) for c in camp.cells())
    # The non-default fields, adaptation by its registry name.
    assert json.dumps(camp.to_mapping(), sort_keys=True) == (
        '{"axes": {"transport": ["rudp", "iq"]}, '
        '"metrics": ["duration_s"], "name": "prog2", '
        '"seeds": {"list": [4, 5]}, '
        '"template": {"adaptation": "marking", "cbr_bps": 8000000.0, '
        '"n_frames": 5, "spans": true, "workload": "greedy"}}')


def test_pinned_repr():
    from repro.faults import LinkFlap
    from repro.middleware.adaptation import resolution_default
    sc = Scenario(
        transport="rudp", workload="greedy", adaptation=resolution_default,
        fec="8/2", cbr_bps=8e6, spans=True,
        faults=FaultSchedule(LinkFlap(start=5.0, stop=16.0, down_s=0.7,
                                      up_s=1.3, direction="both")))
    assert repr(sc) == (
        "Scenario(transport='rudp', workload='greedy', "
        "adaptation=repro.middleware.adaptation.resolution_default, "
        f"cbr_bps=8000000.0, faults={_FLAP}, spans=True, "
        "fec=FecConfig(k=8, r=2, r_max=2, adaptive=True))")
    assert repr(Scenario()) == "Scenario()"


def test_frozen_config_survives_pickle_and_worker_processes():
    cfg = _armed_config().replace(faults=None, n_frames=5, time_cap=30.0)
    clone = pickle.loads(pickle.dumps(cfg))
    assert isinstance(clone, ScenarioConfig) and clone is not cfg
    assert vars(clone) == vars(cfg)
    with pytest.raises(AttributeError):
        clone.seed = 2
    # jobs=2 pickles each config into a worker process.
    a, b = sweep([cfg, clone.replace(seed=8)], jobs=2, cache=False)
    assert a.completed and b.completed
    assert a.summary == run(cfg, cache=False).summary
