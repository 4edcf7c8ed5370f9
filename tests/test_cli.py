"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_parser_accepts_all_experiments():
    p = build_parser()
    for name in EXPERIMENTS:
        args = p.parse_args([name])
        assert args.command == name


def test_parser_rejects_unknown():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["tableX"])


def test_scenario_command_runs(capsys):
    rc = main(["scenario", "--transport", "rudp", "--frames", "200",
               "--cbr", "1e6", "--time-cap", "60"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "throughput_kBps" in out
    assert "completed" in out


def test_scenario_with_adaptation(capsys):
    rc = main(["scenario", "--transport", "iq", "--frames", "300",
               "--adaptation", "resolution", "--cbr", "17e6",
               "--time-cap", "60"])
    assert rc == 0
    assert "duration_s" in capsys.readouterr().out


def test_scenario_rejects_bad_transport():
    with pytest.raises(SystemExit):
        main(["scenario", "--transport", "quic"])


def test_scenario_defaults():
    args = build_parser().parse_args(["scenario"])
    assert args.transport == "iq"
    assert args.workload == "greedy"
    assert args.adaptation == "none"


def test_experiment_seeds_default_correctly():
    p = build_parser()
    assert p.parse_args(["table1"]).seed == 1
    assert p.parse_args(["table6"]).seed == 2
    assert p.parse_args(["table6", "--seed", "9"]).seed == 9


def test_removed_burst_switches_exit_2_naming_the_flag_or_field(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["population", "--no-burst"])
    assert exc.value.code == 2
    assert "--no-burst" in capsys.readouterr().err
    assert main(["scenario", "--set", "burst=True"]) == 2
    assert "unknown ScenarioConfig field(s): 'burst'" in \
        capsys.readouterr().err


# ----------------------------------------------------------------------
# One --set dialect (repro.experiments.common.parse_field)
# ----------------------------------------------------------------------
def test_set_resolves_registry_names_on_every_command(capsys):
    # Both were tracebacks while --set only knew Python literals.
    assert main(["scenario", "--frames", "50",
                 "--set", "adaptation=marking"]) == 0
    assert main(["table3", "--set", "n_frames=20",
                 "--set", "faults=flap"]) == 0
    assert "Table 3" in capsys.readouterr().out


def test_set_misspelt_registry_name_exits_2_with_hint(capsys):
    assert main(["scenario", "--frames", "50",
                 "--set", "adaptation=markng"]) == 2
    err = capsys.readouterr().err
    assert "did you mean 'marking'" in err
    assert "Traceback" not in err
    assert main(["table3", "--set", "faults=flapp"]) == 2
    assert "did you mean 'flap'" in capsys.readouterr().err


def test_set_keeps_fec_none_and_bare_strings():
    from repro.cli import parse_overrides
    from repro.transport.fec import FecConfig
    out = parse_overrides(["fec=8/2", "adaptation=None", "workload=greedy"])
    assert out == {"fec": FecConfig(k=8, r=2), "adaptation": None,
                   "workload": "greedy"}
    assert isinstance(out["fec"], FecConfig)


@pytest.mark.parametrize("field,text", [
    ("adaptation", "marking"), ("adaptation", "none"),
    ("adaptation", "None"), ("faults", "flap"), ("faults", "None"),
    ("fec", "8/2"), ("fec", "8/1/3/static"), ("fec", "none"),
    ("cbr_bps", "16e6"), ("n_frames", "20"), ("workload", "greedy"),
    ("step_cross", "(2.0, 1e6, 5.0)"), ("loss_tolerance", "None"),
    ("spans", "True"), ("transport", "'rudp'"),
])
def test_set_and_campaign_specs_share_one_dialect(field, text):
    """The same text means the same value on the command line, in a
    campaign spec file and in ``campaign run --set``."""
    from repro.campaign import load_campaign
    from repro.cli import parse_overrides
    from repro.experiments.common import ScenarioConfig
    (cli_value,) = parse_overrides([f"{field}={text}"]).values()
    in_spec = load_campaign({"template": {field: text}}).template
    via_set = load_campaign({}).replace_template(**{field: text}).template
    expected = getattr(ScenarioConfig(**{field: cli_value}), field)
    assert getattr(in_spec, field) == expected
    assert getattr(via_set, field) == expected


# ----------------------------------------------------------------------
# Commands and experiments are each said once
# ----------------------------------------------------------------------
def _leaf_parsers(parser):
    import argparse
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield parser
    for action in subs:
        for child in action.choices.values():
            yield from _leaf_parsers(child)


def test_every_subcommand_registers_its_handler():
    leaves = list(_leaf_parsers(build_parser()))
    assert len(leaves) == 18 + 5  # top-level commands + campaign actions
    for leaf in leaves:
        assert callable(leaf.get_default("func")), leaf.prog


@pytest.mark.parametrize("argv", [["history", "table2-grid"], ["sentinel"],
                                  ["forensics", "a.pkl"], ["metrics", "a.pkl"],
                                  ["lineage", "--load", "a.pkl"]])
def test_retired_ledger_commands_are_argparse_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_environment_switch_census():
    """Every ``REPRO_*`` switch the package reads, by string literal.  A
    third switch means editing this list on purpose."""
    import ast
    import pathlib
    import re
    import repro
    found = set()
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.update(re.findall(r"\bREPRO_[A-Z_]+", node.value))
    assert found == {"REPRO_CACHE_DIR", "REPRO_NO_CACHE"}


def test_experiments_are_the_ten_declarations():
    from repro.experiments.common import ScenarioConfig
    from repro.experiments.grid import Experiment
    assert list(EXPERIMENTS) == [
        "table1", "table2", "table3", "table4", "table5", "table6",
        "table7", "table8", "dynamics", "reliability"]
    for name, exp in EXPERIMENTS.items():
        assert isinstance(exp, Experiment) and exp.name == name
        rows = exp.configs(n_frames=5)  # cheap: constructs, runs nothing
        assert len(rows) == len(exp.arms) * len(exp.groups or [None])
        assert all(isinstance(cfg, ScenarioConfig) and cfg.n_frames == 5
                   and cfg.seed == exp.seed for cfg in rows.values())
