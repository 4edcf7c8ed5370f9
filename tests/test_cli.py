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
