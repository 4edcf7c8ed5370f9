"""Tests for the seeded scenario fuzzer (ISSUE 4 part 3).

The fuzzer's own guarantees under test: the case list is a pure function
of the seed (CI reproducibility), generated cases stay inside documented
bounds, the differential oracle actually flags disagreement, and a small
end-to-end run passes clean.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.core.coordination import Coordinator
from repro.fuzz import (FuzzReport, _compare, run_fuzz, sample_config,
                        sample_faults)
from repro.runner import config_fingerprint
from repro.runner.failures import FailedResult


# ----------------------------------------------------------------------
# Generation determinism and bounds
# ----------------------------------------------------------------------
def test_case_list_is_pure_function_of_seed():
    rng_a, rng_b = random.Random(7), random.Random(7)
    a = [sample_config(rng_a) for _ in range(10)]
    b = [sample_config(rng_b) for _ in range(10)]
    assert [config_fingerprint(c) for c in a] == \
        [config_fingerprint(c) for c in b]


def test_different_seeds_generate_different_cases():
    a = [sample_config(random.Random(1)) for _ in range(10)]
    b = [sample_config(random.Random(2)) for _ in range(10)]
    assert [config_fingerprint(c) for c in a] != \
        [config_fingerprint(c) for c in b]


def test_generated_cases_stay_inside_bounds():
    rng = random.Random(11)
    saw_faults = saw_adaptation = False
    for _ in range(60):
        cfg = sample_config(rng)
        assert cfg.invariants is True
        assert 30 <= cfg.n_frames <= 120
        assert cfg.time_cap <= 30.0
        if cfg.transport == "tcp":
            assert cfg.adaptation is None
        saw_adaptation |= cfg.adaptation is not None
        saw_faults |= cfg.faults is not None
        assert config_fingerprint(cfg) is not None  # must be cacheable
    assert saw_adaptation and saw_faults  # the pools are actually drawn


def test_sampled_fault_phases_are_ordered_and_bounded():
    for seed in range(8):
        sched = sample_faults(random.Random(seed))
        prev_stop = 0.0
        for phase in sched.phases:
            assert phase.start < phase.stop
            assert phase.start >= prev_stop  # phases never overlap
            prev_stop = phase.stop
        assert prev_stop < 10.0  # well inside the 30s case time cap


def test_the_fuzzer_can_shorten_the_path():
    """A ``DelayRamp`` that ends below the base one-way delay lets a later
    packet overtake an earlier one -- the one regime where a link's
    look-ahead is unsafe.  The draw reaches it (it could not before
    PR 22), and the CI seed chosen for it holds such a ramp."""
    from repro.faults.schedule import DelayRamp

    def ramps(seed, budget=25):
        rng = random.Random(seed)
        for cfg in (sample_config(rng) for _ in range(budget)):
            for phase in (cfg.faults.phases if cfg.faults else ()):
                if isinstance(phase, DelayRamp):
                    yield phase.to_s, cfg.rtt_s / 2
    drawn = [to_s for seed in range(40) for to_s, _ in ramps(seed)]
    assert min(drawn) < 0.005 and max(drawn) > 0.15
    assert all(0.002 <= to_s <= 0.2 for to_s in drawn)
    # Case 22 of ``--seed 111``: 60 ms one way ramped down to 5.5 ms while
    # the bottleneck holds a backlog (found by running it).
    assert any(to_s < 0.006 < base for to_s, base in ramps(111))


# ----------------------------------------------------------------------
# Recorded at the parent of PR 22 (planned link transit): what the 100 cases
# of seeds 4-7 produced there, as ``digest(summary)[/digest(telemetry)]``.
# A throwaway script ran this test's loop in a ``git clone`` of 44abcd2,
# whose fuzzer drew ``DelayRamp.to_s`` from U(0.02, 0.2): the draw is put
# back for the comparison.  No simulated statistic may move.  The
# telemetry halves were recorded again when the telemetry payload stopped
# carrying a copy of the coordinator's record; the summary halves are the
# ones recorded there.
# ----------------------------------------------------------------------
RECORDED = {
    4: (
        "a219b15b3461/2b8c0e331a08", "99890b9f26d8/d338b49225bd", "1c1d4df30439",
        "00ae481ff7af/7693aa827a4c", "f2326d9eda7d", "7815def5c4b7/a7563d284615",
        "d1a0553fedb5/4d4a36a53abd", "fc245b807764/211714346a09", "dff0ea701c8f",
        "4ecfb4f0040b", "c6b74525de49/b54282f05c64", "34ca393b1149",
        "f5464315ae52", "e533846a750d", "e367ec99c8b3/b08e38a1ab8e",
        "6cd662441474/ae9a5d11a2a9", "355690a1bd09/cc7af4bc30e5", "e1ad4bea53e2",
        "11a4fe211bb5", "387320544603/c1b506143b33", "97cafaeebae6",
        "a845f85adf29", "633abc203202", "717afcc42b40",
        "825ff0185b14",
    ),
    5: (
        "77fdd833a931", "0ac7011dffd6", "4ca98618ff5a",
        "0f1e9b7a512a", "254eb78c52cb", "f8273bcf691c/ca9ef7367208",
        "a4aed626e832", "edcca2262bb3/5904520b2a78", "5117300064f4",
        "5f0e95850b29", "19d2124a7f3d/301d187b7851", "bc6803732f69",
        "4dc588607317/b6c95c279b5a", "2b33e98c4bb9", "44388a3e1134",
        "6cffaab6f86c", "e4af5b217689/1556ef55ae34", "f9c2eabcaaa4",
        "2f98fa3bb1ea", "6fd58c3712fd", "1d817385e01a",
        "84737fff917a", "2ade4209e387", "98f4a6929664",
        "e6cc54d08736/b6d83d950a53",
    ),
    6: (
        "232cfc4c5cd5/0e06c945cf89", "47f3f03ea4da", "2bd7227e0adc",
        "d5e26ce4e4d8", "76038a3bc25f", "f7f7fd8fe08e",
        "435c8122ce6c", "27177ea53ab4", "d83938d74f9c",
        "7a9cc5a6f3ac", "0ba0f56ea131", "cb58ee66b9b9",
        "7ad163da1635", "976734e84e10/20f7bb75aab5", "cd2a73540d2c",
        "98ce93094212/595e8bcea5aa", "c67bf0d8b8bb", "48828d990c25",
        "79e551fbdf12/881ab72a0f17", "146b6397e11d", "22c624bfc4ed",
        "85105aae11da", "2a19c4c3a051", "ccd6f12ecd26/cd16d7861ab8",
        "b6716e738f6e",
    ),
    7: (
        "94ecaf596806/f68c9d70ff5c", "71c292f06a56", "21a141539531",
        "67827147444a/cbd60e10036b", "015bc1d6f1aa", "5c32d1107917",
        "06f2bacacd92", "b6eb528b3ea5", "3064327bfad3/5d1830c9c0a3",
        "befe5b29b620", "123f2948306c", "39ddd54cd927",
        "6286b8c1c0fe", "e3d9b1d63e5f/df489a1e8f79", "f1c6b4e19c57",
        "86e55676e3be", "85bcc939515d", "466614d95229",
        "1baca7d1f891/72b2630d58be", "75323c002295", "96bfa307732e",
        "1443fef0a62e", "33c99555c5d6", "7e3697ffdb52",
        "97725968a3b8",
    ),
}


@pytest.mark.parametrize("seed", list(RECORDED))
def test_cases_reproduce_what_they_produced_at_the_parent(seed, monkeypatch):
    import hashlib
    import json

    from repro import fuzz
    from repro.experiments.common import run_scenario

    def digest(obj):
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    monkeypatch.setattr(fuzz, "DELAY_RAMP_TO_S", (0.02, 0.2))
    rng = random.Random(seed)
    for i, want in enumerate(RECORDED[seed]):
        res = run_scenario(sample_config(rng))
        got = digest(res.summary)
        if getattr(res, "telemetry", None) is not None:
            got += "/" + digest(res.telemetry.as_dict())
        assert got == want, f"seed {seed} case {i}"


# ----------------------------------------------------------------------
# The differential oracle
# ----------------------------------------------------------------------
def _result(**summary):
    sender = SimpleNamespace(coordinator=Coordinator("iq"))
    return SimpleNamespace(summary=summary,
                           conn=SimpleNamespace(sender=sender))


def _failed(kind):
    f = FailedResult.__new__(FailedResult)
    f.kind = kind
    return f


def _fresh_report():
    return FuzzReport(budget=1, seed=0)


def test_compare_accepts_equal_summaries():
    report = _fresh_report()
    cfg = sample_config(random.Random(0))
    _compare(report, "t", 0, cfg, _result(x=1.0), _result(x=1.0))
    assert report.ok


def test_compare_flags_summary_divergence():
    report = _fresh_report()
    cfg = sample_config(random.Random(0))
    _compare(report, "jobs differential", 0, cfg,
             _result(x=1.0, y=2.0), _result(x=1.0, y=3.0))
    assert not report.ok
    assert "jobs differential" in report.mismatches[0]
    assert "'y'" in report.mismatches[0]


def test_compare_flags_a_decision_record_that_differs_in_one_field():
    report = _fresh_report()
    cfg = sample_config(random.Random(0))
    ref, other = _result(x=1.0), _result(x=1.0)
    for res, drift in ((ref, 1.0), (other, 1.25)):
        coord = res.conn.sender.coordinator
        coord.exchanges.append({"id": 0, "t": 0.5, "attrs": {}})
        coord.actions.append({"t": 0.5, "action": "window_rescale",
                              "episode": 0, "drift": drift})
    _compare(report, "cache differential", 0, cfg, ref, other)
    assert len(report.mismatches) == 1
    assert "coordination actions differ" in report.mismatches[0]
    assert len(report.forensics) == 1
    assert report.forensics[0]["mismatches"] == report.mismatches


def test_compare_flags_failure_asymmetry_and_kind_mismatch():
    report = _fresh_report()
    cfg = sample_config(random.Random(0))
    _compare(report, "t", 0, cfg, _failed("error"), _result(x=1))
    _compare(report, "t", 1, cfg, _failed("error"), _failed("timeout"))
    assert len(report.mismatches) == 2


def test_compare_accepts_matching_failures():
    report = _fresh_report()
    cfg = sample_config(random.Random(0))
    _compare(report, "t", 0, cfg, _failed("error"), _failed("error"))
    assert report.ok  # agreeing failures are agreement, not a mismatch


def test_report_summary_line_verdicts():
    report = _fresh_report()
    report.cases_run = 1
    assert "PASS" in report.summary_line()
    report.failures.append("case 0: boom")
    assert "FAIL" in report.summary_line()


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------
def test_budget_validation():
    with pytest.raises(ValueError):
        run_fuzz(budget=0, log=lambda s: None)


def test_small_fuzz_run_passes_clean():
    lines = []
    report = run_fuzz(budget=3, seed=4, jobs=2, timeout=120.0,
                      log=lines.append)
    assert report.ok, "\n".join(lines)
    assert report.cases_run == 3
    assert any("pass A" in ln for ln in lines)
    assert any("PASS" in ln for ln in lines)


def test_fuzz_cli_exit_code():
    from repro.cli import main
    assert main(["fuzz", "--budget", "1", "--seed", "2"]) == 0
