"""Tests of the benchmark itself, at the ``--quick`` smoke scale.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_e2e.py``;
tier-1's ``testpaths`` is ``tests``, so these do not lengthen that suite.
"""

import json
import os
import re
import signal
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
SPEC = run.load_spec()
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def quick(tmp_path, name, *extra):
    out = tmp_path / name
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick",
         "--out", str(out), *extra],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), done.stdout


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return quick(tmp, "a.json"), quick(tmp, "b.json")


def test_names_match_the_contract(two_runs):
    (result, _), _ = two_runs
    assert result["comparable"] is False
    assert list(result["workloads"]) == WORKLOAD_NAMES
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert "setup_s" in e2e
    for name in WORKLOAD_NAMES + e2e + per_layer:
        assert NAME.match(name), name
    for workload in result["workloads"].values():
        assert workload["correct"] and workload["failed_ops"] == 0
        assert sorted(workload["end_to_end"]) == sorted(e2e)
        assert list(workload["per_layer"]) == per_layer
        assert all(m["value"] > 0 for m in workload["end_to_end"].values())


def test_benchmark_json_lists_the_per_layer_table():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == [(n, u, b) for n, u, b, _ in layers.PER_LAYER]


def test_last_line_is_the_driver_object(tmp_path):
    for trace, table in ((0, "end_to_end"), (1, "per_layer")):
        _, stdout = quick(tmp_path, f"t{trace}.json", "--workload",
                          "transport_blast", "--trace", str(trace))
        last = json.loads(stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert last["attempted"] >= 1
        assert list(last["metrics"]) == [m["name"] for m in SPEC[table]]
        for m in SPEC[table]:
            assert last["metrics"][m["name"]]["unit"] == m["unit"]


def test_exact_values_repeat_for_a_fixed_seed(two_runs):
    (a, _), (b, _) = two_runs
    exact = [name for name, _, _, is_exact in layers.PER_LAYER if is_exact]
    for name in WORKLOAD_NAMES:
        wa, wb = a["workloads"][name], b["workloads"][name]
        assert wa["info"]["summary_digest"] == wb["info"]["summary_digest"]
        assert wa["info"]["iq_gain_pct"] == wb["info"]["iq_gain_pct"]
        for metric in exact:
            assert wa["per_layer"][metric] == wb["per_layer"][metric], \
                (name, metric)


def test_agree_accepts_a_file_against_itself(two_runs, tmp_path):
    (a, _), _ = two_runs
    path = tmp_path / "a.json"
    path.write_text(json.dumps(a))
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--agree",
         str(path), str(path)], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout
    assert "outside" not in done.stdout and "DIFFERENT" not in done.stdout
    worse = json.loads(json.dumps(a))
    worse["workloads"]["paper_tables"]["end_to_end"]["ref_us_per_pkt"][
        "value"] *= 2
    other = tmp_path / "b.json"
    other.write_text(json.dumps(worse))
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--agree",
         str(path), str(other)], capture_output=True, text=True)
    assert done.returncode == 1 and "outside" in done.stdout


def test_a_failing_check_raises_failed_ops(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    _, workload = run.set_up("transport_blast", 1, True, str(tmp_path))
    import workloads
    host = run.HostSpeed()
    assert run.measure(workload, 0.0, host)["failed_ops"] == 0
    real = workloads.account

    def account(label, res):
        acc = real(label, res)
        if label == "tcp/200":
            acc["failures"].append("tcp/200: injected")
        return acc

    monkeypatch.setattr(workloads, "account", account)
    result = run.measure(workload, 0.0, host)
    host.close()
    assert result["failed_ops"] == 1
    assert result["failures"] == ["tcp/200: injected"]


def test_host_speed_sampling_scales_times_and_is_disarmed(tmp_path,
                                                          monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    before = signal.getsignal(signal.SIGALRM)
    result = run.end_to_end("transport_blast", 1, 0.0, True, str(tmp_path))
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert result["failed_ops"] == 0
    assert result["info"]["host_block_us"] > 0
    # Twice as slow a host, the same reference time.
    assert run.reference_seconds(2.0, [2e-4] * 9) == pytest.approx(
        run.reference_seconds(1.0, [1e-4] * 9))


def test_wrappers_are_removed_after_a_traced_pass(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    run.set_up("transport_blast", 1, True, str(tmp_path))
    import spans
    from repro.sim.engine import Simulator
    from repro.sim.link import Link
    before = (Link.__dict__["send"], Simulator.__dict__["run"],
              Simulator.__dict__["schedule"])
    assert run.traced("transport_blast", 1, True, str(tmp_path))[
        "failures"] == []
    assert (Link.__dict__["send"], Simulator.__dict__["run"],
            Simulator.__dict__["schedule"]) == before
    rec = spans.Recorder()
    with pytest.raises(RuntimeError):
        with spans.tracing(rec):
            assert Link.__dict__["send"] is not before[0]
            raise RuntimeError("boom")
    assert Link.__dict__["send"] is before[0]
