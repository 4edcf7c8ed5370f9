"""Tests for :mod:`repro.campaign`: spec validation and expansion, stable
cell identity across processes, work-stealing execution (zero duplicate
executions, dead-worker lease reclaim), interrupt/resume byte-identity,
aggregation determinism, and the ``repro campaign`` CLI.

Scenario sizing: a greedy n_frames=5 cell runs in about a millisecond, so
even the 200+ cell acceptance campaign stays cheap.
"""

import json
import math
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.api import Scenario
from repro.campaign import (Campaign, CampaignStore, aggregate,
                            load_campaign, run_campaign, run_rows)
from repro.experiments.common import ScenarioConfig, ScenarioResult
from repro.middleware.adaptation import ADAPTATIONS, resolution_default
from repro.obs.live import watch_snapshot
from repro.runner import config_key, run_batch
from repro.runner.cache import ResultsCache
from repro.runner import progress
from repro.runner.failures import FailedResult

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

TINY = dict(workload="greedy", n_frames=5, time_cap=30.0)


def _tiny_campaign(**kw) -> Campaign:
    spec = dict(template=Scenario(**TINY), name="tiny",
                axes={"transport": ["tcp", "iq"]}, seeds=2)
    spec.update(kw)
    return Campaign(spec.pop("template"), **spec)


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
def test_unknown_axis_field_fails_with_did_you_mean():
    with pytest.raises(ValueError, match="did you mean 'transport'"):
        Campaign(Scenario(**TINY), axes={"transprot": ["tcp"]})


def test_unknown_top_level_spec_key_fails_with_hint():
    with pytest.raises(ValueError, match="did you mean 'axes'"):
        Campaign.from_mapping({"template": dict(TINY),
                               "axis": {"transport": ["tcp"]}})


def test_zip_length_mismatch_fails():
    with pytest.raises(ValueError, match="equal lengths"):
        Campaign(Scenario(**TINY),
                 zip_axes={"rtt_s": [0.03, 0.1], "queue_pkts": [64]})


def test_axis_and_zip_overlap_fails():
    with pytest.raises(ValueError, match="both 'axes' and 'zip'"):
        Campaign(Scenario(**TINY), axes={"rtt_s": [0.03]},
                 zip_axes={"rtt_s": [0.1]})


def test_seed_cannot_be_an_axis():
    with pytest.raises(ValueError, match="'seeds' section"):
        Campaign(Scenario(**TINY), axes={"seed": [1, 2]})


def test_case_with_seed_or_empty_rejected():
    with pytest.raises(ValueError, match="seeds come from"):
        Campaign(Scenario(**TINY), cases=[{"seed": 3}])
    with pytest.raises(ValueError, match="non-empty mapping"):
        Campaign(Scenario(**TINY), cases=[{}])


def test_duplicate_cells_rejected():
    with pytest.raises(ValueError, match="duplicate campaign cell"):
        Campaign(Scenario(**TINY), axes={"transport": ["tcp"]},
                 cases=[{"transport": "tcp"}]).cells()


def test_seeds_forms():
    base_seed = Scenario(**TINY).seed
    assert Campaign(Scenario(**TINY), seeds=3).seeds == (
        base_seed, base_seed + 1, base_seed + 2)
    assert Campaign(Scenario(**TINY), seeds=[5, 9]).seeds == (5, 9)
    with pytest.raises(ValueError, match=">= 1"):
        Campaign(Scenario(**TINY), seeds=0)
    with pytest.raises(ValueError, match="duplicate seeds"):
        Campaign(Scenario(**TINY), seeds=[1, 1])


# ----------------------------------------------------------------------
# Expansion
# ----------------------------------------------------------------------
def test_grid_zip_cases_seed_counts():
    camp = Campaign(
        Scenario(**TINY),
        axes={"transport": ["tcp", "iq"], "cbr_bps": [0.0, 4e6, 8e6]},
        zip_axes={"rtt_s": [0.03, 0.1], "queue_pkts": [64, 256]},
        cases=[{"transport": "rudp"}, {"transport": "iq_nocond"}],
        seeds=3)
    # grid 2*3 x zip 2 x seeds 3 = 36, plus cases 2 x seeds 3 = 6.
    assert len(camp) == 42
    # zip axes advance together: rtt 0.03 always pairs with queue 64.
    for cell in camp.cells():
        if "rtt_s" in cell.assignment:
            pair = (cell.assignment["rtt_s"], cell.assignment["queue_pkts"])
            assert pair in ((0.03, 64), (0.1, 256))


def test_expansion_order_is_deterministic_and_labels_stable():
    a = _tiny_campaign().cells()
    b = _tiny_campaign().cells()
    assert [c.key for c in a] == [c.key for c in b]
    assert [c.label for c in a] == [c.label for c in b]
    assert a[0].label == "transport='tcp',seed=1"


def test_spec_mapping_coercion_and_adaptation_registry():
    camp = Campaign.from_mapping({
        "name": "coerce",
        "template": {**TINY, "cbr_bps": "8e6", "adaptation": "resolution"},
        "axes": {"transport": ["rudp", "iq"]},
        "seeds": {"count": 2},
    })
    assert camp.template.cbr_bps == 8e6
    assert camp.template.adaptation is ADAPTATIONS["resolution"]
    assert len(camp) == 4
    with pytest.raises(ValueError, match="unknown adaptation"):
        Campaign.from_mapping({"template": {"adaptation": "resolutoin"}})


def test_lambda_adaptation_rejected_for_cell_identity():
    cfg = ScenarioConfig(**TINY).replace(adaptation=lambda: None)
    assert config_key(cfg) is None
    with pytest.raises(ValueError, match="stably hashable"):
        Campaign.from_scenarios([cfg])
    with pytest.raises(ValueError, match="stably hashable"):
        Campaign(Scenario(**TINY).replace(adaptation=lambda: None),
                 axes={"transport": ["rudp"]}).cells()


def test_load_campaign_toml_and_json(tmp_path):
    spec = tmp_path / "spec.toml"
    spec.write_text(textwrap.dedent("""\
        name = "t"
        [template]
        workload = "greedy"
        n_frames = 5
        time_cap = 30.0
        [axes]
        transport = ["tcp", "iq"]
        [seeds]
        count = 2
    """))
    camp = load_campaign(str(spec))
    assert camp.name == "t" and len(camp) == 4
    jspec = tmp_path / "spec.json"
    jspec.write_text(json.dumps({"name": "t", "template": dict(TINY),
                                 "axes": {"transport": ["tcp", "iq"]},
                                 "seeds": 2}))
    assert [c.key for c in load_campaign(str(jspec)).cells()] == \
        [c.key for c in camp.cells()]
    with pytest.raises(ValueError, match="unrecognised campaign spec"):
        load_campaign(str(tmp_path / "spec.txt"))


# ----------------------------------------------------------------------
# Stable cell identity
# ----------------------------------------------------------------------
def test_cell_keys_agree_across_processes():
    """Two independent interpreters expanding the same spec agree
    byte-for-byte on every cell key (hash randomisation notwithstanding)."""
    prog = textwrap.dedent("""\
        from repro.api import Scenario
        from repro.campaign import Campaign
        from repro.middleware.adaptation import ADAPTATIONS
        camp = Campaign(Scenario(workload="greedy", n_frames=5,
                                 time_cap=30.0,
                                 adaptation=ADAPTATIONS["resolution"]),
                        axes={"transport": ["rudp", "iq"]}, seeds=2)
        print(",".join(c.key for c in camp.cells()))
    """)
    outs = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hashseed)
        outs.append(subprocess.run(
            [sys.executable, "-c", prog], env=env, capture_output=True,
            text=True, check=True).stdout.strip())
    assert outs[0] == outs[1]
    assert len(outs[0].split(",")) == 4


def test_scenario_repr_renders_callables_deterministically():
    sc = Scenario(**TINY).replace(adaptation=resolution_default)
    text = repr(sc)
    assert "repro.middleware.adaptation.resolution_default" in text
    assert "0x" not in text


# ----------------------------------------------------------------------
# Execution: in-memory and store-backed
# ----------------------------------------------------------------------
def test_run_campaign_in_memory():
    run = run_campaign(_tiny_campaign(), cache=False)
    assert run.complete and len(run.results) == 4
    report = run.report()
    assert report.done == 4 and report.failed == 0
    assert "transport" in report.axes


def test_two_workers_split_campaign_no_duplicate_executions(tmp_path):
    camp = _tiny_campaign(seeds=3)
    run = run_campaign(camp, dir=tmp_path / "camp", workers=2, cache=False)
    assert run.complete
    counts = CampaignStore(tmp_path / "camp").journal_counts()
    # The per-worker journals are the execution witness: summed, every
    # cell ran exactly once across the fleet.  (How the cells split
    # between the two workers is timing-dependent and not asserted.)
    assert sum(counts.values()) == len(camp)


def test_rerun_serves_from_store_without_reexecuting(tmp_path):
    camp = _tiny_campaign()
    r1 = run_campaign(camp, dir=tmp_path / "camp", workers=1, cache=False)
    counts1 = CampaignStore(tmp_path / "camp").journal_counts()
    r2 = run_campaign(camp, dir=tmp_path / "camp", workers=1, cache=False)
    counts2 = CampaignStore(tmp_path / "camp").journal_counts()
    assert sum(counts1.values()) == sum(counts2.values()) == len(camp)
    assert r1.report().to_json() == r2.report().to_json()


def test_campaign_dir_rejects_different_campaign(tmp_path):
    run_campaign(_tiny_campaign(), dir=tmp_path / "camp", cache=False)
    with pytest.raises(ValueError, match="different cell set"):
        run_campaign(_tiny_campaign(seeds=3), dir=tmp_path / "camp",
                     cache=False)


def test_failures_captured_and_aggregated(tmp_path):
    # queue_pkts=0 raises at run time -> deterministic "error" cells.
    camp = Campaign(Scenario(**TINY), name="mixed",
                    axes={"queue_pkts": [64, 0]}, seeds=2)
    run = run_campaign(camp, dir=tmp_path / "camp", cache=False)
    assert run.complete
    report = run.report()
    assert report.failed == 2
    assert report.failures.get("error") == 2
    assert report.as_dict()["cells"]["ok"] == 2
    prom = report.render_prometheus()
    assert 'repro_campaign_failures{kind="error"} 2' in prom


def test_interrupt_then_resume_is_byte_identical(tmp_path):
    """Partial run (half the store prefilled is equivalent to a worker
    having died mid-campaign), then resume; the final report must be
    byte-identical to an uninterrupted run elsewhere."""
    camp = _tiny_campaign(seeds=3)
    cells = camp.cells()

    # Partial: execute only the first half by hand.
    store = CampaignStore(tmp_path / "partial")
    store.init(camp)
    from repro.runner.pool import run_one
    for cell in cells[:len(cells) // 2]:
        store.cells.put(cell.key, run_one(cell.config, cache=False))
    partial = aggregate(camp, {c.key: store.cells.get(c.key)
                               for c in cells if store.cells.get(c.key)})
    assert not partial.complete

    resumed = run_campaign(camp, dir=tmp_path / "partial", cache=False)
    fresh = run_campaign(camp, dir=tmp_path / "fresh", cache=False)
    assert resumed.report().to_json() == fresh.report().to_json()


#: How often the test below looks for the first finished cell, and how much
#: work must still be ahead of the campaign when that cell lands, in polls:
#: the interrupt is late by one poll plus however long this process waits
#: for a core, and a cell is a few tens of milliseconds.
SIGINT_POLL_S = 0.005
SIGINT_REMAINING_POLLS = 200


def test_sigint_mid_campaign_then_resume(tmp_path):
    """Real SIGINT against a running campaign process; the resume completes
    and reports byte-identically to an undisturbed campaign."""
    from repro.runner.pool import run_one

    def campaign(seeds):
        return Campaign(Scenario(workload="greedy", n_frames=400,
                                 time_cap=30.0),
                        name="sig", axes={"transport": ["tcp", "iq"]},
                        seeds=seeds)

    # Size the campaign from what it measures: time one seed's cells here,
    # then take enough seeds that the work left after the first cell
    # outlasts the polls it may take to notice it -- however fast a cell is.
    probe = campaign(1).cells()
    started = time.perf_counter()
    for cell in probe:
        run_one(cell.config, cache=False)
    cell_s = (time.perf_counter() - started) / len(probe)
    remaining_s = SIGINT_REMAINING_POLLS * SIGINT_POLL_S
    seeds = min(max(6, math.ceil((1 + remaining_s / cell_s) / len(probe))),
                500)

    camp_dir = tmp_path / "camp"
    prog = textwrap.dedent(f"""\
        import sys
        from repro.api import Scenario
        from repro.campaign import run_campaign, Campaign
        camp = Campaign(Scenario(workload="greedy", n_frames=400,
                                 time_cap=30.0),
                        name="sig", axes={{"transport": ["tcp", "iq"]}},
                        seeds={seeds})
        run_campaign(camp, dir={str(camp_dir)!r}, workers=1, cache=False)
        print("DONE")
    """)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen([sys.executable, "-c", prog], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    # Wait until at least one cell result landed, then interrupt.
    store = CampaignStore(camp_dir)
    deadline = time.time() + 60
    while time.time() < deadline and len(store.cells.keys()) < 1:
        time.sleep(SIGINT_POLL_S)
        if proc.poll() is not None:
            break
    assert len(store.cells.keys()) >= 1, proc.communicate()
    proc.send_signal(signal.SIGINT)
    proc.wait(timeout=60)
    assert proc.returncode != 0  # interrupted, not finished

    camp = campaign(seeds)
    assert len(store.cells.keys()) < len(camp)  # genuinely partial
    resumed = run_campaign(camp, dir=camp_dir, cache=False)
    fresh = run_campaign(camp, dir=tmp_path / "fresh", cache=False)
    assert resumed.complete
    assert resumed.report().to_json() == fresh.report().to_json()


def held_adaptation():
    """Hold the cell while the file ``REPRO_TEST_HOLD`` names exists (20 s
    at most), then adapt as usual."""
    deadline = time.monotonic() + 20
    while (os.path.exists(os.environ["REPRO_TEST_HOLD"])
           and time.monotonic() < deadline):
        time.sleep(0.01)
    return resolution_default()


def test_ctrl_c_under_timeout_stores_nothing_and_resume_runs_the_cell(
        tmp_path, monkeypatch):
    """Ctrl-C while a supervised cell runs: the campaign stops with
    ``KeyboardInterrupt``, the running cell leaves no result, no journal
    frame and no claim, and ``resume`` runs it."""
    hold = tmp_path / "hold"
    hold.touch()
    monkeypatch.setenv("REPRO_TEST_HOLD", str(hold))
    camp = Campaign(Scenario(**TINY).replace(adaptation=held_adaptation),
                    name="held", seeds=3)
    first = camp.cells()[0].key
    root = tmp_path / "camp"
    store = CampaignStore(root)
    finished = threading.Event()

    def interrupt():
        deadline = time.monotonic() + 30
        while not store.claimed_keys() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)
        if not finished.is_set():
            os.kill(os.getpid(), signal.SIGINT)
    thread = threading.Thread(target=interrupt, daemon=True)
    thread.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            run_campaign(camp, dir=root, workers=1, timeout=60.0,
                         cache=False, progress=False)
    finally:
        finished.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert not store.cells.path_for(first).exists()
    assert store.cells.keys() == set()
    assert all(first not in frames for frames in store.journals().values())
    assert store.claimed_keys() == set()

    hold.unlink()
    resumed = run_campaign(camp, dir=root, cache=False, progress=False)
    assert resumed.complete and resumed.results_by_key[first].completed
    assert sum(store.journal_counts().values()) == len(camp)


def test_torn_cell_file_is_healed_on_rerun(tmp_path):
    """A cell result file that exists but does not unpickle (torn write)
    must be re-executed, not skipped-on-existence forever."""
    camp = _tiny_campaign()
    cells = camp.cells()
    r1 = run_campaign(camp, dir=tmp_path / "camp", cache=False)
    victim = CampaignStore(tmp_path / "camp").cells.path_for(cells[0].key)
    victim.write_bytes(victim.read_bytes()[:10])
    r2 = run_campaign(camp, dir=tmp_path / "camp", cache=False)
    assert r2.complete
    assert r1.report().to_json() == r2.report().to_json()


#: Malformed pickles whose load raises ValueError (an unknown protocol),
#: UnicodeDecodeError and TypeError rather than UnpicklingError.
MALFORMED = (b"\x80\x09abc", b"X\x02\x00\x00\x00\xff\xff.", b"K\x01)R.")


@pytest.mark.parametrize("junk", MALFORMED)
def test_malformed_cache_entry_and_cell_read_as_missing(tmp_path, capsys,
                                                        junk):
    """Whatever ``pickle.load`` raises on a malformed file, a cache entry
    is a miss that is recomputed and rewritten, a campaign cell re-runs on
    resume, and ``repro report`` names the file in one ``error:`` line."""
    from repro.cli import main
    camp = _tiny_campaign()
    cell = camp.cells()[0]
    cache = ResultsCache(tmp_path / "cache")
    cache.path_for(cell.key).parent.mkdir()
    cache.path_for(cell.key).write_bytes(junk)
    assert cache.get(cell.key) is None
    res = run_batch([cell.config], cache=cache)[0]
    assert cache.get(cell.key, expect=ScenarioResult).summary == res.summary

    run_campaign(camp, dir=tmp_path / "camp", cache=False, progress=False)
    store = CampaignStore(tmp_path / "camp")
    path = store.cells.path_for(cell.key)
    path.write_bytes(junk)
    assert main(["report", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err
    assert len(err.strip().splitlines()) == 1
    resumed = run_campaign(camp, dir=tmp_path / "camp", cache=False,
                           progress=False)
    assert resumed.complete
    assert resumed.results_by_key[cell.key].summary == res.summary
    assert store.cells.get(cell.key).summary == res.summary  # re-ran, stored


def test_dead_worker_lease_is_reclaimed(tmp_path):
    camp = _tiny_campaign()
    cells = camp.cells()
    store = CampaignStore(tmp_path / "camp", worker="survivor",
                          lease_s=0.2)
    store.init(camp)
    # A "dead" worker claimed the first cell and never released it.
    dead = CampaignStore(tmp_path / "camp", worker="dead", lease_s=0.2)
    assert dead.try_claim(cells[0].key)
    # While the lease lives, the survivor cannot take the cell...
    assert not store.try_claim(cells[0].key)
    time.sleep(0.25)
    # ...after expiry it steals and the campaign completes.
    run = run_campaign(camp, dir=tmp_path / "camp", cache=False,
                       lease_s=0.2)
    assert run.complete
    claim = store.read_claim(cells[0].key)
    assert claim is None  # released after the steal finished the cell


@pytest.mark.parametrize("lease_s", [float("nan"), float("inf")])
def test_a_lease_must_be_a_finite_number_of_seconds(tmp_path, lease_s):
    """A NaN lease made every claim look expired, so two live workers both
    took one key; an infinite one left a dead worker's cell stuck."""
    with pytest.raises(ValueError, match="lease_s"):
        CampaignStore(tmp_path / "camp", lease_s=lease_s)


def test_live_lease_blocks_and_leaves_campaign_incomplete(tmp_path):
    camp = _tiny_campaign()
    cells = camp.cells()
    holder = CampaignStore(tmp_path / "camp", worker="holder",
                           lease_s=3600.0)
    holder.init(camp)
    assert holder.try_claim(cells[0].key)
    run = run_campaign(camp, dir=tmp_path / "camp", cache=False)
    assert not run.complete
    assert [c.key for c in run.incomplete] == [cells[0].key]


# ----------------------------------------------------------------------
# What a finished cell costs: one serialisation, one outcome frame, and no
# read-back of what this process just wrote
# ----------------------------------------------------------------------
_RESULTS = (ScenarioResult, FailedResult)


class _CountingPickle:
    """Stands in for the ``pickle`` module as ``campaign.exec`` (which
    serialises a cell), ``campaign.store`` (which writes and replays its
    journal) and ``runner.cache`` (whose ``put`` and ``read_pickle`` write
    and load an entry) see it, counting the results that pass through
    (bare or inside a journal frame)."""

    def __init__(self):
        self.serialised = self.unpickled = 0

    def __getattr__(self, name):
        return getattr(pickle, name)

    @staticmethod
    def _results_in(obj) -> int:
        return sum(isinstance(x, _RESULTS)
                   for x in (obj if isinstance(obj, tuple) else (obj,)))

    def dumps(self, obj, *a, **kw):
        self.serialised += self._results_in(obj)
        return pickle.dumps(obj, *a, **kw)

    def dump(self, obj, fh, *a, **kw):
        self.serialised += self._results_in(obj)
        return pickle.dump(obj, fh, *a, **kw)

    def load(self, fh, *a, **kw):
        value = pickle.load(fh, *a, **kw)
        self.unpickled += self._results_in(value)
        return value


@pytest.fixture
def counted(monkeypatch):
    """``(pickle counter, list of executed configs)`` for the campaign
    layer of this process."""
    from repro.campaign import exec as exec_mod, store as store_mod
    from repro.runner import cache as cache_mod
    counter = _CountingPickle()
    for mod in (exec_mod, store_mod, cache_mod):
        monkeypatch.setattr(mod, "pickle", counter)
    executed = []
    real_run = exec_mod._run_detached

    def run_detached(cfg):
        executed.append(cfg)
        return real_run(cfg)
    monkeypatch.setattr(exec_mod, "_run_detached", run_detached)
    return counter, executed


def _journal_bytes(root) -> dict:
    return {p.name: p.read_bytes()
            for p in sorted((root / "journal").iterdir())}


def test_cold_pass_serialises_each_result_once_and_reads_none_back(
        tmp_path, counted):
    counter, executed = counted
    camp = _tiny_campaign(seeds=3)
    n = len(camp)
    run = run_campaign(camp, dir=tmp_path / "camp", workers=1, cache=False)
    assert run.complete and len(executed) == n
    assert counter.serialised == n      # cells/ only, not the journal too
    assert counter.unpickled == 0       # own cells are not read back
    journal = sum(len(b) for b in _journal_bytes(tmp_path / "camp").values())
    assert 0 < journal < 1024 * n
    assert sum(CampaignStore(tmp_path / "camp").journal_counts().values()) == n


def test_cold_pass_with_a_cache_serialises_each_result_once(tmp_path,
                                                           counted):
    """With the results cache on, a fresh cell is pickled once and those
    bytes land in ``cells/`` and in the cache alike."""
    counter, executed = counted
    camp = _tiny_campaign(seeds=2)
    n = len(camp)
    cache = ResultsCache(tmp_path / "cache")
    run = run_campaign(camp, dir=tmp_path / "camp", workers=1, cache=cache)
    assert run.complete and len(executed) == n
    assert counter.serialised == n      # one pickle for cells/ and cache
    assert counter.unpickled == 0
    cells = CampaignStore(tmp_path / "camp").cells
    assert cells.keys() == cache.keys() == {c.key for c in camp.cells()}
    for key in cells.keys():
        assert (cache.path_for(key).read_bytes()
                == cells.path_for(key).read_bytes())


def test_read_back_unpickles_each_cell_once(tmp_path, counted):
    counter, executed = counted
    camp = _tiny_campaign(seeds=3)
    n = len(camp)
    cold = run_campaign(camp, dir=tmp_path / "camp", workers=1, cache=False)
    counter.serialised = counter.unpickled = 0
    del executed[:]
    again = run_campaign(camp, dir=tmp_path / "camp", workers=1, cache=False)
    assert again.complete and executed == []
    assert counter.unpickled == n       # the preload is the collect
    assert counter.serialised == 0
    assert again.report().to_json() == cold.report().to_json()


def test_fan_out_parent_loads_each_cell_once(tmp_path, counted):
    """The parent of a ``workers=2`` run executes nothing itself: it
    receives what its pool children ran over their pipes and stores it, so
    the only cells it unpickles are the preloaded ones, once each (resume:
    the preloaded half is not loaded again by the collect)."""
    counter, executed = counted
    camp = _tiny_campaign(seeds=3)
    cells = camp.cells()
    store = CampaignStore(tmp_path / "camp", worker="earlier")
    store.init(camp)
    from repro.campaign import worker_loop
    worker_loop(store, [(c.key, c.label, c.config) for c in cells[:3]],
                cache=False)
    counter.serialised = counter.unpickled = 0
    del executed[:]
    run = run_campaign(camp, dir=tmp_path / "camp", workers=2, cache=False)
    assert run.complete and executed == []
    assert counter.unpickled == 3
    assert counter.serialised == len(cells) - 3
    counts = CampaignStore(tmp_path / "camp").journal_counts()
    assert counts["earlier"] == 3 and sum(counts.values()) == len(cells)


def test_campaign_cells_draw_no_progress_line_of_their_own(
        tmp_path, monkeypatch, capsys):
    """Each cell runs through ``run_one``; with the campaign's own line
    off, a terminal must not get one ``sweep: 1/1`` per cell."""
    monkeypatch.setattr(progress, "progress_enabled", lambda stream: True)
    camp = _tiny_campaign(axes={"transport": ["tcp", "iq", "rudp"]})
    run = run_campaign(camp, dir=tmp_path / "camp", workers=1, cache=False,
                       progress=False)
    assert run.complete and len(camp) == 6
    assert capsys.readouterr().err == ""


def test_fan_out_parent_line_counts_failures_from_results(tmp_path, capsys):
    # queue_pkts=0 raises at run time -> one deterministic "error" cell.
    camp = Campaign(Scenario(**TINY), name="mixed",
                    axes={"queue_pkts": [64, 0]}, seeds=1)
    run = run_campaign(camp, dir=tmp_path / "camp", workers=2, cache=False,
                       progress=True)
    assert run.complete and run.report().failed == 1
    line = capsys.readouterr().err.rstrip("\n").split("\r")[-1]
    assert line.startswith("sweep: 2/2 done  (1 failed)"), line


def test_in_memory_results_equal_read_back(tmp_path):
    camp = _tiny_campaign(seeds=3)
    cold = run_campaign(camp, dir=tmp_path / "camp", workers=1, cache=False)
    store = CampaignStore(tmp_path / "camp")
    assert list(cold.results) == [c.label for c in camp.cells()]
    for cell in camp.cells():
        stored = store.cells.get(cell.key)
        assert cold.results[cell.label] is not stored
        assert cold.results[cell.label].summary == stored.summary
    reread = run_campaign(camp, dir=tmp_path / "camp", workers=1,
                          cache=False)
    forked = run_campaign(camp, dir=tmp_path / "camp2", workers=2,
                          cache=False)
    for other in (reread, forked):
        assert other.report().render() == cold.report().render()
        assert other.report().to_json() == cold.report().to_json()


def test_journal_records_the_outcome_of_each_cell(tmp_path):
    camp = Campaign(Scenario(**TINY), name="mixed",
                    axes={"queue_pkts": [64, 0]}, seeds=2)
    run = run_campaign(camp, dir=tmp_path / "camp", cache=False)
    (name,) = _journal_bytes(tmp_path / "camp")
    with open(tmp_path / "camp" / "journal" / name, "rb") as fh:
        frames = {}
        while fh.peek(1):
            magic, key, outcome = pickle.load(fh)
            assert magic == "v1" and isinstance(outcome, str)
            frames[key] = outcome
    assert frames == {
        c.key: ("error" if c.config.queue_pkts == 0 else "ok")
        for c in camp.cells()}
    assert {k: getattr(r, "kind", "ok")
            for k, r in run.results_by_key.items()} == frames


def _parent_format_dir(root, camp, *, journaled):
    """A campaign directory as the commit before the outcome frames wrote
    it: the first ``journaled`` cells stored, and worker ``old`` 's journal
    holding the whole result of each."""
    from repro.runner.pool import run_one
    store = CampaignStore(root, worker="old")
    store.init(camp)
    with open(store.journal_dir / "old.pkl", "ab") as journal:
        for cell in camp.cells()[:journaled]:
            res = run_one(cell.config, cache=False, on_error="capture")
            store.cells.put(cell.key, res)
            pickle.dump(("v1", cell.key, res), journal,
                        protocol=pickle.HIGHEST_PROTOCOL)
    return store


def test_parent_format_journal_still_counts_and_is_left_alone(
        tmp_path, capsys, monkeypatch):
    from repro.cli import main
    camp = _tiny_campaign(seeds=3)
    n = len(camp)
    root = tmp_path / "camp"
    store = _parent_format_dir(root, camp, journaled=n)
    before = _journal_bytes(root)
    assert len(before["old.pkl"]) > 1024 * n    # whole results, not outcomes
    assert store.journal_counts() == {"old": n}
    assert watch_snapshot(root)["executed"] == {"old": n}
    resumed = run_campaign(camp, dir=root, cache=False)
    assert resumed.complete
    for argv in (["status", str(root)], ["watch", str(root), "--once"],
                 ["report", str(root)], ["resume", str(root)]):
        assert main(["campaign", *argv]) == 0
    capsys.readouterr()
    # Not truncated as a "torn tail" by a stricter frame check, and nothing
    # was re-executed into a new journal.
    assert _journal_bytes(root) == before
    assert store.journal_counts() == {"old": n}


def test_outcome_frames_append_to_a_parent_format_journal(tmp_path):
    """A worker resuming under the same name appends outcome frames after
    the full-result frames; both kinds count, once per key."""
    from repro.campaign import worker_loop
    camp = _tiny_campaign(seeds=3)
    cells = camp.cells()
    root = tmp_path / "camp"
    _parent_format_dir(root, camp, journaled=2)
    old_size = (root / "journal" / "old.pkl").stat().st_size
    done = worker_loop(CampaignStore(root, worker="old"),
                       [(c.key, c.label, c.config) for c in cells],
                       cache=False)
    assert done == len(cells) - 2
    assert CampaignStore(root).journal_counts() == {"old": len(cells)}
    grown = (root / "journal" / "old.pkl").stat().st_size - old_size
    assert 0 < grown < 128 * done


def test_torn_campaign_journal_tail_is_truncated(tmp_path):
    camp = _tiny_campaign()
    run_campaign(camp, dir=tmp_path / "camp", cache=False)
    (name,) = _journal_bytes(tmp_path / "camp")
    path = tmp_path / "camp" / "journal" / name
    whole = path.read_bytes()
    path.write_bytes(whole + whole[:17])    # a frame cut short by a kill
    store = CampaignStore(tmp_path / "camp")
    assert sum(store.journal_counts().values()) == len(camp)
    assert path.read_bytes() == whole


# ----------------------------------------------------------------------
# run_rows bridge (tables/dynamics routing)
# ----------------------------------------------------------------------
def test_run_rows_without_dir_matches_run_batch():
    from repro.runner import run_batch
    rows = {"tcp": ScenarioConfig(**TINY).replace(transport="tcp"),
            "iq": ScenarioConfig(**TINY).replace(transport="iq")}
    a = run_rows(rows, name="t", cache=False)
    b = run_batch(rows, cache=False)
    assert list(a) == list(b) == ["tcp", "iq"]
    assert a["tcp"].summary == b["tcp"].summary


def test_run_rows_with_dir_keys_results_like_legacy(tmp_path):
    rows = {"tcp": ScenarioConfig(**TINY).replace(transport="tcp"),
            ("iq", 2): ScenarioConfig(**TINY).replace(transport="iq")}
    got = run_rows(rows, name="t", dir=tmp_path / "camp", cache=False)
    assert list(got) == ["tcp", ("iq", 2)]
    counts = CampaignStore(tmp_path / "camp").journal_counts()
    assert sum(counts.values()) == 2
    # Second pass re-executes nothing and returns identical summaries.
    again = run_rows(rows, name="t", dir=tmp_path / "camp", cache=False)
    counts2 = CampaignStore(tmp_path / "camp").journal_counts()
    assert sum(counts2.values()) == 2
    assert again["tcp"].summary == got["tcp"].summary


def test_run_rows_with_dir_returns_a_list_for_a_sequence(tmp_path):
    """Like ``run_batch``: a sequence of rows comes back as a list, in row
    order, with or without a campaign directory."""
    rows = [ScenarioConfig(**TINY).replace(transport=t)
            for t in ("tcp", "iq")]
    got = run_rows(rows, name="t", dir=tmp_path / "camp", cache=False)
    want = run_rows(rows, name="t", cache=False)
    assert isinstance(got, list) and isinstance(want, list)
    assert [r.summary for r in got] == [r.summary for r in want]
    assert [type(r.conn).__name__ for r in got] == ["TcpConnection",
                                                    "RudpConnection"]


def test_run_rows_rejects_trace_with_dir(tmp_path):
    rows = {"tcp": ScenarioConfig(**TINY)}
    with pytest.raises(ValueError, match="trace"):
        run_rows(rows, name="t", dir=tmp_path / "camp", trace="t.jsonl")


def test_table_bench_accepts_campaign_dir(tmp_path):
    from repro.experiments import baseline
    res = baseline.run_table2(n_frames=5, cache=False,
                              campaign_dir=str(tmp_path / "camp"))
    assert list(res) == ["TCP", "IQ-RUDP"]
    assert (tmp_path / "camp" / "manifest.json").exists()


# ----------------------------------------------------------------------
# Aggregation determinism
# ----------------------------------------------------------------------
def test_report_json_has_no_wallclock(tmp_path):
    run = run_campaign(_tiny_campaign(), dir=tmp_path / "c", cache=False)
    payload = run.report().to_json()
    # Nothing epoch-like anywhere: resume byte-identity depends on it.
    assert "claimed_at" not in payload and "expires_at" not in payload
    decoded = json.loads(payload)
    assert decoded["cells"]["total"] == 4


def _fold_fixture():
    """8 cells, 4 seeds per transport: one failed, one pending, and 3 ok
    cells per axis value whose sum depends on the order it is taken in."""
    camp = _tiny_campaign(seeds=4)
    cells = camp.cells()
    results = {}
    for n, cell in enumerate(cells[:-1]):       # the last cell is pending
        value = (0.1, 0.2, 0.3, 0.3)[cell.seed - 1]
        results[cell.key] = (
            FailedResult(kind="timeout", scenario=cell.label) if n == 3
            else ScenarioResult(
                summary={"duration_s": value, "throughput_kBps": 7 * value},
                log=[], conn=None, source=None, strategy=None, net=None,
                sim=None, completed=1))
    assert len(results) == 7
    return camp, results


def _renderings(report):
    return report.to_json(), report.render(), report.render_prometheus()


def test_fold_is_landing_order_independent(tmp_path):
    import itertools
    from repro.campaign.aggregate import Aggregator
    camp, results = _fold_fixture()
    want = _renderings(aggregate(camp, results))
    assert '"pending": 1' in want[0] and "timeout: 1" in want[1]
    first, *landing = results                   # 6 cells land in any order
    for order in itertools.permutations(landing):
        agg = Aggregator.of(camp)
        for key in (first, *order):
            assert agg.fold(key, results[key])
        assert _renderings(agg.report()) == want, order
    # ... and through a directory filled in two steps.
    store = CampaignStore(tmp_path / "camp")
    store.init(camp)
    agg = store.aggregator()
    for step in (landing[:2:-1], [first, *landing[:3]]):
        for key in step:
            store.cells.put(key, results[key])
        assert agg.poll(store) == len(step)
    assert _renderings(agg.report()) == want


def test_fold_ignores_unknown_and_repeated_keys_and_waits_for_torn_cells(
        tmp_path):
    camp, results = _fold_fixture()
    store = CampaignStore(tmp_path / "camp")
    store.init(camp)
    agg = store.aggregator()
    key, other = list(results)[:2]
    assert agg.fold(key, results[key])
    before = agg.report().to_json()
    assert not agg.fold(key, results[other])    # repeated
    assert not agg.fold("f" * 20, results[other])   # not a cell
    assert agg.report().to_json() == before and agg.done == 1
    store.cells.path_for(other).write_bytes(b"\x80\x05torn")
    store.cells.path_for("f" * 20).write_bytes(b"not a cell of this campaign")
    assert agg.poll(store) == 0 and other not in agg
    store.cells.put(other, results[other])     # the re-run heals it
    assert agg.poll(store) == 1 and other in agg
    assert agg.report().done == 2


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _write_spec(tmp_path):
    spec = tmp_path / "spec.toml"
    spec.write_text(textwrap.dedent("""\
        name = "cli"
        [template]
        workload = "greedy"
        n_frames = 5
        time_cap = 30.0
        [axes]
        transport = ["tcp", "iq"]
        [seeds]
        count = 2
    """))
    return spec


def test_campaign_cli_run_status_report(tmp_path, capsys, monkeypatch):
    from repro.cli import main
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    spec = _write_spec(tmp_path)
    camp_dir = str(tmp_path / "camp")
    assert main(["campaign", "run", str(spec), "--dir", camp_dir]) == 0
    out = capsys.readouterr().out
    assert "4/4 cells done" in out

    assert main(["campaign", "status", camp_dir]) == 0
    assert "4/4 done" in capsys.readouterr().out

    assert main(["campaign", "resume", camp_dir]) == 0
    capsys.readouterr()

    assert main(["campaign", "report", camp_dir, "--json"]) == 0
    decoded = json.loads(capsys.readouterr().out)
    assert decoded["cells"] == {"total": 4, "done": 4, "ok": 4,
                                "failed": 0, "pending": 0}

    assert main(["campaign", "report", camp_dir, "--prom"]) == 0
    assert 'repro_campaign_cells{state="done"} 4' in capsys.readouterr().out


def test_campaign_cli_set_overrides_template(tmp_path, capsys, monkeypatch):
    from repro.cli import main
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    spec = _write_spec(tmp_path)
    assert main(["campaign", "run", str(spec), "--set", "n_frames=3"]) == 0
    assert "4/4 cells done" in capsys.readouterr().out


def test_campaign_cli_errors_are_exit_2(tmp_path, capsys):
    from repro.cli import main
    assert main(["campaign", "status", str(tmp_path / "nope")]) == 2
    assert "no campaign manifest" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Acceptance: >= 200 cells, 2 workers, no duplicates, cache-served re-run
# ----------------------------------------------------------------------
def test_acceptance_200_cell_campaign_two_workers(tmp_path):
    camp = Campaign(
        Scenario(workload="greedy", n_frames=2, time_cap=30.0),
        name="acceptance",
        axes={"bottleneck_bps": [4e6 + i * 1e6 for i in range(9)],
              "rtt_s": [0.01 + 0.01 * i for i in range(8)]},
        seeds=3)
    assert len(camp) == 216
    cache = ResultsCache(tmp_path / "cache")
    run = run_campaign(camp, dir=tmp_path / "camp", workers=2, cache=cache)
    assert run.complete
    counts = CampaignStore(tmp_path / "camp").journal_counts()
    assert sum(counts.values()) == 216  # no cell executed twice
    # Immediate re-run in a fresh directory: served from the results cache
    # (single in-process worker so the hit counter is observable here).
    cache2 = ResultsCache(tmp_path / "cache")
    rerun = run_campaign(camp, dir=tmp_path / "camp2", workers=1,
                         cache=cache2)
    assert rerun.complete
    assert cache2.hits >= 216
    assert run.report().to_json() == rerun.report().to_json()


def test_campaign_and_cache_store_a_result_under_one_key(tmp_path):
    """A cell's name in ``cells/`` is its results-cache key: a campaign
    run with a cache leaves ``cache.path_for(cell.key)`` for every cell,
    so both directories list the same file names."""
    camp = _tiny_campaign()
    cache = ResultsCache(tmp_path / "cache")
    run_campaign(camp, dir=tmp_path / "camp", cache=cache, progress=False)
    for cell in camp.cells():
        assert cache.path_for(cell.key).is_file(), cell
    assert (sorted(os.listdir(tmp_path / "cache"))
            == sorted(os.listdir(tmp_path / "camp" / "cells")))
