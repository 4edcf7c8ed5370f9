#!/usr/bin/env python3
"""The repo's benchmark: five workloads, end to end and layer by layer.

One workload, as the driver runs it (see ``BENCHMARK.json``)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S \\
        --trace 0|1

prints every metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
End-to-end times are scaled to a reference host (:class:`HostSpeed`); the
traced run's are as measured.

All five, each in fresh processes -- three untraced runs, whose median is
the set's value, then a traced one -- into one file::

    python3 benchmarks/e2e/run.py [--seed N] [--quick] [--out FILE]

Two such files compared against the bounds in ``BENCHMARK.json``::

    python3 benchmarks/e2e/run.py --agree A.json B.json

README.md beside this file says what is measured and why.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import heapq
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")
HOME_CACHE = os.path.join(os.path.expanduser("~"), ".cache", "repro-iq-rudp")

#: Untraced runs of each workload in a result set; the set's value is their
#: median.
RUNS_PER_SET = 3

#: Times the set-up is done over, after the first, so that ``setup_s`` is a
#: median.
SETUP_REPEATS = 6

#: Iterations of :func:`host_block`, seconds between two blocks while an
#: operation is timed, and the seconds a block takes on the reference host
#: that every reported time is scaled to: this repo's 2-core box in a quiet
#: quarter of an hour.
BLOCK_ITERATIONS = 150
TICK_INTERVAL_S = 0.005
REFERENCE_BLOCK_S = 80e-6


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# The host: a clean environment, and a number that says how fast it is
# ---------------------------------------------------------------------------

def clean_environment(workdir: str) -> None:
    """No ``REPRO_*`` switch of the caller may reach the program, and the
    results cache, if anything consults it after all, is an empty directory
    of this run's own.  Call before ``repro`` is imported."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_CACHE_DIR"] = os.path.join(workdir, "cache")


def home_cache_state():
    try:
        st = os.stat(HOME_CACHE)
    except OSError:
        return None
    return st.st_mtime_ns, len(os.listdir(HOME_CACHE))


def hygiene_failures(workdir: str, home_before) -> list:
    """A warm cache or an armed ledger must not be able to move a number:
    the run fails if either was touched."""
    failures = []
    if home_cache_state() != home_before:
        failures.append(f"{HOME_CACHE} was touched")
    if os.path.exists(os.path.join(workdir, "cache")):
        failures.append("the results cache was used despite cache=False")
    for _, _, files in os.walk(workdir):
        if "ledger.jsonl" in files:
            failures.append("a run ledger was written")
    return failures


class _Token:
    """What the calibration block allocates, as the simulator allocates
    packets and events."""
    __slots__ = ("seq", "prev")

    def __init__(self, seq, prev):
        self.seq = seq
        self.prev = prev

    def step(self, x):
        return self.seq + x


def host_block(clock=perf_counter, push=heapq.heappush, pop=heapq.heappop):
    """Seconds one block of fixed pure-Python work took just now: objects
    made, a heap pushed and popped, a dict written, methods called -- what
    the simulator's inner loops do, and nothing of the program's own, so a
    commit cannot move it."""
    t0 = clock()
    heap = []
    seen = {}
    x = 0
    for i in range(BLOCK_ITERATIONS):
        token = _Token(i, x)
        push(heap, ((i * 7919) % 1009, i, token))
        seen[i & 63] = token
        x = token.step(x) % 1000003
        if i & 3 == 3:
            pop(heap)
    return clock() - t0


class HostSpeed:
    """The host's speed while an operation runs, sampled from inside it.

    This machine is a few cores of a shared host and its speed moves by a
    third within seconds and between quarters of an hour (README,
    "Steadiness"), for the calibration block exactly as for the program.
    So while an operation is timed an interval timer interrupts it every
    :data:`TICK_INTERVAL_S` and the handler times one :func:`host_block`,
    about 2 % of the run.  :func:`reference_seconds` then turns the
    operation's wall into what it would have been on a host on which the
    block takes :data:`REFERENCE_BLOCK_S`.
    """

    def __init__(self):
        self.samples: list = []
        self.previous = signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        self.samples.append(host_block())

    def start(self) -> None:
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S,
                         TICK_INTERVAL_S)

    def stop(self) -> list:
        """Disarm the timer; the block times since :meth:`start`, at least
        one."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.samples.append(host_block())
        return self.samples

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


def reference_seconds(wall_s: float, ticks: list) -> float:
    """``wall_s`` of an interval during which the host's blocks took
    ``ticks``, on the reference host: less the time spent in the blocks
    themselves, scaled by the median block.  The median, because a block
    now and then meets a garbage collection or a stalled processor."""
    return ((wall_s - sum(ticks)) * REFERENCE_BLOCK_S
            / statistics.median(ticks))


def calibrate() -> float:
    """ns per iteration of the calibration block now, the median of 50:
    tells hosts apart, and shows a host whose speed moved during a run."""
    return (1e9 * statistics.median(host_block() for _ in range(50))
            / BLOCK_ITERATIONS)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Set-up, and running the operations of a round
# ---------------------------------------------------------------------------

def set_up(name: str, seed: int, quick: bool, workdir: str):
    """Import the program and build the workload's inputs; returns the
    seconds that took and the workload.  This is what ``setup_s`` times."""
    t0 = perf_counter()
    for path in (os.path.join(ROOT, "src"), HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    workload = workloads.WORKLOADS[name](seed, quick, workdir)
    workload.ops()
    return perf_counter() - t0, workload


def run_ops(ops, *, host=None, rec=None, on_cell=None) -> dict:
    """Run ``ops`` in order, timing each and checking what it returned.

    Checks run outside the timed region.  ``host`` is the
    :class:`HostSpeed` of an untraced run: it samples the host while each
    operation runs, for the operation's wall on the reference host
    (``ref_s``); ``rec`` is the span recorder of a traced pass; ``on_cell(label, result)`` sees every correct cell of a main-phase
    operation before it is dropped (the read-back returns the cold pass's
    cells again).  An operation fails when it raises, when a cell of it is
    wrong (``workloads.account``) or when its own check objects.
    """
    import workloads
    out = {"ops": [], "summaries": {}}
    for op in ops:
        row = {"name": op.name, "phase": op.phase, "packets": 0,
               "datagrams": 0, "failures": []}
        cells = {}
        if host is not None:
            host.start()
        cpu0 = process_time()
        t0 = perf_counter()
        try:
            with (rec.operation(op.name) if rec is not None
                  else contextlib.nullcontext()):
                cells = op.run()
        except Exception as exc:    # the run goes on; the operation failed
            row["failures"].append(
                f"{op.name}: {type(exc).__name__}: {exc}")
        row["wall_s"] = perf_counter() - t0
        row["cpu_s"] = process_time() - cpu0
        if host is not None:
            ticks = host.stop()
            row["ref_s"] = reference_seconds(row["wall_s"], ticks)
            row["block_s"] = statistics.median(ticks)
        for label, res in cells.items():
            acc = workloads.account(label, res)
            row["failures"] += acc["failures"]
            row["packets"] += acc["packets"]
            row["datagrams"] += acc["datagrams"]
            out["summaries"][label] = acc["summary"]
            if (on_cell is not None and op.phase == "main"
                    and not acc["failures"]):
                on_cell(label, res)
        try:
            row["failures"] += op.check(cells)
        except Exception as exc:
            row["failures"].append(f"{op.name} check: "
                                   f"{type(exc).__name__}: {exc}")
        out["ops"].append(row)
    return out


def phase_total(round_: dict, key: str, phase: str = "main") -> float:
    return sum(op[key] for op in round_["ops"] if op["phase"] == phase)


def quartiles(values) -> tuple:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# ---------------------------------------------------------------------------
# The untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def timed_set_up(host, name: str, seed: int, quick: bool, workdir: str,
                 again: bool = False):
    """``(raw seconds, reference seconds, workload)`` of one set-up.

    ``again`` is for every set-up of a process but its first: ``repro`` is
    dropped from ``sys.modules`` beforehand, so its modules are executed
    again; numpy and the standard library stay loaded.  A fresh process per
    sample would also time the host backing a new process's memory."""
    if again:
        for module in [m for m in sys.modules
                       if m.split(".")[0] in ("repro", "workloads")]:
            del sys.modules[module]
        gc.collect()
    host.start()
    raw_s, workload = set_up(name, seed, quick, workdir)
    return raw_s, reference_seconds(raw_s, host.stop()), workload


def measure(workload, seconds: float, host) -> dict:
    """Whole rounds until another would overrun ``seconds``; at least one.

    Every round does the same simulated work, so a round's reference-host
    cost per simulated packet is one sample of what the program costs on
    this workload, and the run reports the median over rounds.
    """
    import workloads
    rounds = []
    failures = []
    digests = set()
    t_start = perf_counter()
    longest = 0.0
    while True:
        t0 = perf_counter()
        round_ = run_ops(workload.ops(), host=host)
        longest = max(longest, perf_counter() - t0)
        rounds.append(round_)
        digests.add(workloads.digest(round_["summaries"]))
        if perf_counter() - t_start + longest > seconds:
            break
    if len(digests) > 1:
        failures.append("two rounds on the same inputs gave different "
                        "summaries")
    ops = [op for r in rounds for op in r["ops"]]
    main = [op for op in ops if op["phase"] == "main"]
    gain, pairs, won = workloads.iq_gain_pct(rounds[0]["summaries"],
                                             workload.pairs)
    op_q1, op_p50, op_q3 = quartiles([1e3 * op["wall_s"] for op in main])
    block_q1, block_p50, block_q3 = quartiles(
        [1e6 * op["block_s"] for op in ops])

    return {
        "rounds": len(rounds),
        "ops": len(ops),
        "failed_ops": sum(bool(op["failures"]) for op in ops) + len(failures),
        "failures": [f for op in ops for f in op["failures"]] + failures,
        "samples": {"ref_us_per_pkt": [
            1e6 * phase_total(r, "ref_s") / max(phase_total(r, "packets"), 1)
            for r in rounds]},
        # As measured on this host, not scaled: what the run looked like.
        "info": {
            "wall_s": statistics.median(phase_total(r, "wall_s")
                                        for r in rounds),
            "wall_us_per_pkt": statistics.median(
                1e6 * phase_total(r, "wall_s")
                / max(phase_total(r, "packets"), 1) for r in rounds),
            "cpu_over_wall": statistics.median(
                phase_total(r, "cpu_s") / phase_total(r, "wall_s")
                for r in rounds),
            "host_block_us": block_p50, "host_block_q1_us": block_q1,
            "host_block_q3_us": block_q3,
            "op_p50_ms": op_p50, "op_q1_ms": op_q1, "op_q3_ms": op_q3,
            "op_samples": len(main),
            "datagrams_per_s": statistics.median(
                phase_total(r, "datagrams") / phase_total(r, "wall_s")
                for r in rounds),
            "packets_per_round": phase_total(rounds[0], "packets"),
            "datagrams_per_round": phase_total(rounds[0], "datagrams"),
            "reread_s": statistics.median(
                phase_total(r, "wall_s", "reread") for r in rounds),
            "reread_ref_s": statistics.median(
                phase_total(r, "ref_s", "reread") for r in rounds),
            "iq_gain_pct": gain, "iq_pairs": pairs, "iq_pairs_won": won,
            "summary_digest": sorted(digests)[0],
        },
    }


def end_to_end(name, seed, seconds, quick, workdir) -> dict:
    host = HostSpeed()
    try:
        cold_s, setup_s, workload = timed_set_up(host, name, seed, quick,
                                                 workdir)
        result = measure(workload, seconds, host)
        rss = peak_rss_mb()
        setups = [setup_s] + [
            timed_set_up(host, name, seed, quick, workdir, again=True)[1]
            for _ in range(2 if quick else SETUP_REPEATS)]
    finally:
        host.close()
    result["info"]["setup_cold_s"] = cold_s
    samples = dict(result.pop("samples"), setup_s=setups,
                   peak_rss_mb=[rss])
    result["end_to_end"] = {}
    for metric, values in samples.items():
        q1, median, q3 = quartiles(values)
        result["end_to_end"][metric] = {"value": median, "n": len(values),
                                        "q1": q1, "q3": q3}
    return result


# ---------------------------------------------------------------------------
# The traced run: per-layer metrics
# ---------------------------------------------------------------------------

def traced(name, seed, quick, workdir) -> dict:
    """One untraced pass over the workload's trace operations for reference,
    then the same operations again under the wrappers of ``spans``.

    Span times are as measured.  Where an untraced pass is set against
    another pass made seconds later (``trace.overhead_pct``,
    ``trace.residual_pct``, ``obs.armed_overhead_pct``), both are taken on
    the reference host, or the ratio is mostly how the host moved between."""
    _, workload = set_up(name, seed, quick, workdir)
    import layers
    import spans
    import workloads

    with spans.discover_callbacks() as callbacks:
        workloads.probe_callbacks(workdir)

    rec = spans.Recorder()
    rec.cost_self, rec.cost_parent = spans.wrapper_cost()
    counts = layers.new_counts()
    probe_cells = {}

    def on_cell(label, res):
        layers.count_cell(counts, res)
        if len(probe_cells) < 8:
            probe_cells[label] = res

    link_send = _link_send()
    host = HostSpeed()
    try:
        reference = run_ops(workload.trace_ops(), host=host)
        disarmed = workload.disarmed()
        armed_overhead = 0.0
        if disarmed is not None:
            # Armed and disarmed twice each, the faster of each.
            bare = [run_ops(disarmed.trace_ops(), host=host)
                    for _ in range(2)]
            armed = [reference, run_ops(workload.trace_ops(), host=host)]
            armed_overhead = 100.0 * (
                min(phase_total(r, "ref_s") for r in armed)
                / min(phase_total(r, "ref_s") for r in bare) - 1.0)
        with spans.tracing(rec, callbacks, layers.HOOKS):
            pass_ = run_ops(workload.trace_ops(), host=host, rec=rec,
                            on_cell=on_cell)
    finally:
        host.close()
    failures = [f for r in (reference, pass_) for op in r["ops"]
                for f in op["failures"]]
    if _link_send() is not link_send:
        failures.append("the wrappers were not removed")
    if workloads.digest(pass_["summaries"]) != workloads.digest(
            reference["summaries"]):
        failures.append("the traced pass gave different summaries")

    gain, _, _ = workloads.iq_gain_pct(reference["summaries"],
                                       workload.pairs)
    # Host seconds per reference second while the traced pass ran: what the
    # untraced pass would have taken then.
    speed = (sum(op["wall_s"] for op in pass_["ops"])
             / sum(op["ref_s"] for op in pass_["ops"]))
    values = layers.layer_metrics(
        rec, counts,
        ref_wall_s=speed * phase_total(reference, "ref_s"),
        ref_all_wall_s=speed * sum(op["ref_s"] for op in reference["ops"]),
        traced_wall_s=phase_total(pass_, "wall_s"),
        reread_s=phase_total(reference, "ref_s", "reread"),
        iq_gain=gain, armed_overhead_pct=armed_overhead,
        probes=layers.runner_probes(probe_cells, workload.configs(),
                                    workdir),
        journal_records=workload.journal_records)

    trace = rec.as_dict()
    trace.update(workload=name, seed=seed, quick=quick,
                 operations=[op["name"] for op in pass_["ops"]],
                 reference_wall_s=phase_total(reference, "wall_s"),
                 traced_wall_s=phase_total(pass_, "wall_s"),
                 host_seconds_per_reference_second=speed,
                 per_layer=values)
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"trace_{name}.json"), "w") as fh:
        json.dump(trace, fh, indent=1)

    ops = reference["ops"] + pass_["ops"]
    return {"ops": len(ops),
            "failed_ops": sum(bool(op["failures"]) for op in ops),
            "failures": failures, "per_layer": values}


def _link_send():
    from repro.sim.link import Link
    return Link.__dict__["send"]


# ---------------------------------------------------------------------------
# One workload in this process (what the driver runs)
# ---------------------------------------------------------------------------

def run_workload(args, spec) -> int:
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(workdir)
    clean_environment(workdir)
    try:
        home_before = home_cache_state()
        calib_start = calibrate()
        if args.trace:
            result = traced(args.workload, args.seed, args.quick, workdir)
            table = [(m["name"], m["unit"]) for m in spec["per_layer"]]
            metrics = result["per_layer"]
        else:
            result = end_to_end(args.workload, args.seed, args.seconds,
                                args.quick, workdir)
            table = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
            metrics = {k: v["value"]
                       for k, v in result["end_to_end"].items()}
        result["failures"] += hygiene_failures(workdir, home_before)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # other runs may be using it
            os.rmdir(os.path.dirname(workdir))
    result.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  comparable=not args.quick,
                  correct=not result["failures"],
                  host={"calib_ns_start": calib_start,
                        "calib_ns_end": calibrate()})
    golden = golden_digest(args.workload, args.seed, args.quick)
    if "info" in result:
        result["info"]["digest_match"] = (
            None if golden is None
            else golden == result["info"]["summary_digest"])

    for failure in result["failures"]:
        print(f"FAILED  {failure}")
    for name, unit in table:
        extra = ""
        if not args.trace:
            m = result["end_to_end"][name]
            extra = f"   n={m['n']} q1={m['q1']:.6g} q3={m['q3']:.6g}"
        print(f"{args.workload:22s} {name:32s} {metrics[name]:>14.6g} "
              f"{unit}{extra}")
    for name, value in result.get("info", {}).items():
        print(f"{args.workload:22s} info.{name:27s} {value}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
    print(json.dumps({
        "correct": result["correct"], "attempted": result["ops"],
        "failed": max(result["failed_ops"], int(not result["correct"])),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in table}}))
    return 0 if result["correct"] else 1


def golden_digest(name: str, seed: int, quick: bool):
    """The digest recorded for this workload, if this run is at the seed and
    scale it was recorded at.  Informational: a correctness fix changes it."""
    with open(os.path.join(HERE, "golden_digests.json")) as fh:
        golden = json.load(fh)
    if quick or seed != golden["seed"]:
        return None
    return golden["digests"].get(name)


# ---------------------------------------------------------------------------
# All workloads, each in a fresh process; and comparing two result files
# ---------------------------------------------------------------------------

def run_all(args, spec) -> int:
    """Every workload in fresh processes: :data:`RUNS_PER_SET` untraced runs,
    whose median each end-to-end value of the set is, then a traced one."""
    combined = {"benchmark": "benchmarks/e2e", "seed": args.seed,
                "seconds": args.seconds, "comparable": not args.quick,
                "workloads": {}}
    calib = [calibrate()]
    os.makedirs(RESULTS, exist_ok=True)
    part = os.path.join(RESULTS, f".part-{os.getpid()}.json")

    def child(workload, trace):
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--out", part]
        if args.quick:
            cmd.append("--quick")
        done = subprocess.run(cmd, timeout=600)
        if not os.path.exists(part):    # it died before it had a result
            sys.exit(done.returncode or 1)
        with open(part) as fh:
            result = json.load(fh)
        os.unlink(part)
        calib.extend(result["host"].values())
        return result

    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [child(workload, 0)
                for _ in range(1 if args.quick else RUNS_PER_SET)]
        merged = runs[0]
        for metric, entry in merged["end_to_end"].items():
            entry["runs"] = [r["end_to_end"][metric]["value"] for r in runs]
            entry["value"] = statistics.median(entry["runs"])
        traced_run = child(workload, 1)
        merged["per_layer"] = traced_run["per_layer"]
        merged["failures"] = [f for r in runs + [traced_run]
                              for f in r["failures"]]
        merged["failed_ops"] = sum(r["failed_ops"]
                                   for r in runs + [traced_run])
        merged["correct"] = not merged["failures"]
        combined["workloads"][workload] = merged
    combined["host"] = {"calib_ns": statistics.median(calib),
                        "calib_ns_min": min(calib),
                        "calib_ns_max": max(calib),
                        "cpus": os.cpu_count()}
    out = args.out or os.path.join(RESULTS, "latest.json")
    with open(out, "w") as fh:
        json.dump(combined, fh, indent=1)
    print(f"wrote {out}")
    return 0 if all(w["correct"]
                    for w in combined["workloads"].values()) else 1


def agree(path_a: str, path_b: str, spec: dict) -> int:
    """One row per (workload, end-to-end metric): both medians, how much
    worse B is than A as a share of A, and whether that is within the
    metric's bound.  Values that must repeat exactly are compared too."""
    import layers
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    for label, doc in (("A", a), ("B", b)):
        host = doc["host"]
        print(f"{label}: host.calib_ns {host['calib_ns']:.2f} "
              f"(min {host['calib_ns_min']:.2f}, max "
              f"{host['calib_ns_max']:.2f}), comparable="
              f"{doc['comparable']}")
    outside = 0
    exact = [name for name, _, _, is_exact in layers.PER_LAYER if is_exact]
    for workload in [w["name"] for w in spec["workloads"]]:
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for m in spec["end_to_end"]:
            va = wa["end_to_end"][m["name"]]["value"]
            vb = wb["end_to_end"][m["name"]]["value"]
            worse = (vb - va) / va if m["better"] == "lower" \
                else (va - vb) / va
            verdict = "ok" if worse <= m["bound"] else "outside"
            outside += verdict == "outside"
            print(f"{workload:22s} {m['name']:18s} {va:>12.6g} {vb:>12.6g} "
                  f"{m['unit']:3s} {100 * worse:+7.2f}% of "
                  f"{100 * m['bound']:.0f}%  {verdict}")
        same = [wa["failed_ops"] == wb["failed_ops"]]
        same += [wa["info"][k] == wb["info"][k]
                 for k in ("iq_gain_pct", "summary_digest")]
        same += [wa["per_layer"][k] == wb["per_layer"][k] for k in exact]
        print(f"{workload:22s} {len(same)} exact values: "
              f"{'identical' if all(same) else 'DIFFERENT'}")
    return 1 if outside else 0


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="write the full result here as JSON")
    parser.add_argument("--quick", action="store_true",
                        help="smoke scale; results are not comparable")
    parser.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.3 if args.quick else float(spec["run_seconds"])
    if args.agree:
        sys.path.insert(0, HERE)
        return agree(*args.agree, spec)
    if args.workload:
        return run_workload(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
