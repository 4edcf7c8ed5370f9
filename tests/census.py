#!/usr/bin/env python3
"""Execution census: which statements of ``src/repro`` the repo's traffic
reaches, and a check that each one it does not reach is accounted for.

The traffic is the union of what exercises the program (:data:`PARTS`): the
ten ``Experiment`` declarations at their declared length, cold and then warm
from the cache; the figure, ablation, extension and sensitivity benches; the
budget benches; ``repro fuzz --budget 25`` at the CI seeds; the five e2e
workloads at ``--quick`` size; the commands of the CI examples and campaign
jobs; and the six examples.

A statement is an ``ast.stmt`` (docstrings and other statements that compile
to nothing excluded).  It is reached when its first line gets a
``sys.settrace`` line event.  An unreached statement must be

* exempt by category: a ``raise``, inside an ``except`` body, or in a repr,
  pickling or comparison dunder; or
* in a function (or class) named in ``census_allow.txt``, one
  ``module:Qualified.name  reason`` per line.

Everything, each part in its own process (up to four at a time), merged and
checked (exit 1 on an unaccounted statement; ``--report`` writes the
per-file table)::

    PYTHONPATH=src python tests/census.py [--report FILE]

One part's reach, and a check over saved reach files::

    PYTHONPATH=src python tests/census.py --part NAME --out FILE
    PYTHONPATH=src python tests/census.py --check FILE... [--report FILE]

Pool children are not followed (they leave through ``os._exit``), so code
only a child runs goes on the allowlist.  The benches' wall-clock asserts
do not hold under a tracer: a part's failures are printed, not gated; the
CI steps that run the same work untraced gate it.
"""

from __future__ import annotations

import ast
import contextlib
import glob
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "repro")
ALLOW = os.path.join(HERE, "census_allow.txt")

#: Repr, pickling and comparison dunders: exempt wherever they are defined.
DUNDERS = frozenset({
    "__repr__", "__reduce__", "__reduce_ex__", "__getstate__",
    "__setstate__", "__getnewargs__", "__eq__", "__ne__", "__lt__",
    "__le__", "__gt__", "__ge__", "__hash__"})


# ---------------------------------------------------------------------------
# Statements, reach, and the check
# ---------------------------------------------------------------------------

def statements(path: str) -> list:
    """``[(line, scope, category)]`` for each statement of one file.
    ``scope`` is the innermost enclosing def or class as a dotted name
    (``""`` at module level); ``category`` names the exempt kind, or None."""
    out = []

    def visit(body, scope, category, in_def=False):
        for node in body:
            if (isinstance(node, (ast.Global, ast.Nonlocal))
                    or isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant)
                    or in_def and isinstance(node, ast.AnnAssign)
                    and node.value is None):
                continue        # docstrings and the like: no bytecode
            out.append((node.lineno, scope, category or (
                "raise" if isinstance(node, ast.Raise) else None)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                visit(node.body, f"{scope}.{node.name}".lstrip("."),
                      category or ("dunder" if node.name in DUNDERS
                                   else None),
                      not isinstance(node, ast.ClassDef))
                continue
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, ()), scope, category, in_def)
            for handler in getattr(node, "handlers", ()):
                visit(handler.body, scope, category or "except", in_def)
            for case in getattr(node, "cases", ()):
                visit(case.body, scope, category, in_def)

    with open(path) as fh:
        visit(ast.parse(fh.read(), path).body, "", None)
    return out


class Tracer:
    """Records the statement lines under ``root`` that get a line event.
    A code object stops being traced once all its statement lines have."""

    def __init__(self, root: str):
        self.root = os.path.join(os.path.abspath(root), "")
        self.seen: dict = {}        # file -> lines reached
        self._stmts: dict = {}      # file -> statement lines
        self._todo: dict = {}       # code -> lines still to see; None: not ours

    def _call(self, frame, event, arg):
        code = frame.f_code
        todo = self._todo.get(code, 0)
        if todo == 0:
            todo = self._todo[code] = self._lines(code)
        return self._line if todo else None

    def _lines(self, code):
        path = code.co_filename
        if not path.startswith(self.root):
            return None
        if path not in self._stmts:
            self._stmts[path] = {line for line, _, _ in statements(path)}
            self.seen[path] = set()
        stmts = self._stmts[path]
        return {line for _, _, line in code.co_lines()
                if line in stmts} - self.seen[path]

    def _line(self, frame, event, arg):
        if event == "line":
            self.seen[frame.f_code.co_filename].add(frame.f_lineno)
            self._todo[frame.f_code].discard(frame.f_lineno)
        return self._line

    def start(self) -> None:
        self._before = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(self._before[0])
        threading.settrace(self._before[1])

    def reach(self) -> dict:
        """``{path relative to root's parent: [lines]}``."""
        base = os.path.dirname(self.root.rstrip(os.sep))
        return {os.path.relpath(p, base): sorted(lines)
                for p, lines in self.seen.items()}


def load_allow(path: str = ALLOW) -> dict:
    """``{"module:Qual.name": reason}``; ``#`` starts a comment line, and
    a name without a reason is an error."""
    allow = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if line and not line.startswith("#"):
                name, _, reason = line.partition(" ")
                if not reason.strip():
                    raise ValueError(f"{path}: {name} has no reason")
                allow[name] = reason.strip()
    return allow


def sources(root: str) -> list:
    return sorted(glob.glob(os.path.join(root, "**", "*.py"), recursive=True))


def check(root: str, reached: dict, allow: dict) -> tuple:
    """``(rows, unaccounted, unknown, unused)``: one row of counts per
    file, the unreached statements no category or allowlist line covers as
    ``(path, line, name)``, the allowlist names that name no function or
    class, and those that cover no unreached statement."""
    rows, unaccounted, scopes, used = [], [], set(), set()
    for path in sources(root):
        rel = os.path.relpath(path, os.path.dirname(root))
        module = rel[:-3].replace(os.sep, ".").removesuffix(".__init__")
        seen = set(reached.get(rel, ()))
        counts = Counter()
        for line, scope, category in statements(path):
            name = f"{module}:{scope}"
            scopes.add(name)
            counts["statements"] += 1
            if line in seen:
                continue
            counts["unreached"] += 1
            covers = [a for a in allow
                      if name == a or name.startswith(a + ".")]
            if category:
                counts[category] += 1
            elif covers:
                counts["allowed"] += 1
                used.update(covers)
            else:
                counts["unaccounted"] += 1
                unaccounted.append((rel, line, name))
        rows.append((rel, counts))
    unknown = [a for a in allow if not any(
        s == a or s.startswith(a + ".") for s in scopes)]
    unused = [a for a in allow if a not in used and a not in unknown]
    return rows, unaccounted, unknown, unused


def render(rows, unaccounted, unknown, unused) -> str:
    """The totals, a row per file with an unreached statement, then every
    unaccounted statement and allowlist name that names nothing."""
    kinds = ("raise", "except", "dunder", "allowed", "unaccounted")
    total = sum(c["statements"] for _, c in rows)
    unreached = sum(c["unreached"] for _, c in rows)
    out = [f"{total} statements, {unreached} unreached "
           f"({100.0 * unreached / max(total, 1):.1f} %): "
           + ", ".join(f"{sum(c[k] for _, c in rows)} {k}" for k in kinds),
           "", f"{'file':44s} {'stmts':>6s} {'unreached':>9s} "
           + " ".join(f"{k:>11s}" for k in kinds)]
    out += [f"{rel:44s} {c['statements']:6d} {c['unreached']:9d} "
            + " ".join(f"{c[k]:11d}" for k in kinds)
            for rel, c in rows if c["unreached"]]
    out += [f"UNACCOUNTED {rel}:{line}  {name}"
            for rel, line, name in unaccounted]
    out += [f"UNKNOWN allowlist name {a}" for a in unknown]
    out += [f"note: allowlist name {a} covers no unreached statement"
            for a in unused]
    return "\n".join(out)


# ---------------------------------------------------------------------------
# The traffic
# ---------------------------------------------------------------------------

def _repro(*argv: str) -> None:
    """``python -m repro ARGV``, in this process."""
    import runpy
    sys.argv = ["repro", *argv]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        print(f"  repro {' '.join(argv)}: exit {exc.code}", file=sys.stderr)


class _Failed:
    """A pytest plugin noting the tests that fail."""

    def __init__(self):
        self.ids = []

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.ids.append(report.nodeid)


def _pytest(*files: str) -> None:
    import pytest
    failed = _Failed()
    pytest.main(["-q", "-p", "no:cacheprovider", "--benchmark-disable",
                 *(os.path.join(ROOT, "benchmarks", f) for f in files)],
                plugins=[failed])
    for nodeid in failed.ids:
        print(f"  failed under the tracer: {nodeid}", file=sys.stderr)


def part_experiments() -> None:
    from repro.cli import EXPERIMENTS
    os.environ["REPRO_CACHE_DIR"] = os.path.abspath("cache")
    for name in EXPERIMENTS:
        _repro(name)        # cold
        _repro(name)        # warm: every cell is a cache hit


def part_benches() -> None:
    os.environ["REPRO_NO_CACHE"] = "1"
    _pytest("bench_fig1_mbone.py", "bench_fig23_jitter.py",
            "bench_fig4_improvement.py", "bench_ablations.py",
            "bench_extension_frequency.py", "bench_sensitivity_rtt.py")


def part_budget() -> None:
    _pytest("bench_micro.py", "bench_population.py")


def part_guards() -> None:
    _pytest("bench_obs_overhead.py", "bench_feature_guards.py")


def part_fuzz() -> None:
    for seed in ("4", "48", "111"):
        _repro("fuzz", "--budget", "25", "--seed", seed,
               "--forensics", "fuzz-forensics.json")


def part_e2e() -> None:
    sys.path.insert(0, os.path.join(ROOT, "benchmarks", "e2e"))
    import run
    for workload in run.load_spec()["workloads"]:
        for trace in ("0", "1"):
            code = run.main(["--workload", workload["name"], "--quick",
                             "--trace", trace])
            print(f"  e2e {workload['name']} --trace {trace}: exit {code}",
                  file=sys.stderr)


#: The CI examples job's smoke commands, in order.
CLI_STEPS = [
    ["profile", "--frames", "300", "--frame-size", "700", "--cbr", "17.5e6",
     "--time-cap", "60", "--top", "10"],
    *(["scenario", "--transport", "iq", "--workload", "greedy", "--frames",
       "300", "--frame-size", "700", "--cbr", "17.5e6", "--time-cap", "60",
       *extra] for extra in (["--telemetry", "0.05", "--save", "a.pkl"],
                             ["--telemetry", "0.05", "--save", "b.pkl"],
                             ["--trace", "t.jsonl"])),
    ["compare", "a.pkl", "b.pkl"], ["report", "a.pkl", "--prom"],
    ["report", "b.pkl", "--prom"], ["report", "notes.txt"], ["compare", "t.jsonl", "a.pkl"],
    ["report", os.path.join(HERE, "data", "greedy20_iq.pkl")],
    ["campaign", "status", "old-camp"],
    ["scenario", "--adaptation", "resolution", "--cbr", "17.5e6", "--vbr",
     "1e6", "--frame-size", "700", "--seed", "2", "--save", "adapt.pkl",
     "--trace", "adapt.jsonl"],
    ["report", "adapt.pkl"], ["report", "adapt.jsonl"],
    ["report", "v1.jsonl"], ["campaign", "status", "list-camp"],
    *(["scenario", "--frames", "10", "--telemetry", c]
      for c in ("nan", "inf", "1e-300")),
    ["scenario", "--transport", "iq", "--workload", "greedy", "--frames",
     "1500", "--cbr", "19e6", "--time-cap", "60", "--save", "c.pkl"],
    ["report", "c.pkl"], ["report", "c.pkl", "--limit", "0"],
    ["report", "c.pkl", "--limit", "-1"],
    ["table3", "--set", "n_frames=20", "--set", "adaptation=marking"],
    ["scenario", "--frames", "50", "--set", "adaptation=markng"],
    ["scenario", "--transport", "tcp", "--tolerance", "0.2"],
    ["campaign", "run", "spec.json", "--dir", "d"],
    ["table3", "--set", "n_frames=20"], ["table3", "--set", "n_frames=20"],
    ["table3", "--set", "n_frames=20", "--campaign-dir", "camp3"],
    ["population", "--flows", "100", "--frames", "20", "--window", "0.5"],
]

SMOKE_SPEC = """name = "smoke"
[template]
workload = "greedy"
n_frames = 20000
time_cap = 300.0
[axes]
transport = ["tcp", "iq"]
cbr_bps = [0.0, 16e6]
[seeds]
count = 3
"""


def part_cli() -> None:
    import signal
    with open("notes.txt", "w") as fh:
        fh.write("not a run artifact\n")
    os.mkdir("old-camp")
    with open(os.path.join("old-camp", "manifest.json"), "w") as fh:
        fh.write('{"version": 1, "name": "old", "cells": []}\n')
    os.mkdir("list-camp")
    with open(os.path.join("list-camp", "manifest.json"), "w") as fh:
        fh.write("[]\n")
    with open("spec.json", "w") as fh:
        fh.write('{"template": {"workload": "greedy"}}\n')
    with open("v1.jsonl", "w") as fh:
        fh.write('{"format": "repro-trace", "runs": 0, "type": "header", '
                 '"version": 1}\n')
    os.environ["REPRO_CACHE_DIR"] = os.path.abspath("cache")
    for argv in CLI_STEPS:
        _repro(*argv)
    from repro.experiments.reliability import (render_reliability,
                                               run_reliability)
    render_reliability(run_reliability(n_frames=150, jobs=4, cache=False))
    # The campaign job: interrupted partway, resumed, compared with an
    # undisturbed run, watched and scraped.
    os.environ["REPRO_NO_CACHE"] = "1"
    with open("smoke.toml", "w") as fh:
        fh.write(SMOKE_SPEC)

    def interrupt(signum, frame):
        raise KeyboardInterrupt
    signal.signal(signal.SIGALRM, interrupt)
    signal.alarm(4)
    try:
        _repro("campaign", "run", "smoke.toml", "--dir", "camp",
               "--workers", "2", "--timeout", "60")
    except KeyboardInterrupt:
        print("  (interrupted as intended)", file=sys.stderr)
    finally:
        signal.alarm(0)
    _repro("campaign", "status", "camp")
    _repro("campaign", "resume", "camp", "--workers", "2", "--timeout", "60")
    _repro("campaign", "report", "camp", "--json")
    _repro("campaign", "run", "smoke.toml", "--dir", "fresh", "--workers", "2")
    _repro("campaign", "report", "fresh", "--json")
    _repro("campaign", "watch", "camp", "--once")
    from repro.obs.live import build_metrics_text
    build_metrics_text("camp")      # what ``repro serve`` answers
    _repro("campaign", "report", "camp", "--prom")
    _repro("campaign", "status", "camp", "--json")


def part_examples() -> None:
    import runpy
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py"))):
        try:
            runpy.run_path(path, run_name="__main__")
            code = 0
        except SystemExit as exc:
            code = exc.code
        print(f"  {os.path.basename(path)}: exit {code}", file=sys.stderr)


#: Part name -> its work, longest first (traced on a 2-core box: 430, 400,
#: 290, 250, 175, 150, 70 and 50 s).
PARTS = {"benches": part_benches, "experiments": part_experiments,
         "cli": part_cli, "guards": part_guards, "e2e": part_e2e,
         "budget": part_budget, "fuzz": part_fuzz, "examples": part_examples}


def run_part(name: str, out: str) -> None:
    """Trace one part in a scratch directory; write its reach to ``out``."""
    out = os.path.abspath(out)
    tracer = Tracer(PACKAGE)
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        tracer.start()
        try:
            with open(os.devnull, "w") as null, \
                    contextlib.redirect_stdout(null):
                PARTS[name]()
        except Exception:   # a crash leaves its statements unreached
            traceback.print_exc()
        finally:
            tracer.stop()
            os.chdir(ROOT)
    with open(out, "w") as fh:
        json.dump(tracer.reach(), fh)


def run_all(work: str, slots: int = min(os.cpu_count() or 2, 4)) -> list:
    """Every part in its own process, ``slots`` at a time."""
    pending, running, outs = list(PARTS), [], []
    while pending or running:
        while pending and len(running) < slots:
            name = pending.pop(0)
            out = os.path.join(work, f"{name}.json")
            print(f"census: part {name}", file=sys.stderr)
            running.append(subprocess.Popen(
                [sys.executable, __file__, "--part", name, "--out", out]))
            outs.append(out)
        time.sleep(0.5)
        running = [p for p in running if p.poll() is None]
    return outs


def main(argv=None) -> int:
    import argparse
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--part", choices=list(PARTS))
    parser.add_argument("--out")
    parser.add_argument("--check", nargs="+", metavar="REACH")
    parser.add_argument("--report", help="write the per-file table here")
    args = parser.parse_args(argv)
    if args.part:
        run_part(args.part, args.out or f"{args.part}.json")
        return 0
    with tempfile.TemporaryDirectory() as work:
        files = args.check or run_all(work)
        missing = [path for path in files if not os.path.exists(path)]
        if missing:
            print(f"census: no reach from {', '.join(missing)}",
                  file=sys.stderr)
            return 1
        reached: dict = {}
        for path in files:
            with open(path) as fh:
                for rel, lines in json.load(fh).items():
                    reached.setdefault(rel, set()).update(lines)
    result = check(PACKAGE, reached, load_allow())
    text = render(*result)
    print(text)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    _, unaccounted, unknown, _ = result
    return 1 if unaccounted or unknown else 0


if __name__ == "__main__":
    sys.exit(main())
