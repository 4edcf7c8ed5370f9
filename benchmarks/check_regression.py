#!/usr/bin/env python
"""Compare fresh micro-bench timings against the committed baseline.

Usage::

    python benchmarks/check_regression.py            # default 25% threshold
    python benchmarks/check_regression.py --threshold 0.10

Reads ``benchmarks/results/bench_perf.json`` (produced by running
``bench_micro.py``) and ``benchmarks/perf_baseline.json`` (committed).
Exits nonzero when any *rate* metric (``*_per_s``) drops more than the
threshold below baseline, or when a metric gated by a ``*_max`` ceiling
key exceeds it (e.g. baseline ``disarmed_ns_per_pkt_max: 285`` fails
the run if current ``disarmed_ns_per_pkt`` > 285 -- ceilings are
absolute budgets, not ratios, so ``--threshold`` does not apply).
Benches annotated ``"skipped": true`` on either side (e.g.
``parallel_batch`` on a single-core host) are exempt entirely.
Wall-clock metrics (``*_s``) and metadata are reported but never gate:
they depend on batch composition and host load far more than the
per-event rates do.

When a run ledger is armed (``REPRO_LEDGER_DIR`` or ``--ledger-dir``) the
rolling-window sentinel runs alongside the static gate: each bench key's
newest ledger record is judged against the median of its previous runs
(``repro sentinel`` semantics, see :mod:`repro.obs.ledger`), so drift
that stays inside the frozen baseline's generous threshold but trends
away across runs is still caught.  With fewer than two runs per key the
sentinel reports ``insufficient-data`` and does not gate.

Also exposed as an opt-in pytest gate:
``pytest -m perf_regression benchmarks/bench_micro.py``.

Baselines are host-dependent; after an intentional engine change (or on a
new CI host), refresh with ``--update-baseline``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).parent
CURRENT = HERE / "results" / "bench_perf.json"
BASELINE = HERE / "perf_baseline.json"

DEFAULT_THRESHOLD = 0.25


def sentinel(ledger_dir: str, *, window: int, tolerance: float
             ) -> tuple[list[str], list[str]]:
    """Rolling-window verdicts for the bench keys in the run ledger."""
    try:
        from repro.obs.ledger import RunLedger, sentinel_verdicts
    except ImportError:
        sys.path.insert(0, str(HERE.parent / "src"))
        try:
            from repro.obs.ledger import RunLedger, sentinel_verdicts
        except ImportError:
            return (["  (repro not importable; sentinel skipped)"], [])
    records = RunLedger(ledger_dir).read(kind="bench")
    verdicts = sentinel_verdicts(records, window=window,
                                 tolerance=tolerance)
    lines: list[str] = []
    failures: list[str] = []
    for v in verdicts:
        if v["verdict"] == "insufficient-data":
            lines.append(f"  {v['key']}: insufficient-data "
                         f"(first run for this key)")
            continue
        lines.append(f"  {v['key']}.{v['metric']}: {v['newest']:g} vs "
                     f"window median {v['baseline']:g} "
                     f"({v['delta_pct']:+.1f}%) {v['verdict']}")
        if v["verdict"] == "regression":
            failures.append(f"{v['key']}.{v['metric']}: {v['newest']:g} "
                            f"drifted {v['delta_pct']:+.1f}% from the "
                            f"{v['window_n']}-run median {v['baseline']:g}")
    if not verdicts:
        lines.append("  (ledger has no bench records yet)")
    return lines, failures


def compare(current: dict, baseline: dict, threshold: float
            ) -> tuple[list[str], list[str]]:
    """Returns (report lines, failure lines)."""
    lines: list[str] = []
    failures: list[str] = []
    for bench, base_fields in sorted(baseline.items()):
        cur_fields = current.get(bench)
        if not isinstance(base_fields, dict):
            continue
        # A bench may annotate itself out of the comparison (e.g.
        # parallel_batch on a single-core host records "skipped": true);
        # a skip on either side exempts the whole bench.
        if base_fields.get("skipped") or (
                isinstance(cur_fields, dict) and cur_fields.get("skipped")):
            lines.append(f"  {bench}: skipped")
            continue
        for metric, base_val in sorted(base_fields.items()):
            if not isinstance(base_val, (int, float)):
                continue
            if metric.endswith("_max"):
                gated = metric[:-len("_max")]
                cur_val = (cur_fields or {}).get(gated)
                if cur_val is None:
                    failures.append(f"{bench}.{gated}: missing from current "
                                    f"run (ceiling {base_val:g})")
                    continue
                status = "ok"
                if cur_val > base_val:
                    status = "OVER CEILING"
                    failures.append(f"{bench}.{gated}: {cur_val:g} exceeds "
                                    f"ceiling {base_val:g}")
                lines.append(f"  {bench}.{gated}: {cur_val:g} "
                             f"(ceiling {base_val:g}) {status}")
                continue
            if not metric.endswith("_per_s") or base_val <= 0:
                continue
            cur_val = (cur_fields or {}).get(metric)
            if cur_val is None:
                failures.append(f"{bench}.{metric}: missing from current run")
                continue
            ratio = cur_val / base_val
            status = "ok"
            if ratio < 1.0 - threshold:
                status = f"REGRESSION (>{threshold:.0%} below baseline)"
                failures.append(f"{bench}.{metric}: {cur_val:,.0f}/s vs "
                                f"baseline {base_val:,.0f}/s ({ratio:.2f}x)")
            lines.append(f"  {bench}.{metric}: {cur_val:,.0f}/s "
                         f"(baseline {base_val:,.0f}/s, {ratio:.2f}x) "
                         f"{status}")
    return lines, failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                    help="max tolerated fractional rate drop (default 0.25)")
    ap.add_argument("--current", type=pathlib.Path, default=CURRENT)
    ap.add_argument("--baseline", type=pathlib.Path, default=BASELINE)
    ap.add_argument("--update-baseline", action="store_true",
                    help="overwrite the baseline with the current numbers")
    ap.add_argument("--ledger-dir", default=os.environ.get(
                        "REPRO_LEDGER_DIR") or None,
                    help="run-ledger directory for the rolling-window "
                         "sentinel (default: $REPRO_LEDGER_DIR; omit to "
                         "skip the sentinel)")
    ap.add_argument("--window", type=int, default=5,
                    help="sentinel reference runs per key (default 5)")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="sentinel fractional drift tolerance "
                         "(default 0.10)")
    args = ap.parse_args(argv)

    if not args.current.exists():
        print(f"no current timings at {args.current}; "
              "run benchmarks/bench_micro.py first", file=sys.stderr)
        return 2
    current = json.loads(args.current.read_text())

    if args.update_baseline:
        # Ceiling keys are policy, not measurements: carry them over so a
        # baseline refresh never silently drops a committed budget.
        if args.baseline.exists():
            old = json.loads(args.baseline.read_text())
            for bench, fields in old.items():
                if not isinstance(fields, dict):
                    continue
                for metric, val in fields.items():
                    if metric.endswith("_max"):
                        current.setdefault(bench, {}).setdefault(metric, val)
        args.baseline.write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n")
        print(f"baseline updated from {args.current}")
        return 0

    if not args.baseline.exists():
        print(f"no baseline at {args.baseline}; seed one with "
              "--update-baseline", file=sys.stderr)
        return 2
    baseline = json.loads(args.baseline.read_text())

    lines, failures = compare(current, baseline, args.threshold)
    print("bench_perf vs baseline:")
    for line in lines:
        print(line)
    if args.ledger_dir:
        s_lines, s_failures = sentinel(args.ledger_dir, window=args.window,
                                       tolerance=args.tolerance)
        print(f"\nrolling-window sentinel ({args.ledger_dir}):")
        for line in s_lines:
            print(line)
        failures.extend(s_failures)
    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("no regressions.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
