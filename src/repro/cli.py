"""Command-line interface: run any paper experiment or a custom scenario.

Examples
--------
::

    python -m repro table1                 # regenerate a paper table
    python -m repro table6 --seed 3        # different seed
    python -m repro table6 --jobs 4        # fan rows across 4 processes
    python -m repro table3 --set cbr_bps=16e6   # override any config field
    python -m repro dynamics --jobs 4      # network-dynamics sweeps
    python -m repro reliability --jobs 4   # FEC repair tier vs ARQ-only
    python -m repro fuzz --budget 25 --seed 4   # differential fuzz sweep
    python -m repro list                   # what's available
    python -m repro scenario --transport iq --workload greedy \
        --cbr 16e6 --frames 4000 --adaptation resolution
    python -m repro scenario --telemetry 0.1 --save a.pkl   # sampled series
    python -m repro population --flows 1000  # 1k flows + fluid background
    python -m repro profile --cbr 16e6     # engine self-profile for one run
    python -m repro compare a.pkl b.pkl    # run diff (exit 1 on divergence)
    python -m repro scenario --set spans=True --save a.pkl   # lineage armed
    python -m repro report a.pkl           # flight timeline + audit
    python -m repro report a.pkl --prom    # Prometheus text exposition
    python -m repro report run.jsonl.gz    # trace timeline + audit

The experiment subcommands print the same paper-vs-measured blocks the
benches write (each is one :class:`~repro.experiments.grid.Experiment`
declaration); ``scenario`` runs a one-off configuration (through the
:mod:`repro.api` facade) and prints the standard metric bundle.  Every
experiment command accepts repeated ``--set key=value`` overrides that
patch the underlying ``ScenarioConfig`` (values parse through
:func:`~repro.experiments.common.parse_field`; unknown keys fail with a
close-match suggestion).
"""

from __future__ import annotations

import argparse
import sys

from .analysis.tables import render_table
from .experiments import (baseline, conflict, dynamics, granularity,
                          overreaction, reliability)
from .experiments.common import TRANSPORTS, parse_field
from .experiments.grid import Experiment
from .middleware.adaptation import ADAPTATIONS

__all__ = ["main", "EXPERIMENTS", "parse_overrides"]

#: Command name -> declaration, for every table and sweep.
EXPERIMENTS: dict[str, Experiment] = {
    "table1": baseline.TABLE1, "table2": baseline.TABLE2,
    "table3": conflict.TABLE3, "table4": conflict.TABLE4,
    "table5": overreaction.TABLE5, "table6": overreaction.TABLE6,
    "table7": granularity.TABLE7, "table8": granularity.TABLE8,
    "dynamics": dynamics.DYNAMICS, "reliability": reliability.RELIABILITY,
}


def _split_overrides(pairs: "list[str] | None") -> "dict[str, str]":
    """Repeated ``--set KEY=VALUE`` options as ``{key: value text}``."""
    out: dict = {}
    for item in pairs or ():
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise SystemExit(
                f"error: --set expects KEY=VALUE, got {item!r}")
        out[key] = raw
    return out


def parse_overrides(pairs: "list[str] | None") -> "dict | None":
    """Parse repeated ``--set KEY=VALUE`` options into config overrides.

    Values go through :func:`~repro.experiments.common.parse_field`, the
    dialect campaign spec files share: Python literals (``16e6``,
    ``None``, ``(2.0, 1e6, 5.0)``), ``adaptation`` / ``faults`` registry
    names, ``fec`` spec strings; anything else stays a string, so ``--set
    workload=greedy`` works unquoted.  Key validity is *not* checked here
    -- ``ScenarioConfig.replace`` rejects unknown fields with a
    did-you-mean hint at application time.
    """
    return {key: parse_field(key, raw)
            for key, raw in _split_overrides(pairs).items()} or None


def _run_experiment(args) -> str:
    """Every table and sweep command: run the declaration, render it."""
    exp = EXPERIMENTS[args.command]
    schedules = getattr(args, "schedules", None)
    res = exp.run(
        groups=tuple(schedules.split(",")) if schedules else None,
        n_frames=getattr(args, "frames", None), seed=args.seed,
        jobs=args.jobs, trace=args.trace,
        overrides=parse_overrides(args.set), campaign_dir=args.campaign_dir)
    return exp.render(res)


def _list_cmd(args) -> None:
    print("experiments:", ", ".join(EXPERIMENTS))
    print("dynamics scenarios:", ", ".join(dynamics.SCENARIOS))
    print("reliability scenarios:", ", ".join(reliability.SCENARIOS))
    print("plus: scenario (custom runs), population "
          "(many flows, fluid background); see --help")


def _build_scenario(args):
    """One-off scenario from the shared ``scenario``/``profile`` options."""
    from .api import Scenario
    scenario = Scenario(
        transport=args.transport, workload=args.workload,
        n_frames=args.frames, base_frame_size=args.frame_size,
        frame_rate=args.frame_rate,
        adaptation=ADAPTATIONS[args.adaptation],
        cbr_bps=args.cbr, vbr_mean_bps=args.vbr,
        loss_tolerance=args.tolerance, rtt_s=args.rtt, seed=args.seed,
        time_cap=args.time_cap)
    overrides = parse_overrides(args.set)
    if overrides:
        scenario = scenario.replace(**overrides)
    return scenario


def _run_scenario_cmd(args) -> str:
    from .api import run
    scenario = _build_scenario(args)
    if args.telemetry:
        from .api import TelemetryConfig
        scenario = scenario.replace(
            telemetry=TelemetryConfig(cadence_s=args.telemetry))
    # Traced one-off runs always execute fresh (cache=False) so the trace
    # file actually contains the run's event stream.
    res = run(scenario, cache=False if args.trace else None,
              trace=args.trace)
    if args.save:
        from .runner.cache import write_pickle
        write_pickle(args.save, res)
    rows = [(k, round(v, 4)) for k, v in sorted(res.summary.items())]
    out = render_table(("metric", "value"), rows,
                       title=f"scenario: {args.transport}/{args.workload}")
    if args.save:
        out += (f"\n\nresult saved to {args.save} "
                f"(inspect with 'repro report {args.save}' or diff two "
                f"saves with 'repro compare A B')")
    return out


def _run_population_cmd(args) -> str:
    from .analysis.tables import render_table as _rt
    from .experiments.population import run_population
    res = run_population(
        n_flows=args.flows, frames_per_flow=args.frames,
        frame_bytes=args.frame_size, bottleneck_bps=args.bottleneck,
        fluid_bps=args.fluid, rtt_s=args.rtt, seed=args.seed,
        arrival_window_s=args.window, time_cap=args.time_cap)
    rows = [(k, round(v, 4)) for k, v in sorted(res.summary.items())]
    return (_rt(("metric", "value"), rows,
                title=f"population: {args.flows} flows")
            + f"\nengine events fired: {res.events}")


def _run_profile_cmd(args) -> str:
    from .obs.profiler import profile_scenario, render_profile
    res, profile = profile_scenario(_build_scenario(args))
    if args.json:
        import json
        return json.dumps({"summary": res.summary,
                           "profile": profile.as_dict()},
                          indent=2, sort_keys=True)
    return render_profile(profile, top=args.top)


def _run_compare_cmd(args) -> int:
    from .obs.compare import compare_artifacts, render_comparison_report
    report = compare_artifacts(args.a, args.b, rtol=args.rtol,
                               atol=args.atol, eps=args.eps)
    if args.json:
        import json
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(render_comparison_report(report, all_rows=args.all))
    return report.exit_code


def _run_fuzz_cmd(args) -> int:
    from .fuzz import run_fuzz
    report = run_fuzz(budget=args.budget, seed=args.seed, jobs=args.jobs,
                      timeout=args.timeout)
    if args.forensics:
        import json
        with open(args.forensics, "w") as fh:
            json.dump({"summary": report.summary_line(),
                       "failures": report.failures,
                       "mismatches": report.mismatches,
                       "forensics": report.forensics}, fh, indent=2)
        print(f"[fuzz] forensics written to {args.forensics} "
              f"({len(report.forensics)} record(s)); view with "
              f"'repro report {args.forensics}'")
    return 0 if report.ok else 1


def _run_report_cmd(args) -> str:
    from .obs.report import load_artifact, render_artifact
    types = None
    if args.events:
        types = () if args.events == "all" else tuple(args.events.split(","))
    return render_artifact(load_artifact(args.path), run=args.run,
                           limit=args.limit, types=types, frame=args.frame,
                           prom=args.prom, as_json=args.json)


def _execute_campaign(campaign, args) -> int:
    """Shared run/resume executor: run, report, map outcome to exit code
    (0 clean, 1 failed cells, 130 interrupted with a resume hint)."""
    from .campaign import CampaignStore, run_campaign
    CampaignStore(args.dir).read_manifest()  # another format is refused first
    print(campaign.describe(), file=sys.stderr)
    try:
        run = run_campaign(campaign, dir=args.dir, workers=args.workers,
                           timeout=args.timeout, retries=args.retries)
    except KeyboardInterrupt:
        print(file=sys.stderr)
        print(f"interrupted; finished cells are saved -- resume with: "
              f"repro campaign resume {args.dir} "
              f"--workers {args.workers}", file=sys.stderr)
        return 130
    report = run.report()
    print(report.render())
    if not run.complete:
        print(f"\n{len(run.incomplete)} cell(s) still pending; resume "
              f"with: repro campaign resume {args.dir}", file=sys.stderr)
        return 130
    return 1 if report.failed else 0


def _run_campaign_cmd(args) -> int:
    from .api import load_campaign
    campaign = load_campaign(args.spec)
    # As text: the manifest keeps the spec as written, and a resume
    # re-parses it through the same dialect.
    overrides = _split_overrides(args.set)
    if overrides:
        campaign = campaign.replace_template(**overrides)
    return _execute_campaign(campaign, args)


def _resume_campaign_cmd(args) -> int:
    from .campaign import Campaign, CampaignStore
    spec = CampaignStore(args.dir).manifest().get("spec")
    if spec is None:
        raise ValueError(
            f"the campaign in {args.dir} was built programmatically (no "
            f"stored spec); resume it through its original entry point")
    return _execute_campaign(Campaign.from_mapping(spec), args)


def _metrics_arg(args) -> "tuple[str, ...] | None":
    return tuple(args.metrics.split(",")) if args.metrics else None


def _status_campaign_cmd(args) -> str:
    from .obs.live import render_status, watch_snapshot
    snap = watch_snapshot(args.dir)
    if args.json:
        import json
        return json.dumps(snap, indent=1, sort_keys=True)
    return render_status(snap)


def _watch_campaign_cmd(args) -> int:
    """Live (or ``--once``) view of a running campaign directory."""
    import time

    from .campaign import CampaignStore
    from .obs.live import render_watch, watch_snapshot
    # One aggregator across refreshes: each tick reads only newly landed
    # cells, so watching a big campaign is O(new) file reads per refresh.
    agg = CampaignStore(args.dir).aggregator(metrics=_metrics_arg(args))
    try:
        while True:
            snap = watch_snapshot(args.dir, agg=agg)
            if not args.once and sys.stdout.isatty():
                sys.stdout.write("\x1b[2J\x1b[H")  # clear + home
            print(render_watch(snap))
            sys.stdout.flush()
            if args.once or (snap["done"] >= snap["total"]
                             and not snap["running"]):
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print(file=sys.stderr)
        return 0


def _serve_cmd(args) -> int:
    """Serve a campaign directory's live state over HTTP."""
    from .obs.live import make_live_server
    server = make_live_server(args.dir, port=args.port, host=args.host)
    host, port = server.server_address[:2]
    print(f"serving campaign {args.dir} on http://{host}:{port}/ "
          f"(Prometheus: /metrics; Ctrl-C to stop)", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print(file=sys.stderr)
    finally:
        server.server_close()
    return 0


def _report_campaign_cmd(args) -> str:
    from .campaign import CampaignStore
    store = CampaignStore(args.dir)
    agg = store.aggregator(metrics=_metrics_arg(args))
    agg.poll(store)
    report = agg.report()
    if args.json:
        return report.to_json()
    if args.prom:
        return report.render_prometheus().rstrip("\n")
    return report.render()


def add_exec_flags(sp, *, seed: int | None = None, jobs: bool = False,
                   trace: str | None = None, set_: bool = False,
                   campaign_dir: bool = False) -> None:
    """Attach the shared execution flag group to a subparser.

    One definition for the ``--seed/--jobs/--trace/--set/--campaign-dir``
    options every runnable command repeats; each flag is opt-in so
    commands pick the subset they support (``trace`` takes the
    command-specific help text).
    """
    if seed is not None:
        sp.add_argument("--seed", type=int, default=seed)
    if jobs:
        sp.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the scenario batch "
                             "(results are identical for any N)")
    if trace is not None:
        sp.add_argument("--trace", metavar="PATH", default=None, help=trace)
    if set_:
        sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        default=None,
                        help="override any ScenarioConfig field for every "
                             "run (repeatable; values parse as Python "
                             "literals, e.g. --set cbr_bps=16e6)")
    if campaign_dir:
        sp.add_argument("--campaign-dir", metavar="DIR", default=None,
                        help="route the rows through a shared campaign "
                             "directory: interrupt and re-run the same "
                             "command to resume, point extra processes or "
                             "hosts at DIR to help (see 'repro campaign')")


def _command(parent, name: str, func, **kw) -> argparse.ArgumentParser:
    """One subcommand, said once: its parser and the handler :func:`main`
    calls for it (which returns the text to print, an exit code, or None
    after printing for itself)."""
    sp = parent.add_parser(name, **kw)
    sp.set_defaults(func=func)
    return sp


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="IQ-RUDP (HPDC 2002) reproduction harness")
    sub = p.add_subparsers(dest="command", required=True)

    for name, exp in EXPERIMENTS.items():
        if exp.paper is None:
            continue  # the two sweeps take their own options, next
        sp = _command(sub, name, _run_experiment,
                      help=f"regenerate the paper's {name}")
        add_exec_flags(sp, seed=exp.seed, jobs=True, set_=True,
                       campaign_dir=True,
                       trace="write the batch's trace events to PATH "
                             "(.jsonl or .jsonl.gz); view with "
                             "'repro report PATH'")

    dy = _command(
        sub, "dynamics", _run_experiment,
        help="network-dynamics sweeps: coordinated vs uncoordinated under "
             "link flaps, handovers, bursty loss and capacity ramps")
    dy.add_argument("--schedules", metavar="NAMES", default=None,
                    help="comma-separated scenario subset (default: "
                         f"{','.join(dynamics.SCENARIOS)})")
    add_exec_flags(dy, seed=dynamics.DYNAMICS.seed, jobs=True, set_=True,
                   campaign_dir=True,
                   trace="write the sweep's trace events to PATH; fault "
                         "phases show up in 'repro report PATH'")

    rl = _command(
        sub, "reliability", _run_experiment,
        help="application-tailored reliability sweeps: FEC repair tier vs "
             "ARQ-only IQ-RUDP under bursty loss and handover blackouts")
    rl.add_argument("--schedules", metavar="NAMES", default=None,
                    help="comma-separated scenario subset (default: "
                         f"{','.join(reliability.SCENARIOS)})")
    rl.add_argument("--frames", type=int, metavar="N",
                    default=reliability.RELIABILITY.n_frames,
                    help="trace frames offered per cell (default "
                         "%(default)s; keep >= 150 so every arm is still "
                         "active when the faults land)")
    add_exec_flags(rl, seed=reliability.RELIABILITY.seed, jobs=True,
                   set_=True, campaign_dir=True,
                   trace="write the sweep's trace events to PATH; FEC "
                         "repair/recovery events show up in "
                         "'repro report PATH'")

    _command(sub, "list", _list_cmd, help="list experiments")

    def add_scenario_options(sp):
        sp.add_argument("--transport", choices=TRANSPORTS, default="iq")
        sp.add_argument("--workload",
                        choices=("greedy", "trace_clocked", "fixed_clocked"),
                        default="greedy")
        sp.add_argument("--adaptation", choices=sorted(ADAPTATIONS),
                        default="none")
        sp.add_argument("--frames", type=int, default=2000)
        sp.add_argument("--frame-size", type=int, default=1400)
        sp.add_argument("--frame-rate", type=float, default=10.0)
        sp.add_argument("--cbr", type=float, default=0.0)
        sp.add_argument("--vbr", type=float, default=0.0)
        sp.add_argument("--tolerance", type=float, default=None)
        sp.add_argument("--rtt", type=float, default=0.030)
        sp.add_argument("--time-cap", type=float, default=600.0)
        add_exec_flags(sp, seed=1, set_=True)

    sc = _command(sub, "scenario", _run_scenario_cmd,
                  help="run a custom scenario")
    add_scenario_options(sc)
    add_exec_flags(sc, trace="write this run's trace events to PATH "
                             "(forces a fresh, uncached run)")
    sc.add_argument("--telemetry", type=float, metavar="CADENCE_S",
                    help="sample per-flow/queue/link time series every "
                         "CADENCE_S sim-seconds (rides in the saved result)")
    sc.add_argument("--save", metavar="PATH", help="pickle the (detached) "
                    "result to PATH for 'repro report' / 'repro compare'")

    pp = _command(
        sub, "population", _run_population_cmd,
        help="run a population scenario: "
             "many concurrent foreground transports with fluid aggregate "
             "cross traffic (see EXPERIMENTS.md, 'Scale tiers')")
    pp.add_argument("--flows", type=int, default=1000, metavar="N",
                    help="concurrent foreground flows (default 1000)")
    pp.add_argument("--frames", type=int, default=40, metavar="N",
                    help="frames submitted per flow (default 40)")
    pp.add_argument("--frame-size", type=int, default=1400)
    pp.add_argument("--bottleneck", type=float, default=200e6, metavar="BPS",
                    help="bottleneck rate in bps (default 200e6)")
    pp.add_argument("--fluid", type=float, default=50e6, metavar="BPS",
                    help="fluid background aggregate rate in bps; 0 "
                         "disables it (default 50e6)")
    pp.add_argument("--rtt", type=float, default=0.030)
    pp.add_argument("--window", type=float, default=2.0, metavar="S",
                    help="flow arrival window in seconds (default 2.0)")
    pp.add_argument("--time-cap", type=float, default=60.0)
    pp.add_argument("--seed", type=int, default=1)

    pf = _command(
        sub, "profile", _run_profile_cmd,
        help="run one scenario on the self-profiling engine and print "
             "per-callback event counts (deterministic) and wall-time "
             "attribution (advisory)")
    add_scenario_options(pf)
    pf.add_argument("--top", type=int, default=20, metavar="N",
                    help="show the N busiest callbacks (default 20)")
    pf.add_argument("--json", action="store_true",
                    help="emit the profile (and run summary) as JSON")

    cp = _command(
        sub, "compare", _run_compare_cmd,
        help="diff two run artifacts (pickled results from 'scenario "
             "--save' and/or .jsonl[.gz] traces): summary-metric deltas, "
             "per-series first divergence, trace event-count deltas. "
             "Exits 0 when identical within tolerance, 1 when diverged.")
    cp.add_argument("a", help="baseline artifact")
    cp.add_argument("b", help="candidate artifact")
    cp.add_argument("--rtol", type=float, default=0.0,
                    help="relative tolerance for summary metrics (default 0)")
    cp.add_argument("--atol", type=float, default=0.0,
                    help="absolute tolerance for summary metrics (default 0)")
    cp.add_argument("--eps", type=float, default=0.0,
                    help="per-bucket tolerance for telemetry series "
                         "(default 0)")
    cp.add_argument("--all", action="store_true",
                    help="show matching rows too, not just divergences")
    cp.add_argument("--json", action="store_true",
                    help="emit the structured diff as JSON")

    fz = _command(
        sub, "fuzz", _run_fuzz_cmd,
        help="seeded scenario fuzz: random configs + fault schedules run "
             "with invariants armed and differential oracles (jobs=1 vs "
             "jobs=N, cache-hit vs fresh, armed vs disarmed)")
    fz.add_argument("--budget", type=int, default=25, metavar="N",
                    help="number of generated cases (default 25)")
    fz.add_argument("--seed", type=int, default=4,
                    help="generator seed; the case list is a pure function "
                         "of it (default 4)")
    fz.add_argument("--jobs", type=int, default=2, metavar="N",
                    help="worker count for the parallel differential pass")
    fz.add_argument("--timeout", type=float, default=120.0, metavar="S",
                    help="per-case wall-clock budget in seconds")
    fz.add_argument("--forensics", metavar="PATH", default=None,
                    help="write a JSON forensics file on completion: one "
                         "record per failure/mismatch with both sides' "
                         "flight-recorder dumps and the first-divergence "
                         "event id (view with 'repro report PATH')")

    ca = sub.add_parser(
        "campaign",
        help="declarative experiment campaigns: a spec (template x axes x "
             "seeds) expands to a cell grid executed by work-stealing "
             "workers over a shared directory (resumable, multi-process, "
             "multi-host)")
    casub = ca.add_subparsers(dest="action", required=True)

    def add_campaign_exec_flags(sp):
        sp.add_argument("--workers", type=int, default=1, metavar="N",
                        help="cells in flight, each in a worker process "
                             "(default 1; results identical for any N)")
        sp.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-cell wall-clock budget in seconds")
        sp.add_argument("--retries", type=int, default=0, metavar="N",
                        help="extra attempts for transient failures "
                             "(timeout / worker-lost)")

    car = _command(
        casub, "run", _run_campaign_cmd,
        help="expand a campaign spec and run (or resume) it")
    car.add_argument("spec", help="campaign spec file (.toml)")
    car.add_argument("--dir", metavar="DIR", required=True,
                     help="campaign directory holding claims and results")
    add_campaign_exec_flags(car)
    add_exec_flags(car, set_=True)

    crs = _command(
        casub, "resume", _resume_campaign_cmd,
        help="continue an interrupted campaign from its directory's "
             "stored spec (finished cells are never re-executed)")
    crs.add_argument("dir", help="campaign directory")
    add_campaign_exec_flags(crs)

    cst = _command(casub, "status", _status_campaign_cmd,
                   help="progress of a campaign directory, with one "
                        "row per worker (its claim and its journal) and "
                        "stale leases flagged")
    cst.add_argument("dir", help="campaign directory")
    cst.add_argument("--json", action="store_true",
                     help="print the whole snapshot as JSON")

    cwa = _command(
        casub, "watch", _watch_campaign_cmd,
        help="live view of a running campaign: the status rows plus "
             "per-axis aggregates that update incrementally as cells "
             "land (no wait for the final report)")
    cwa.add_argument("dir", help="campaign directory")
    cwa.add_argument("--once", action="store_true",
                     help="print one snapshot and exit (tests/CI)")
    cwa.add_argument("--interval", type=float, default=2.0, metavar="S",
                     help="refresh period in seconds (default 2)")
    cwa.add_argument("--metrics", metavar="NAMES", default=None,
                     help="comma-separated summary metrics to stream "
                          "(default: the standard campaign set)")

    crp = _command(
        casub, "report", _report_campaign_cmd,
        help="aggregate a campaign directory: per-axis summary stats and "
             "failures by kind")
    crp.add_argument("dir", help="campaign directory")
    crp.add_argument("--metrics", metavar="NAMES", default=None,
                     help="comma-separated summary metrics to aggregate "
                          "(default: the spec's list, else duration/"
                          "throughput/inter-arrival/jitter)")
    crp.add_argument("--json", action="store_true",
                     help="emit the full deterministic report as JSON")
    crp.add_argument("--prom", action="store_true",
                     help="emit Prometheus text exposition instead")

    sv = _command(
        sub, "serve", _serve_cmd,
        help="expose a campaign directory's live state over HTTP: "
             "/metrics (Prometheus text exposition, pinned formatting), "
             "/ (the watch table) and /healthz")
    sv.add_argument("dir", help="campaign directory")
    sv.add_argument("--port", type=int, default=9464, metavar="N",
                    help="TCP port to bind (default 9464; 0 = ephemeral)")
    sv.add_argument("--host", default="127.0.0.1", metavar="ADDR",
                    help="bind address (default 127.0.0.1)")

    rp = _command(sub, "report", _run_report_cmd,
                  help="render a run artifact: a trace (timeline + "
                       "coordination audit), a saved result (flight ring, "
                       "lineage, coordination audit, failure) or a fuzz "
                       "forensics file")
    rp.add_argument("path", help="--trace output, --save output (or a "
                                 "cache/campaign .pkl), or fuzz --forensics")
    rp.add_argument("--run", help="trace: only this run label")
    rp.add_argument("--limit", type=int, metavar="N",
                    help="newest N rows: timeline rows per trace run "
                         "(default 60), flight events and lineage frames "
                         "of a result (default all)")
    rp.add_argument("--events", metavar="TYPES",
                    help="trace: comma-separated event types, or 'all' "
                         "(default: the adaptation/coordination set)")
    view = rp.add_mutually_exclusive_group()
    view.add_argument("--json", action="store_true",
                      help="emit the data the text renders as JSON")
    view.add_argument("--frame", type=int, metavar="N",
                      help="result: frame N's story (needs spans armed)")
    view.add_argument("--prom", action="store_true",
                      help="result: its metrics in Prometheus text format")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.func(args)
        if isinstance(out, str):
            print(out)
        elif out is not None:
            return out
    except BrokenPipeError:
        # Reports are long; ``repro report ... | head`` is normal usage.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except KeyboardInterrupt:
        print("\ninterrupted; completed rows are preserved -- re-run the "
              "same command to resume (campaign directory / results cache)",
              file=sys.stderr)
        return 130
    except (ValueError, FileNotFoundError) as exc:
        # Config mistakes (bad --set keys/values, unknown schedule names,
        # missing artifact paths) are user errors: no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
