"""The per-layer metrics: their names, and how each is computed.

Layers are the packages under ``src/repro``.  Two kinds of numbers:

* **counts** of simulated work, read from the public statistics a result
  carries (summary ``obs_*`` keys, ``FlowStats``, ``QueueStats``, the fault
  injector, the invariant checker) or counted as calls by the traced pass.
  They repeat exactly for a fixed seed; ``exact`` marks them.
* **times**, from the traced pass: a layer's ``self_s`` is the self time of
  the spans of that layer, and a ``*_ns_per_*``/``*_us``/``*_ms`` value is a
  span's time over its calls.  Tracing inflates them all;
  ``trace.overhead_pct`` says by how much in total.

``BENCHMARK.json`` lists the same names, units and directions; the test
checks that the two agree.
"""

from __future__ import annotations

import os
import pickle
from time import perf_counter

__all__ = ["PER_LAYER", "HOOKS", "new_counts", "count_cell", "layer_metrics",
           "runner_probes"]

#: ``(name, unit, better, exact)``.
PER_LAYER = (
    ("sim.events", "count", "lower", True),
    ("sim.self_s", "s", "lower", False),
    ("sim.ns_per_event", "ns", "lower", False),
    ("sim.link_packets", "count", "lower", True),
    ("sim.ns_per_link_packet", "ns", "lower", False),
    ("sim.bottleneck_drop_ratio", "ratio", "lower", True),
    ("sim.bottleneck_peak_pkts", "count", "lower", True),
    ("sim.burst_pkts_per_event", "ratio", "higher", True),
    ("sim.fluid_ticks", "count", "lower", True),
    ("transport.packets_sent", "count", "lower", True),
    ("transport.acks", "count", "lower", True),
    ("transport.retransmissions", "count", "lower", True),
    ("transport.retx_ratio", "ratio", "lower", True),
    ("transport.timeouts", "count", "lower", True),
    ("transport.duplicates", "count", "lower", True),
    ("transport.expired_msgs", "count", "lower", True),
    ("transport.fec_repairs_sent", "count", "lower", True),
    ("transport.fec_recovered", "count", "higher", True),
    ("transport.fec_useful_ratio", "ratio", "higher", True),
    ("transport.self_s", "s", "lower", False),
    ("transport.send_ns_per_packet", "ns", "lower", False),
    ("transport.recv_ns_per_packet", "ns", "lower", False),
    ("transport.ack_ns_per_ack", "ns", "lower", False),
    ("transport.conn_setup_us", "us", "lower", False),
    ("core.period_rolls", "count", "lower", True),
    ("core.callbacks_fired", "count", "lower", True),
    ("core.discarded_msgs", "count", "higher", True),
    ("core.iq_gain_pct", "%", "higher", True),
    ("core.self_s", "s", "lower", False),
    ("core.ns_per_period", "ns", "lower", False),
    ("middleware.frames_submitted", "count", "lower", True),
    ("middleware.deliveries", "count", "higher", True),
    ("middleware.adaptations", "count", "lower", True),
    ("middleware.self_s", "s", "lower", False),
    ("middleware.ns_per_delivery", "ns", "lower", False),
    ("traffic.cross_packets", "count", "lower", True),
    ("traffic.cross_share", "ratio", "lower", True),
    ("traffic.self_s", "s", "lower", False),
    ("traffic.ns_per_cross_packet", "ns", "lower", False),
    ("experiments.self_s", "s", "lower", False),
    ("experiments.build_ms", "ms", "lower", False),
    ("experiments.collect_ms", "ms", "lower", False),
    ("experiments.collect_over_run", "ratio", "lower", False),
    ("analysis.self_s", "s", "lower", False),
    ("analysis.flow_summary_us", "us", "lower", False),
    ("analysis.aggregate_ms", "ms", "lower", False),
    ("obs.metrics_collect_us", "us", "lower", False),
    ("obs.flight_dump_us", "us", "lower", False),
    ("obs.span_records", "count", "lower", True),
    ("obs.spans_finalize_ms", "ms", "lower", False),
    ("obs.self_s", "s", "lower", False),
    ("obs.armed_overhead_pct", "%", "lower", False),
    ("faults.phases_applied", "count", "lower", True),
    ("faults.self_s", "s", "lower", False),
    ("invariants.checks_run", "count", "lower", True),
    ("invariants.self_s", "s", "lower", False),
    ("invariants.us_per_check", "us", "lower", False),
    ("runner.self_s", "s", "lower", False),
    ("runner.config_key_us", "us", "lower", False),
    ("runner.detach_pickle_us", "us", "lower", False),
    ("runner.result_bytes", "bytes", "lower", True),
    ("runner.cache_put_us", "us", "lower", False),
    ("runner.cache_get_us", "us", "lower", False),
    ("runner.overhead_per_op_ms", "ms", "lower", False),
    ("campaign.self_s", "s", "lower", False),
    ("campaign.expand_ms", "ms", "lower", False),
    ("campaign.try_claim_us", "us", "lower", False),
    ("campaign.store_cell_us", "us", "lower", False),
    ("campaign.load_cell_us", "us", "lower", False),
    ("campaign.journal_records", "count", "lower", True),
    ("campaign.overhead_per_cell_ms", "ms", "lower", False),
    ("campaign.reread_s", "s", "lower", False),
    ("trace.overhead_pct", "%", "lower", False),
    ("trace.residual_pct", "%", "lower", False),
    ("trace.unattributed_pct", "%", "lower", False),
)


def _add(key):
    def hook(tallies, result):
        tallies[key] = tallies.get(key, 0) + result
    return hook


#: What the traced pass reads from return values (``spans.tracing``).
HOOKS = {"Simulator.run": _add("events")}


def new_counts() -> dict:
    return dict.fromkeys(
        ("cells", "link_packets", "fwd_arrivals", "fwd_drops", "peak_pkts",
         "fluid_ticks", "packets_sent", "retransmissions", "timeouts",
         "duplicates", "expired_msgs", "fec_repairs_sent", "fec_recovered",
         "callbacks_fired", "discarded_msgs", "frames_submitted",
         "deliveries", "adaptations", "span_records", "phases_applied",
         "checks_run"), 0)


def count_cell(counts: dict, res) -> None:
    """Add one correct cell's public statistics to ``counts``."""
    s = res.summary
    fwd = res.net.forward.queue.stats
    counts["cells"] += 1
    counts["link_packets"] += (fwd.arrivals
                               + res.net.backward.queue.stats.arrivals)
    counts["fwd_arrivals"] += fwd.arrivals
    counts["fwd_drops"] += fwd.drops
    counts["peak_pkts"] = max(counts["peak_pkts"], fwd.peak_packets)
    fluid = getattr(res, "fluid", None)
    if fluid is not None:
        counts["fluid_ticks"] += fluid.ticks
    counts["retransmissions"] += int(s.get("obs_retransmissions",
                                           s.get("retransmissions", 0)))
    counts["timeouts"] += int(s.get("obs_timeouts", s.get("timeouts", 0)))
    if not hasattr(res, "conn"):
        # A population keeps no per-connection statistics: what it sent is
        # what it submitted plus what it sent again.
        counts["packets_sent"] += int(s["datagrams"] + s["retransmissions"])
        counts["deliveries"] += int(s["datagrams"])
        return
    counts["packets_sent"] += int(s["obs_packets_sent"])
    counts["duplicates"] += res.conn.receiver.stats.duplicates
    counts["expired_msgs"] += res.conn.sender.stats.expired_msgs
    counts["fec_repairs_sent"] += int(s.get("obs_fec_repairs_sent", 0))
    counts["fec_recovered"] += int(s.get("obs_fec_recovered", 0))
    counts["callbacks_fired"] += int(s.get("obs_callbacks_upper", 0)
                                     + s.get("obs_callbacks_lower", 0))
    counts["discarded_msgs"] += int(s.get("obs_discarded_msgs", 0))
    counts["frames_submitted"] += int(s.get("obs_frames_submitted", 0))
    counts["deliveries"] += len(res.log)
    counts["adaptations"] += int(s.get("obs_adapt_upper_events", 0)
                                 + s.get("obs_adapt_lower_events", 0))
    if res.spans is not None:
        counts["span_records"] += len(res.spans["frames"])
    if res.injector is not None:
        counts["phases_applied"] += res.injector.phases_begun
    counts["checks_run"] += res.invariant_checks


def runner_probes(cells: dict, configs: dict, workdir: str) -> dict:
    """Time the runner's per-result work on the scenario cells given (a few
    of the pass): key a config, detach and pickle a result, put it in a
    ``ResultsCache`` and get it back (the hit path).  The workloads run with
    the cache off, so nothing else would exercise these."""
    from repro.experiments.common import ScenarioResult
    from repro.runner import ResultsCache, config_key
    out = dict.fromkeys(("config_key_us", "detach_pickle_us", "result_bytes",
                         "cache_put_us", "cache_get_us"), 0.0)
    picked = [(label, res) for label, res in cells.items()
              if isinstance(res, ScenarioResult)]
    if not picked:
        return out
    cache = ResultsCache(os.path.join(workdir, "probe-cache"))
    keyed = 0
    for i, (label, res) in enumerate(picked):
        cfg = configs.get(label)
        if cfg is not None:
            t = perf_counter()
            config_key(cfg)
            out["config_key_us"] += perf_counter() - t
            keyed += 1
        t = perf_counter()
        payload = pickle.dumps(res.detach(),
                               protocol=pickle.HIGHEST_PROTOCOL)
        out["detach_pickle_us"] += perf_counter() - t
        out["result_bytes"] += len(payload)
        t = perf_counter()
        cache.put(f"probe{i}", res)
        out["cache_put_us"] += perf_counter() - t
        t = perf_counter()
        hit = cache.get(f"probe{i}", expect=ScenarioResult)
        out["cache_get_us"] += perf_counter() - t
        if hit is None:
            raise RuntimeError("ResultsCache lost a result it just stored")
    n = len(picked)
    out["config_key_us"] *= 1e6 / keyed if keyed else 0.0
    for key in ("detach_pickle_us", "cache_put_us", "cache_get_us"):
        out[key] *= 1e6 / n
    out["result_bytes"] = round(out["result_bytes"] / n)
    return out


def _per(total, n, scale=1.0):
    return scale * total / n if n else 0.0


def layer_metrics(rec, counts: dict, *, ref_wall_s: float,
                  ref_all_wall_s: float, traced_wall_s: float,
                  reread_s: float, iq_gain: float,
                  armed_overhead_pct: float, probes: dict,
                  journal_records: int) -> dict:
    """Every :data:`PER_LAYER` value of one traced pass.

    ``rec`` is the pass's :class:`spans.Recorder`, ``counts`` what
    :func:`count_cell` gathered from its cells, ``ref_wall_s`` and
    ``traced_wall_s`` the walls of the same main-phase operations untraced
    and traced (on the campaign workload, of the cold pass), and
    ``ref_all_wall_s`` the untraced wall of all of them, the read-back too.
    """
    self_s = rec.layer_self_s()
    span = rec.span
    events = rec.tallies.get("events", 0)
    cells = counts["cells"]
    link_packets = counts["link_packets"]
    sent = counts["packets_sent"]

    run_total = span("Simulator.run")[1]
    scen_total = span("run_scenario")[1]
    pop_total = span("run_population")[1]
    collect = sum(span(name, under="run_scenario")[1]
                  for name in ("flow_summary", "collect_scenario_metrics",
                               "FlightRecorder.dump",
                               "SpanRecorder.finalize"))
    built = scen_total + pop_total - run_total - collect
    batch_total = span("run_batch")[1]
    submit_self = (span("WindowedSender.submit")[2]
                   + span("WindowedSender.submit_burst")[2])
    recv_calls, _, recv_self = span("WindowedReceiver.receive")
    ack_calls, _, ack_self = span("WindowedSender.receive")
    conn_calls, conn_total, _ = span("make_transport")
    period_calls = span("Coordinator.on_period")[0]
    deliver_calls, _, deliver_self = span("DeliveryLog.on_deliver")
    cross = span("UdpSender.send")[0]
    summary_calls, summary_total, _ = span("flow_summary")
    agg_calls, agg_total, _ = span("aggregate")
    metrics_calls, metrics_total, _ = span("collect_scenario_metrics")
    dump_calls, dump_total, _ = span("FlightRecorder.dump")
    fin_calls, fin_total, _ = span("SpanRecorder.finalize")
    claim_calls, claim_total, _ = span("CampaignStore.try_claim")
    store_calls, store_total, _ = span("CampaignStore.store_cell")
    load_calls, load_total, _ = span("CampaignStore.load_cell")
    campaign_total = span("run_campaign")[1]
    total = sum(self_s.values()) or 1.0

    values = {
        "sim.events": events,
        "sim.self_s": self_s.get("sim", 0.0),
        "sim.ns_per_event": _per(self_s.get("sim", 0.0), events, 1e9),
        "sim.link_packets": link_packets,
        "sim.ns_per_link_packet": _per(self_s.get("sim", 0.0), link_packets,
                                       1e9),
        "sim.bottleneck_drop_ratio": _per(counts["fwd_drops"],
                                          counts["fwd_arrivals"]),
        "sim.bottleneck_peak_pkts": counts["peak_pkts"],
        "sim.burst_pkts_per_event": _per(link_packets, events),
        "sim.fluid_ticks": counts["fluid_ticks"],
        "transport.packets_sent": sent,
        "transport.acks": ack_calls,
        "transport.retransmissions": counts["retransmissions"],
        "transport.retx_ratio": _per(counts["retransmissions"], sent),
        "transport.timeouts": counts["timeouts"],
        "transport.duplicates": counts["duplicates"],
        "transport.expired_msgs": counts["expired_msgs"],
        "transport.fec_repairs_sent": counts["fec_repairs_sent"],
        "transport.fec_recovered": counts["fec_recovered"],
        "transport.fec_useful_ratio": _per(counts["fec_recovered"],
                                           counts["fec_repairs_sent"]),
        "transport.self_s": self_s.get("transport", 0.0),
        "transport.send_ns_per_packet": _per(submit_self, sent, 1e9),
        "transport.recv_ns_per_packet": _per(recv_self, recv_calls, 1e9),
        "transport.ack_ns_per_ack": _per(ack_self, ack_calls, 1e9),
        "transport.conn_setup_us": _per(conn_total, conn_calls, 1e6),
        "core.period_rolls": period_calls,
        "core.callbacks_fired": counts["callbacks_fired"],
        "core.discarded_msgs": counts["discarded_msgs"],
        "core.iq_gain_pct": iq_gain,
        "core.self_s": self_s.get("core", 0.0),
        "core.ns_per_period": _per(self_s.get("core", 0.0), period_calls,
                                   1e9),
        "middleware.frames_submitted": counts["frames_submitted"],
        "middleware.deliveries": counts["deliveries"],
        "middleware.adaptations": counts["adaptations"],
        "middleware.self_s": self_s.get("middleware", 0.0),
        "middleware.ns_per_delivery": _per(deliver_self, deliver_calls, 1e9),
        "traffic.cross_packets": cross,
        "traffic.cross_share": _per(cross, link_packets),
        "traffic.self_s": self_s.get("traffic", 0.0),
        "traffic.ns_per_cross_packet": _per(self_s.get("traffic", 0.0),
                                            cross, 1e9),
        "experiments.self_s": self_s.get("experiments", 0.0),
        "experiments.build_ms": _per(built, cells, 1e3),
        "experiments.collect_ms": _per(collect, cells, 1e3),
        "experiments.collect_over_run": _per(collect, run_total),
        "analysis.self_s": self_s.get("analysis", 0.0),
        "analysis.flow_summary_us": _per(summary_total, summary_calls, 1e6),
        "analysis.aggregate_ms": _per(agg_total, agg_calls, 1e3),
        "obs.metrics_collect_us": _per(metrics_total, metrics_calls, 1e6),
        "obs.flight_dump_us": _per(dump_total, dump_calls, 1e6),
        "obs.span_records": counts["span_records"],
        "obs.spans_finalize_ms": _per(fin_total, fin_calls, 1e3),
        "obs.self_s": self_s.get("obs", 0.0),
        "obs.armed_overhead_pct": armed_overhead_pct,
        "faults.phases_applied": counts["phases_applied"],
        "faults.self_s": self_s.get("faults", 0.0),
        "invariants.checks_run": counts["checks_run"],
        "invariants.self_s": self_s.get("invariants", 0.0),
        "invariants.us_per_check": _per(self_s.get("invariants", 0.0),
                                        counts["checks_run"], 1e6),
        "runner.self_s": self_s.get("runner", 0.0),
        "runner.config_key_us": probes["config_key_us"],
        "runner.detach_pickle_us": probes["detach_pickle_us"],
        "runner.result_bytes": probes["result_bytes"],
        "runner.cache_put_us": probes["cache_put_us"],
        "runner.cache_get_us": probes["cache_get_us"],
        "runner.overhead_per_op_ms": _per(
            batch_total - span("run_scenario", under="run_batch")[1],
            span("run_scenario", under="run_batch")[0], 1e3),
        "campaign.self_s": self_s.get("campaign", 0.0),
        "campaign.expand_ms": 1e3 * span("Campaign.cells")[1],
        "campaign.try_claim_us": _per(claim_total, claim_calls, 1e6),
        "campaign.store_cell_us": _per(store_total, store_calls, 1e6),
        "campaign.load_cell_us": _per(load_total, load_calls, 1e6),
        "campaign.journal_records": journal_records,
        "campaign.overhead_per_cell_ms": (
            _per(traced_wall_s - scen_total, cells, 1e3)
            if campaign_total else 0.0),
        "campaign.reread_s": reread_s,
        "trace.overhead_pct": 100.0 * (traced_wall_s / ref_wall_s - 1.0),
        # What the wrapper-cost correction leaves unexplained.
        "trace.residual_pct": 100.0 * (total / ref_all_wall_s - 1.0),
        "trace.unattributed_pct": 100.0 * self_s.get("bench", 0.0) / total,
    }
    if set(values) != {name for name, *_ in PER_LAYER}:
        raise RuntimeError("PER_LAYER and layer_metrics disagree on names")
    return values
